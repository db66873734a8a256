// perfbench: runs one workload of the repository benchmark and prints, as the
// last line of standard output, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
//
// The line before it records the run: workload, seed, run length, the host
// (cores, CPU model, build type, thread counts, field multiply ns) and the
// sample counts behind the medians.
//
//   perfbench --workload batch-lcs16|serve-lcs8
//             --seed N --seconds S --trace 0|1
//             [--daemon PATH --socket PATH]   (serve-lcs8 only)
//
// Exit status: 0 when every verdict and output was right, 1 when some was
// not (the result line is still printed), 2 when the run could not complete
// (no result line).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"
#include "src/field/fields.h"
#include "src/obs/export.h"
#include "src/poly/residue.h"
#include "workloads.h"

namespace {

using perfbench::Report;
using perfbench::RunArgs;

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out;
  zaatar::obs::internal::AppendJsonString(s, &out);
  return out;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::cerr << "usage: perfbench --workload batch-lcs16|serve-lcs8 "
               "--seed N --seconds S --trace 0|1 "
               "[--daemon PATH --socket PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string workload, daemon, socket;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--daemon") {
      daemon = value;
    } else if (flag == "--socket") {
      socket = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || workload.empty() || !(args.seconds > 0)) {
    return Usage();
  }

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  size_t tenants = 0;
  if (workload == "serve-lcs8") {
    if (daemon.empty() || socket.empty()) {
      return Usage();
    }
    tenants = perfbench::kServeTenants;
  }
  // One prover thread per instance: the figures are per core and do not
  // depend on the host's core count. On a shared 4-vCPU host the multi-
  // worker quotient was bimodal from run to run (lcs16 prove p50 0.29-0.35 s
  // or 0.51-0.57 s) where one worker held at 0.32-0.35 s.
  setenv("ZAATAR_POLY_WORKERS", "1", 1);

  Report report;
  try {
    if (workload == "batch-lcs16") {
      report = perfbench::RunBatchLcs16(args);
    } else if (workload == "serve-lcs8") {
      report = perfbench::RunServeLcs8(args, daemon, socket);
    } else {
      std::cerr << "unknown workload: " << workload << "\n";
      return Usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench " << workload << ": " << e.what() << "\n";
    return 2;
  }
  std::string samples;
  for (const auto& [name, n] : report.samples) {
    samples += (samples.empty() ? "" : ", ") + JsonString(name) + ": " +
               std::to_string(n);
  }
  // Measured after the workload, on a warmed-up core.
  const double mul128 = perfbench::FieldMulNs<zaatar::F128>();
  const double mul220 = perfbench::FieldMulNs<zaatar::F220>();
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"host\": {\"nproc\": %u, \"cpu_model\": %s, \"build_type\": %s, "
      "\"poly_workers\": %zu, \"tenant_threads\": %zu, "
      "\"field_mul_ns\": {\"F128\": %s, \"F220\": %s}}, "
      "\"samples\": {%s}}\n",
      JsonString(workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0, nproc,
      JsonString(CpuModel()).c_str(), JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      zaatar::PolyWorkers(), tenants, JsonNumber(mul128).c_str(),
      JsonNumber(mul220).c_str(), samples.c_str());
  std::fflush(stdout);

  if (args.trace) {
    report.Put("field.mul_ns_f128", mul128, "ns");
    report.Put("field.mul_ns_f220", mul220, "ns");
  }

  std::string metrics;
  for (const auto& [name, vu] : report.metrics) {
    if (!std::isfinite(vu.first)) {
      std::cerr << "perfbench " << workload << ": metric " << name
                << " was not measured\n";
      return 2;
    }
    metrics += metrics.empty() ? "" : ", ";
    metrics += JsonString(name) + ": {\"value\": " + JsonNumber(vu.first) +
               ", \"unit\": " + JsonString(vu.second) + "}";
  }
  for (const std::string& e : report.errors) {
    std::cerr << "FAILED: " << e << "\n";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {%s}}\n",
      report.failed == 0 ? "true" : "false", report.attempted, report.failed,
      metrics.c_str());
  return report.failed == 0 ? 0 : 1;
}
