// Shared plumbing for the perfbench workloads: run arguments, sample
// statistics, the metric report, span read-out from an obs::Tracer, and the
// host yardsticks (field multiply latency, peak RSS).
//
// Every layer span the benchmark records is opened by the benchmark itself
// around one public call, named "bench.<layer>"; the per-layer metric
// "<layer>_s" is read back from those spans (see LayerSeconds).

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/trace.h"

namespace perfbench {

namespace obs = zaatar::obs;

struct RunArgs {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;  // false: end-to-end metrics; true: per-layer metrics
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Derives independent, reproducible stream seeds from the workload seed.
inline uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t x = seed ^ (stream * 0x9E3779B97F4A7C15ull) ^
               (index * 0xBF58476D1CE4E5B9ull);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Quantile by linear interpolation between order statistics (the "inclusive"
// method); q in [0, 1]. NaN for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return std::nan("");
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// The outcome of one benchmark run: the verdict accounting and the metrics
// of the requested mode, each with its unit.
struct Report {
  size_t attempted = 0;  // honest instances + perturbed-output probes
  size_t failed = 0;     // wrong verdicts or outputs
  std::vector<std::string> errors;  // one line per failure, for stderr
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, size_t> samples;  // sample counts behind the metrics

  void Put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Fail(std::string why) {
    failed++;
    errors.push_back(std::move(why));
  }
};

// Durations (seconds) of every closed span named `name`, in open order.
inline std::vector<double> SpanSeconds(const std::vector<obs::Tracer::Node>& n,
                                       std::string_view name) {
  std::vector<double> out;
  for (const obs::Tracer::Node& s : n) {
    if (s.name == name && s.end_ns != 0 && s.end_ns >= s.start_ns) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

// Median duration of the benchmark's "bench.<layer>" spans.
inline double LayerSeconds(const std::vector<obs::Tracer::Node>& n,
                           const std::string& layer) {
  return Median(SpanSeconds(n, "bench." + layer));
}

// For every span named `parent`, its duration minus that of its direct
// children named in `children`: the part of the parent the layer spans do
// not account for.
inline std::vector<double> UnaccountedSeconds(
    const std::vector<obs::Tracer::Node>& n, std::string_view parent,
    const std::vector<std::string>& children) {
  std::map<uint32_t, double> gap;
  for (uint32_t i = 0; i < n.size(); i++) {
    if (n[i].name == parent && n[i].end_ns != 0) {
      gap[i] = static_cast<double>(n[i].end_ns - n[i].start_ns) * 1e-9;
    }
  }
  for (const obs::Tracer::Node& s : n) {
    auto it = gap.find(s.parent);
    if (it != gap.end() && s.end_ns != 0 &&
        std::find(children.begin(), children.end(), s.name) !=
            children.end()) {
      it->second -= static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::vector<double> out;
  for (const auto& [id, g] : gap) {
    out.push_back(g);
  }
  return out;
}

// Latency of one dependent field multiply, in ns: the host yardstick that
// lets results from different machines be compared as ratios.
template <typename F>
double FieldMulNs() {
  constexpr size_t kOps = size_t{1} << 20;
  F x = F::FromUint(3);
  const F y = F::FromUint(0x9E3779B97F4A7C15ull);
  std::vector<double> reps;
  for (int r = 0; r < 5; r++) {
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < kOps; i++) {
      x = x * y;
    }
    reps.push_back(SecondsSince(t0) * 1e9 / static_cast<double>(kOps));
  }
  if (x.IsZero()) {  // keeps the chain live; never true for a unit chain
    std::fputs("field multiply chain reached zero\n", stderr);
  }
  return Median(reps);
}

// Peak resident set of this process (and, with `children`, of the largest
// waited-for child), in MB.
inline double PeakRssMb(bool children) {
  struct rusage self {};
  getrusage(RUSAGE_SELF, &self);
  double kb = static_cast<double>(self.ru_maxrss);
  if (children) {
    struct rusage kids {};
    getrusage(RUSAGE_CHILDREN, &kids);
    kb += static_cast<double>(kids.ru_maxrss);
  }
  return kb / 1024.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
