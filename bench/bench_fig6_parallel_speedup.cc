// Figure 6: speedups from parallelizing and distributing the prover, for
// PAM clustering and all-pairs shortest paths with beta = 60 instances.
// Configurations mirror the paper's bar labels: 4C, 15C+15G, 20C, 30C+30G,
// 60C, 60C(ideal).
//
// Method (see DESIGN.md §5): per-instance phase costs are *measured* on this
// machine; fleet latency follows the distribution model (instances are
// independent, so a batch completes in ceil(beta/cores) waves; a GPU
// accelerates the crypto phase, calibrated to the paper's ~20% per-instance
// gain). A real ParallelFor demonstration over the host's hardware threads
// closes the loop on the actual code path.

#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "src/argument/parallel.h"

namespace zaatar {
namespace {

template <typename F>
void SpeedupTable(const App<F>& app, const PcpParams& params, size_t beta) {
  auto program = CompileZlang<F>(app.source);
  auto m = MeasureZaatarBatch(app, program, 2, params, /*seed=*/11,
                              /*measure_native=*/false);
  printf("\n%s  (beta = %zu, measured per-instance prover %s)\n",
         app.name.c_str(), beta,
         bench::HumanSeconds(m.prover.Total()).c_str());
  const WorkerConfig kConfigs[] = {
      {.cpu_cores = 4, .gpus = 0},   {.cpu_cores = 15, .gpus = 15},
      {.cpu_cores = 20, .gpus = 0},  {.cpu_cores = 30, .gpus = 30},
      {.cpu_cores = 60, .gpus = 0},
  };
  printf("  %-12s %14s %10s\n", "config", "batch latency", "speedup");
  for (const auto& config : kConfigs) {
    double latency =
        DistributedProverModel::BatchLatency(m.prover, beta, config);
    double speedup = DistributedProverModel::Speedup(m.prover, beta, config);
    printf("  %-12s %14s %9.1fx\n", config.Label().c_str(),
           bench::HumanSeconds(latency).c_str(), speedup);
  }
  printf("  %-12s %14s %9.1fx   (perfect division of the batch)\n",
         "60C(ideal)",
         bench::HumanSeconds(m.prover.Total() * beta / 60.0).c_str(), 60.0);
  double gpu_gain =
      1.0 - DistributedProverModel::InstanceLatency(
                m.prover, {.cpu_cores = 1, .gpus = 1}) /
                DistributedProverModel::InstanceLatency(
                    m.prover, {.cpu_cores = 1, .gpus = 0});
  printf("  GPU per-instance latency gain: %.0f%% (paper: ~20%%)\n",
         100 * gpu_gain);
}

}  // namespace
}  // namespace zaatar

int main() {
  using namespace zaatar;
  PcpParams params;
  printf("Figure 6: prover speedup from parallelization/distribution\n");
  SpeedupTable(MakePamApp(6, 12), params, /*beta=*/60);
  SpeedupTable(MakeApspApp(3), params, /*beta=*/60);

  // Real thread-pool demonstration: prove a small batch with ParallelFor on
  // however many hardware threads this host exposes.
  printf("\nReal ParallelFor check (host has %u hardware threads):\n",
         std::thread::hardware_concurrency());
  {
    auto app = MakeLcsApp(8);
    auto program = CompileZlang<F128>(app.source);
    Qap<F128> qap(program.zaatar.r1cs);
    qap.WarmProver();  // the lazy prover tables must not be built in parallel
    Prg prg(13);
    auto queries =
        ZaatarPcp<F128>::GenerateQueries(qap, PcpParams::Light(), prg);
    auto setup = ZaatarArgument<F128>::Setup(std::move(queries), prg);
    const size_t kBatch = 4;
    std::vector<AppInstance<F128>> instances;
    for (size_t i = 0; i < kBatch; i++) {
      instances.push_back(app.make_instance(prg));
    }
    std::vector<bool> accepted(kBatch, false);
    size_t workers = std::max(1u, std::thread::hardware_concurrency());
    Stopwatch sw;
    ParallelFor(kBatch, workers, [&](size_t i) {
      auto gw = program.SolveGinger(instances[i].inputs);
      auto w = program.SolveZaatar(gw);
      auto proof = BuildZaatarProof(qap, w);
      auto ip = ZaatarArgument<F128>::Prove({&proof.z, &proof.h}, setup);
      auto bound = program.BoundValues(instances[i].inputs,
                                       program.ExtractOutputs(gw));
      accepted[i] = ZaatarArgument<F128>::VerifyInstance(setup, ip, bound);
    });
    double wall = sw.ElapsedSeconds();
    bool all = true;
    for (bool a : accepted) {
      all = all && a;
    }
    printf("  batch of %zu proved+verified in %s across %zu workers, all "
           "accepted: %s\n",
           kBatch, bench::HumanSeconds(wall).c_str(), workers,
           all ? "yes" : "NO");
  }
  return 0;
}
