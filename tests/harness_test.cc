// End-to-end: full batched arguments over compiled benchmark programs, plus
// validation that the Figure 3 cost model tracks reality.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/apps/harness.h"

namespace zaatar {
namespace {

TEST(HarnessTest, ZaatarBatchOverLcsAccepts) {
  auto app = MakeLcsApp(6);
  auto program = CompileZlang<F128>(app.source);
  auto m = MeasureZaatarBatch(app, program, /*beta=*/2, PcpParams::Light(),
                              /*seed=*/7, /*measure_native=*/false);
  EXPECT_TRUE(m.all_accepted);
  EXPECT_GT(m.prover.construct_proof_s, 0.0);
  EXPECT_GT(m.prover.crypto_s, 0.0);
  EXPECT_GT(m.verifier_per_instance_s, 0.0);
  EXPECT_EQ(m.proof_len, program.UZaatar());

  // Per-instance verdicts, not just the conjunction.
  ASSERT_EQ(m.instance_results.size(), 2u);
  for (const auto& r : m.instance_results) {
    EXPECT_TRUE(r.accepted()) << r.detail;
  }
  EXPECT_EQ(m.verdict_counts[static_cast<size_t>(VerifyVerdict::kAccept)], 2u);
  EXPECT_EQ(m.verdict_counts[static_cast<size_t>(VerifyVerdict::kMalformed)],
            0u);
  EXPECT_EQ(m.first_failing_index, -1);

  // The batch really crossed a serialized transport.
  EXPECT_GT(m.setup_message_bytes, 0u);
  EXPECT_GT(m.proof_message_bytes, 0u);
}

TEST(HarnessTest, ZaatarBatchOverRootFindAccepts) {
  auto app = MakeRootFindApp(2, 4);
  auto program = CompileZlang<F220>(app.source);
  auto m = MeasureZaatarBatch(app, program, /*beta=*/1, PcpParams::Light(),
                              /*seed=*/8, /*measure_native=*/false);
  EXPECT_TRUE(m.all_accepted);
}

TEST(HarnessTest, GingerBatchOverSmallLcsAccepts) {
  auto app = MakeLcsApp(3);
  auto program = CompileZlang<F128>(app.source);
  auto m = MeasureGingerBatch(app, program, /*beta=*/1, PcpParams::Light(),
                              /*seed=*/9, /*measure_native=*/false);
  EXPECT_TRUE(m.all_accepted);
  size_t n = program.ginger.layout.Total();
  EXPECT_EQ(m.proof_len, n + n * n);
  ASSERT_EQ(m.instance_results.size(), 1u);
  EXPECT_EQ(m.verdict_counts[static_cast<size_t>(VerifyVerdict::kAccept)], 1u);
  EXPECT_EQ(m.first_failing_index, -1);
}

TEST(HarnessTest, RecordVerdictTracksTaxonomy) {
  BatchMeasurement m;
  RecordVerdict(&m, 0, VerifyInstanceResult::Accept());
  RecordVerdict(&m, 1,
                VerifyInstanceResult::Reject(VerifyVerdict::kRejectPcp,
                                             "decision polynomial nonzero"));
  RecordVerdict(&m, 2, VerifyInstanceResult::Accept());
  RecordVerdict(&m, 3,
                VerifyInstanceResult::Reject(VerifyVerdict::kMalformed,
                                             "bad shape"));

  ASSERT_EQ(m.instance_results.size(), 4u);
  EXPECT_FALSE(m.all_accepted);
  EXPECT_EQ(m.first_failing_index, 1);  // the first reject, not the last
  EXPECT_EQ(m.verdict_counts[static_cast<size_t>(VerifyVerdict::kAccept)], 2u);
  EXPECT_EQ(m.verdict_counts[static_cast<size_t>(VerifyVerdict::kRejectPcp)],
            1u);
  EXPECT_EQ(m.verdict_counts[static_cast<size_t>(VerifyVerdict::kMalformed)],
            1u);
  EXPECT_EQ(
      m.verdict_counts[static_cast<size_t>(VerifyVerdict::kRejectCommit)], 0u);
  EXPECT_EQ(m.instance_results[1].detail, "decision polynomial nonzero");
}

// The session-and-transport harness must produce the same verdicts as the
// pre-refactor in-process path: same seed, same Prg consumption order
// (queries -> keys -> commit setup -> instances), proving and verifying
// drawing no randomness. The reference below IS that old path, hand-rolled
// against the Argument API directly.
TEST(HarnessTest, SessionOutcomesMatchInProcessReference) {
  auto app = MakeLcsApp(4);
  auto program = CompileZlang<F128>(app.source);
  const size_t beta = 3;
  const uint64_t seed = 21;
  PcpParams params = PcpParams::Light();

  auto m = MeasureZaatarBatch(app, program, beta, params, seed,
                              /*measure_native=*/false);
  ASSERT_EQ(m.instance_results.size(), beta);

  using Backend = ZaatarHarnessBackend<F128>;
  using Arg = Argument<F128, Backend::Adapter>;
  Prg prg(seed);
  Backend::Prepared prep(program);
  auto queries = Backend::GenerateQueries(prep, params, prg);
  auto setup = Arg::Setup(std::move(queries), prg);
  std::vector<AppInstance<F128>> instances;
  for (size_t i = 0; i < beta; i++) {
    instances.push_back(app.make_instance(prg));
  }
  for (size_t i = 0; i < beta; i++) {
    std::vector<F128> gw = program.SolveGinger(instances[i].inputs);
    auto vectors = Backend::BuildProofVectors(prep, program, gw);
    auto proof = Arg::Prove({&vectors.first, &vectors.second}, setup);
    std::vector<F128> bound = program.BoundValues(
        instances[i].inputs, instances[i].expected_outputs);
    auto ref = Arg::VerifyInstanceDetailed(setup, proof, bound);
    EXPECT_EQ(ref.verdict, m.instance_results[i].verdict)
        << "instance " << i << " diverged from the in-process path";
    EXPECT_TRUE(ref.accepted()) << ref.detail;
  }
}

// The same batch driven over a real socketpair instead of the loopback.
TEST(HarnessTest, ZaatarBatchOverSocketpairAccepts) {
  auto app = MakeLcsApp(3);
  auto program = CompileZlang<F128>(app.source);
  auto links = protocol::PipeTransport::CreatePair();
  ASSERT_TRUE(links.ok()) << links.status().ToString();
  auto m = MeasureBatch<F128, ZaatarHarnessBackend<F128>>(
      app, program, /*beta=*/2, PcpParams::Light(), /*seed=*/17,
      /*measure_native=*/false, &*links);
  EXPECT_TRUE(m.all_accepted);
  EXPECT_EQ(m.verdict_counts[static_cast<size_t>(VerifyVerdict::kAccept)], 2u);
}

TEST(HarnessTest, ZaatarProofIsShorterThanGingerAtEqualSize) {
  auto app = MakeLcsApp(4);
  auto program = CompileZlang<F128>(app.source);
  auto z = MeasureZaatarBatch(app, program, 1, PcpParams::Light(), 10, false);
  auto g = MeasureGingerBatch(app, program, 1, PcpParams::Light(), 11, false);
  EXPECT_LT(z.proof_len, g.proof_len);
  // Prover work follows the proof length.
  EXPECT_LT(z.prover.crypto_s, g.prover.crypto_s);
}

TEST(CostModelValidationTest, ZaatarModelTracksMeasurement) {
  // The paper reports empirical costs within 5-15% of the model; our
  // primitives and constants differ, so we only require the model to land
  // within a factor of 4 on the dominant prover phases.
  auto app = MakeLcsApp(8);
  auto program = CompileZlang<F128>(app.source);
  PcpParams params = PcpParams::Light();
  auto m = MeasureZaatarBatch(app, program, 2, params, 12, false);

  // Microbenchmark the primitives as per-primitive medians over interleaved
  // rounds. Under `ctest -j` a single timing loop can be preempted and come
  // out several times too slow, enough to push the prediction past the
  // bound; the median of rounds is robust to that.
  using EG = ElGamal<F128>;
  Prg prg(13);
  auto kp = EG::GenerateKeys(prg);
  auto x = prg.NextField<F128>();
  EG::Ciphertext ct = EG::Encrypt(kp.pk, x, prg);
  constexpr size_t kTerms = 512;
  const std::vector<F128> lhs = prg.NextFieldVector<F128>(kTerms);
  const std::vector<F128> rhs = prg.NextFieldVector<F128>(kTerms);
  constexpr int kRounds = 7;
  std::vector<MicroCosts> rounds(kRounds);
  for (MicroCosts& r : rounds) {
    Stopwatch sw;
    const int kOps = 200;
    for (int i = 0; i < kOps; i++) {
      x *= x;
    }
    r.f = sw.Lap() / kOps;
    for (int i = 0; i < 8; i++) {
      x += F128::DotProduct(lhs.data(), rhs.data(), kTerms);
    }
    r.f_lazy = sw.Lap() / (8.0 * kTerms);
    for (int i = 0; i < 50; i++) {
      x = x.Inverse() + F128::One();
    }
    r.f_div = sw.Lap() / 50;
    for (int i = 0; i < 50; i++) {
      x = prg.NextField<F128>();
    }
    r.c = sw.Lap() / 50;
    for (int i = 0; i < 20; i++) {
      ct = EG::Encrypt(kp.pk, x, prg);
    }
    r.e = sw.Lap() / 20;
    auto acc = ct;
    for (int i = 0; i < 20; i++) {
      acc = acc * ct.Pow(x);
    }
    r.h = sw.Lap() / 20;
    for (int i = 0; i < 20; i++) {
      EG::DecryptToGroup(kp.sk, kp.pk, ct);
    }
    r.d = sw.Lap() / 20;
    // The prover commits through the Pippenger kernel, so the model must use
    // the amortized per-element fold cost, not the naive one (mirrors
    // bench::MeasureMicroCosts).
    const size_t kFold = 128;
    std::vector<EG::Ciphertext> cts(kFold, ct);
    auto scalars = prg.NextFieldVector<F128>(kFold);
    sw.Restart();
    auto folded = EG::InnerProduct(cts.data(), scalars.data(), kFold);
    r.h_amortized = sw.Lap() / static_cast<double>(kFold);
    EXPECT_FALSE(folded.c1.IsZero());
  }
  auto median = [&](double MicroCosts::*field) {
    std::vector<double> v;
    for (const MicroCosts& r : rounds) {
      v.push_back(r.*field);
    }
    std::nth_element(v.begin(), v.begin() + kRounds / 2, v.end());
    return v[kRounds / 2];
  };
  MicroCosts micro;
  micro.f = median(&MicroCosts::f);
  micro.f_lazy = median(&MicroCosts::f_lazy);
  micro.f_div = median(&MicroCosts::f_div);
  micro.c = median(&MicroCosts::c);
  micro.e = median(&MicroCosts::e);
  micro.h = median(&MicroCosts::h);
  micro.d = median(&MicroCosts::d);
  micro.h_amortized = median(&MicroCosts::h_amortized);

  CostModel model(micro, params);
  ComputationStats stats = ComputeStats(program, 1e-6);
  // "Issue responses" covers the homomorphic commitment (h·|u|) plus the
  // per-query dot products — i.e. the crypto + answer phases.
  double predicted = model.ZaatarIssueResponses(stats);
  double measured = m.prover.crypto_s + m.prover.answer_queries_s;
  EXPECT_GT(predicted, measured / 4.0);
  EXPECT_LT(predicted, measured * 4.0);
}

}  // namespace
}  // namespace zaatar
