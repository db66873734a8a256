#include "src/pcp/zaatar_pcp.h"

#include <gtest/gtest.h>

#include "src/constraints/transform.h"
#include "src/field/fields.h"
#include "tests/test_util.h"

namespace zaatar {
namespace {

using F = F128;
using Pcp = ZaatarPcp<F>;

struct Fixture {
  RandomSystem<F> rs;
  ZaatarTransform<F> transform;
  std::vector<F> witness;
  std::vector<F> bound;

  static Fixture Make(Prg& prg) {
    Fixture f;
    f.rs = MakeRandomSatisfiedSystem<F>(prg, 10, 3, 2, 18);
    f.transform = GingerToZaatar(f.rs.system);
    f.witness = f.transform.ExtendAssignment(f.rs.assignment);
    f.bound = f.rs.BoundValues();
    return f;
  }
};

std::pair<std::vector<F>, std::vector<F>> HonestResponses(
    const Pcp::Queries& q, const ZaatarProof<F>& proof) {
  VectorOracle<F> oz(proof.z), oh(proof.h);
  return {oz.QueryAll(q.z_queries), oh.QueryAll(q.h_queries)};
}

TEST(ZaatarPcpTest, CompletenessWithFullParams) {
  Prg prg(80);
  auto f = Fixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto proof = BuildZaatarProof(qap, f.witness);
  auto q = Pcp::GenerateQueries(qap, PcpParams{}, prg);
  auto [rz, rh] = HonestResponses(q, proof);
  EXPECT_TRUE(Pcp::Decide(q, rz, rh, f.bound));
}

TEST(ZaatarPcpTest, QueryCountsMatchTheCostModel) {
  Prg prg(81);
  auto f = Fixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  PcpParams params;
  auto q = Pcp::GenerateQueries(qap, params, prg);
  // Per repetition: 3 rho_lin linearity queries per oracle, plus q_a,q_b,q_c
  // on the z oracle and q_d on the h oracle. l' = 6 rho_lin + 4 total.
  EXPECT_EQ(q.TotalQueryCount(),
            params.rho * params.ZaatarTotalQueries());
  EXPECT_EQ(q.z_queries.size(), params.rho * (3 * params.rho_lin + 3));
  EXPECT_EQ(q.h_queries.size(), params.rho * (3 * params.rho_lin + 1));
  EXPECT_EQ(q.z_len, f.transform.r1cs.layout.num_unbound);
  EXPECT_EQ(q.h_len, f.transform.r1cs.NumConstraints() + 1);
}

TEST(ZaatarPcpTest, RejectsWrongOutput) {
  Prg prg(82);
  auto f = Fixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto proof = BuildZaatarProof(qap, f.witness);
  auto q = Pcp::GenerateQueries(qap, PcpParams::Light(), prg);
  auto [rz, rh] = HonestResponses(q, proof);
  for (size_t k = 0; k < f.bound.size(); k++) {
    auto bad = f.bound;
    bad[k] += F::One();
    EXPECT_FALSE(Pcp::Decide(q, rz, rh, bad)) << "bound value " << k;
  }
}

TEST(ZaatarPcpTest, RejectsBestEffortCheatingProof) {
  // A prover whose witness is wrong in one variable, with H computed as the
  // (inexact) polynomial quotient.
  Prg prg(83);
  auto f = Fixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto q = Pcp::GenerateQueries(qap, PcpParams::Light(), prg);
  for (int trial = 0; trial < 5; trial++) {
    auto bad = f.witness;
    bad[prg.NextBounded(f.transform.r1cs.layout.num_unbound)] +=
        prg.NextNonzeroField<F>();
    auto proof = BuildZaatarProof(qap, bad);
    auto [rz, rh] = HonestResponses(q, proof);
    EXPECT_FALSE(Pcp::Decide(q, rz, rh, f.bound)) << "trial " << trial;
  }
}

TEST(ZaatarPcpTest, RejectsInconsistentOracles) {
  // z from one witness, h from another: individually linear, jointly bogus.
  Prg prg(84);
  auto f = Fixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto good = BuildZaatarProof(qap, f.witness);
  auto bad_w = f.witness;
  bad_w[0] += F::One();
  auto bad = BuildZaatarProof(qap, bad_w);
  auto q = Pcp::GenerateQueries(qap, PcpParams::Light(), prg);
  VectorOracle<F> oz(bad.z), oh(good.h);
  EXPECT_FALSE(
      Pcp::Decide(q, oz.QueryAll(q.z_queries), oh.QueryAll(q.h_queries),
                  f.bound));
}

// A non-linear adversary: answers queries with <q,u> + hash-like noise on a
// fraction of queries. The linearity tests must catch it.
class NoisyOracle : public LinearOracle<F> {
 public:
  NoisyOracle(std::vector<F> u, uint64_t seed) : u_(std::move(u)), prg_(seed) {}
  size_t Size() const override { return u_.size(); }
  F Query(const std::vector<F>& query) const override {
    F honest = F::DotProduct(query.data(), u_.data(), u_.size());
    // Perturb every other query.
    if (count_++ % 2 == 0) {
      return honest + prg_.NextNonzeroField<F>();
    }
    return honest;
  }

 private:
  std::vector<F> u_;
  mutable Prg prg_;
  mutable size_t count_ = 0;
};

TEST(ZaatarPcpTest, LinearityTestsCatchNonLinearOracle) {
  Prg prg(85);
  auto f = Fixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto proof = BuildZaatarProof(qap, f.witness);
  auto q = Pcp::GenerateQueries(qap, PcpParams::Light(), prg);
  NoisyOracle oz(proof.z, 999);
  VectorOracle<F> oh(proof.h);
  EXPECT_FALSE(
      Pcp::Decide(q, oz.QueryAll(q.z_queries), oh.QueryAll(q.h_queries),
                  f.bound));
}

TEST(ZaatarPcpTest, RejectsRandomResponses) {
  Prg prg(86);
  auto f = Fixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto q = Pcp::GenerateQueries(qap, PcpParams::Light(), prg);
  auto rz = prg.NextFieldVector<F>(q.z_queries.size());
  auto rh = prg.NextFieldVector<F>(q.h_queries.size());
  EXPECT_FALSE(Pcp::Decide(q, rz, rh, f.bound));
}

TEST(ZaatarPcpTest, QueriesAreReusableAcrossABatch) {
  // One query set, several instances (different inputs) of the same system
  // shape: here we re-derive systems sharing the constraint structure by
  // keeping the system and varying the witness? The real batch property is
  // exercised end-to-end in argument_test; here we check determinism: same
  // seed -> identical queries.
  Prg prg_a(87), prg_b(87);
  Prg sys_prg(88);
  auto f = Fixture::Make(sys_prg);
  Qap<F> qap(f.transform.r1cs);
  auto qa = Pcp::GenerateQueries(qap, PcpParams::Light(), prg_a);
  auto qb = Pcp::GenerateQueries(qap, PcpParams::Light(), prg_b);
  ASSERT_EQ(qa.z_queries.size(), qb.z_queries.size());
  for (size_t i = 0; i < qa.z_queries.size(); i++) {
    EXPECT_EQ(qa.z_queries[i], qb.z_queries[i]);
  }
}

TEST(ZaatarPcpTest, TauAvoidsInterpolationPoints) {
  Prg prg(89);
  auto f = Fixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto q = Pcp::GenerateQueries(qap, PcpParams{}, prg);
  // Neither the interpolation set {0..m} nor the quotient's S' {m+1..2m+1}.
  for (const auto& rep : q.reps) {
    EXPECT_GT(rep.tau.ToCanonical(),
              typename F::Repr(static_cast<uint64_t>(2 * qap.Degree() + 1)));
  }
}

}  // namespace
}  // namespace zaatar
