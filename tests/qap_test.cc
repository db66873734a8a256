#include "src/constraints/qap.h"

#include <gtest/gtest.h>

#include "src/constraints/transform.h"
#include "src/field/fields.h"
#include "src/pcp/zaatar_pcp.h"
#include "tests/test_util.h"

namespace zaatar {
namespace {

using F = F128;

// The Lagrange basis of S' = {m+1..2m+1} at t, straight from the product
// formula: O(m^2), independent of the barycentric fast path.
template <typename Fd>
std::vector<Fd> NaiveShiftBasis(size_t m, const Fd& t) {
  std::vector<Fd> out(m + 1);
  for (size_t k = 0; k <= m; k++) {
    Fd num = Fd::One(), den = Fd::One();
    for (size_t i = 0; i <= m; i++) {
      if (i != k) {
        num *= t - Fd::FromUint(m + 1 + i);
        den *= Fd::FromUint(m + 1 + k) - Fd::FromUint(m + 1 + i);
      }
    }
    out[k] = num * den.Inverse();
  }
  return out;
}

// The polynomial of degree <= m whose values on S' are h, evaluated at t.
template <typename Fd>
Fd EvaluateOnShift(const std::vector<Fd>& h, const Fd& t) {
  std::vector<Fd> basis = NaiveShiftBasis(h.size() - 1, t);
  Fd acc = Fd::Zero();
  for (size_t k = 0; k < h.size(); k++) {
    acc += h[k] * basis[k];
  }
  return acc;
}

// P_w(s_k) / D(s_k) on S' for any assignment, with A, B, C built by naive
// Lagrange interpolation through (j, A(j)) for j = 0..m.
template <typename Fd>
std::vector<Fd> NaiveQuotientOnShift(const R1cs<Fd>& cs,
                                     const std::vector<Fd>& w) {
  const size_t m = cs.NumConstraints();
  std::vector<Fd> points(m + 1), ea(m + 1, Fd::Zero()), eb(m + 1, Fd::Zero()),
      ec(m + 1, Fd::Zero());
  for (size_t j = 0; j <= m; j++) {
    points[j] = Fd::FromUint(j);
  }
  for (size_t j = 0; j < m; j++) {
    ea[j + 1] = cs.constraints[j].a.Evaluate(w);
    eb[j + 1] = cs.constraints[j].b.Evaluate(w);
    ec[j + 1] = cs.constraints[j].c.Evaluate(w);
  }
  Polynomial<Fd> pw = InterpolateNaive(points, ea) *
                          InterpolateNaive(points, eb) -
                      InterpolateNaive(points, ec);
  std::vector<Fd> out(m + 1);
  for (size_t k = 0; k <= m; k++) {
    Fd s = Fd::FromUint(m + 1 + k);
    Fd d = Fd::One();
    for (size_t j = 1; j <= m; j++) {
      d *= s - Fd::FromUint(j);
    }
    out[k] = pw.Evaluate(s) * d.Inverse();
  }
  return out;
}

struct QapFixture {
  RandomSystem<F> rs;
  ZaatarTransform<F> transform;
  std::vector<F> witness;

  static QapFixture Make(Prg& prg, size_t num_unbound = 8,
                         size_t num_constraints = 15) {
    QapFixture f;
    f.rs = MakeRandomSatisfiedSystem<F>(prg, num_unbound, 3, 2,
                                        num_constraints);
    f.transform = GingerToZaatar(f.rs.system);
    f.witness = f.transform.ExtendAssignment(f.rs.assignment);
    return f;
  }
};

TEST(QapTest, HDividesExactlyForSatisfyingAssignment) {
  Prg prg(70);
  auto f = QapFixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto hr = qap.ComputeH(f.witness);
  EXPECT_TRUE(hr.exact);
  EXPECT_EQ(hr.h.size(), qap.Degree() + 1);
  // H(0) = 0 because P_w vanishes at the extra interpolation point 0: the
  // values on S' must extrapolate to zero there.
  EXPECT_TRUE(EvaluateOnShift(hr.h, F::Zero()).IsZero());
}

TEST(QapTest, HDoesNotDivideForBadAssignment) {
  Prg prg(71);
  auto f = QapFixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  for (int trial = 0; trial < 5; trial++) {
    auto bad = f.witness;
    bad[prg.NextBounded(f.transform.r1cs.layout.num_unbound)] +=
        prg.NextNonzeroField<F>();
    if (f.transform.r1cs.IsSatisfied(bad)) {
      continue;  // astronomically unlikely
    }
    EXPECT_FALSE(qap.ComputeH(bad).exact);
  }
}

// The core verifier identity: D(tau)·H(tau) = A(tau)·B(tau) - C(tau), where
// H(tau) comes from h through S''s Lagrange basis at tau (the verifier's
// q_d) and the right side is assembled from the evaluation rows and the
// witness.
TEST(QapTest, DivisibilityIdentityAtRandomPoints) {
  Prg prg(72);
  auto f = QapFixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto hr = qap.ComputeH(f.witness);
  for (int trial = 0; trial < 5; trial++) {
    F tau = prg.NextField<F>();
    auto ev_or = qap.EvaluateAtTau(tau);
    ASSERT_TRUE(ev_or.ok()) << ev_or.status().ToString();
    const auto& ev = *ev_or;
    ASSERT_EQ(ev.h_basis.size(), hr.h.size());
    F h_tau = F::Zero();
    for (size_t k = 0; k < hr.h.size(); k++) {
      h_tau += hr.h[k] * ev.h_basis[k];
    }
    F a = ev.a_rows[0], b = ev.b_rows[0], c = ev.c_rows[0];
    for (size_t i = 0; i < f.witness.size(); i++) {
      a += ev.a_rows[i + 1] * f.witness[i];
      b += ev.b_rows[i + 1] * f.witness[i];
      c += ev.c_rows[i + 1] * f.witness[i];
    }
    EXPECT_EQ(ev.d_tau * h_tau, a * b - c);
  }
}

TEST(QapTest, EvaluationRowsMatchDirectInterpolation) {
  // Cross-check the barycentric fast path against naive Lagrange for one
  // variable's polynomial A_i(t).
  Prg prg(73);
  auto f = QapFixture::Make(prg, /*num_unbound=*/4, /*num_constraints=*/6);
  Qap<F> qap(f.transform.r1cs);
  const auto& cs = f.transform.r1cs;
  size_t m = cs.NumConstraints();
  F tau = prg.NextField<F>();
  auto ev_or = qap.EvaluateAtTau(tau);
  ASSERT_TRUE(ev_or.ok()) << ev_or.status().ToString();
  const auto& ev = *ev_or;

  // Build A_i(t) for every row by naive interpolation through
  // (0,0),(j, a_{i,j}).
  std::vector<F> points(m + 1);
  for (size_t k = 0; k <= m; k++) {
    points[k] = F::FromUint(k);
  }
  size_t rows = cs.NumVariables() + 1;
  for (size_t row = 0; row < rows; row++) {
    std::vector<F> values(m + 1, F::Zero());
    for (size_t j = 0; j < m; j++) {
      const auto& lc = cs.constraints[j].a;
      if (row == 0) {
        values[j + 1] = lc.constant();
      } else {
        for (const auto& [v, coeff] : lc.terms()) {
          if (v + 1 == row) {
            values[j + 1] += coeff;
          }
        }
      }
    }
    Polynomial<F> ai = InterpolateNaive(points, values);
    EXPECT_EQ(ai.Evaluate(tau), ev.a_rows[row]) << "row " << row;
  }
}

TEST(QapTest, DTauMatchesExplicitProduct) {
  Prg prg(74);
  auto f = QapFixture::Make(prg, 4, 7);
  Qap<F> qap(f.transform.r1cs);
  F tau = prg.NextField<F>();
  auto ev_or = qap.EvaluateAtTau(tau);
  ASSERT_TRUE(ev_or.ok()) << ev_or.status().ToString();
  const auto& ev = *ev_or;
  F expect = F::One();
  for (size_t j = 1; j <= qap.Degree(); j++) {
    expect *= tau - F::FromUint(j);
  }
  EXPECT_EQ(ev.d_tau, expect);
}

TEST(QapTest, SingleConstraintSystem) {
  // Minimal QAP: one constraint x*y = z.
  R1cs<F> cs;
  cs.layout = {3, 0, 0};
  R1csConstraint<F> c;
  c.a = LinearCombination<F>::Variable(0);
  c.b = LinearCombination<F>::Variable(1);
  c.c = LinearCombination<F>::Variable(2);
  cs.constraints.push_back(c);
  Qap<F> qap(cs);
  std::vector<F> w = {F::FromUint(5), F::FromUint(8), F::FromUint(40)};
  EXPECT_TRUE(qap.ComputeH(w).exact);
  w[2] = F::FromUint(41);
  EXPECT_FALSE(qap.ComputeH(w).exact);
}

// Regression for the NDEBUG-unsafe assert this used to be: evaluating at a
// point inside the interpolation set {0..m} must come back as a typed
// kOutOfRange error, not a release-mode division by zero in the barycentric
// weights. (GenerateQueries resamples tau on this error.)
TEST(QapTest, EvaluateAtTauRejectsInterpolationPoints) {
  Prg prg(76);
  auto f = QapFixture::Make(prg, 4, 7);
  Qap<F> qap(f.transform.r1cs);
  for (size_t k = 0; k <= qap.Degree(); k++) {
    auto ev_or = qap.EvaluateAtTau(F::FromUint(k));
    ASSERT_FALSE(ev_or.ok()) << "tau = " << k << " is an interpolation point";
    EXPECT_EQ(ev_or.status().code(), StatusCode::kOutOfRange);
  }
  // The first point outside both the interpolation set and S' is fine.
  EXPECT_TRUE(qap.EvaluateAtTau(F::FromUint(2 * qap.Degree() + 2)).ok());
}

// The quotient's points S' = {m+1..2m+1} collide just as badly: the S'
// Lagrange basis would batch-invert a zero there.
TEST(QapTest, EvaluateAtTauRejectsQuotientPoints) {
  Prg prg(77);
  auto f = QapFixture::Make(prg, 4, 7);
  Qap<F> qap(f.transform.r1cs);
  const size_t m = qap.Degree();
  for (size_t k = m + 1; k <= 2 * m + 1; k++) {
    auto ev_or = qap.EvaluateAtTau(F::FromUint(k));
    ASSERT_FALSE(ev_or.ok()) << "tau = " << k << " is a point of S'";
    EXPECT_EQ(ev_or.status().code(), StatusCode::kOutOfRange);
  }
}

// q_d (unblinded) is S''s Lagrange basis at the repetition's tau.
TEST(QapTest, DivisibilityQueryIsShiftLagrangeBasis) {
  Prg prg(78);
  auto f = QapFixture::Make(prg, 4, 9);
  Qap<F> qap(f.transform.r1cs);
  auto q = ZaatarPcp<F>::GenerateQueries(qap, PcpParams::Light(), prg);
  ASSERT_FALSE(q.reps.empty());
  for (const auto& rep : q.reps) {
    const auto& qd = q.h_queries[rep.qd];
    const auto& blind = q.h_queries[rep.blind_h];
    std::vector<F> want = NaiveShiftBasis(qap.Degree(), rep.tau);
    ASSERT_EQ(qd.size(), want.size());
    for (size_t k = 0; k < want.size(); k++) {
      EXPECT_EQ(qd[k] - blind[k], want[k]) << "k = " << k;
    }
  }
}

// ComputeH against the coefficient-form references, element for element.
// For a satisfying assignment h must be ComputeHNaive's quotient evaluated
// on S'; for perturbed, random and zero assignments (where no polynomial
// quotient exists) it must be P_w(s)/D(s) from naive-interpolated A, B, C.
// The exact flag must agree with ComputeHNaive's remainder test throughout.
template <typename Fd>
void CheckComputeHDifferential(uint64_t seed, size_t num_constraints) {
  Prg prg(seed);
  auto rs = MakeRandomSatisfiedSystem<Fd>(prg, 8, 3, 2, num_constraints);
  auto transform = GingerToZaatar(rs.system);
  auto witness = transform.ExtendAssignment(rs.assignment);
  Qap<Fd> qap(transform.r1cs);
  const size_t m = qap.Degree();
  SCOPED_TRACE(testing::Message() << "m = " << m);

  auto fast = qap.ComputeH(witness);
  auto slow = qap.ComputeHNaive(witness);
  EXPECT_TRUE(fast.exact);
  EXPECT_EQ(fast.exact, slow.exact);
  Polynomial<Fd> quotient(slow.h);
  ASSERT_EQ(fast.h.size(), m + 1);
  for (size_t k = 0; k <= m; k++) {
    EXPECT_EQ(fast.h[k], quotient.Evaluate(Fd::FromUint(m + 1 + k)))
        << "k = " << k;
  }

  auto bad = witness;
  bad[prg.NextBounded(transform.r1cs.layout.num_unbound)] +=
      prg.NextNonzeroField<Fd>();
  if (!transform.r1cs.IsSatisfied(bad)) {
    auto fast_bad = qap.ComputeH(bad);
    EXPECT_FALSE(fast_bad.exact);
    EXPECT_EQ(fast_bad.exact, qap.ComputeHNaive(bad).exact);
    EXPECT_EQ(fast_bad.h, NaiveQuotientOnShift(transform.r1cs, bad));
  }

  auto random_w = prg.NextFieldVector<Fd>(witness.size());
  auto fast_r = qap.ComputeH(random_w);
  EXPECT_EQ(fast_r.exact, qap.ComputeHNaive(random_w).exact);
  EXPECT_EQ(fast_r.h, NaiveQuotientOnShift(transform.r1cs, random_w));

  std::vector<Fd> zero_w(witness.size(), Fd::Zero());
  EXPECT_EQ(qap.ComputeH(zero_w).h,
            NaiveQuotientOnShift(transform.r1cs, zero_w));
}

TEST(QapTest, ComputeHMatchesNaiveF128) {
  uint64_t seed = 80;
  for (size_t nc : {1, 2, 5, 15, 33, 60}) {
    CheckComputeHDifferential<F128>(seed++, nc);
  }
}

TEST(QapTest, ComputeHMatchesNaiveF220) {
  uint64_t seed = 90;
  for (size_t nc : {5, 33}) {
    CheckComputeHDifferential<F220>(seed++, nc);
  }
}

TEST(QapTest, ProofVectorLengthIsLinear) {
  // |u| = |Z| + |C| + 1: the paper's headline claim about the encoding.
  Prg prg(75);
  auto f = QapFixture::Make(prg, 16, 30);
  Qap<F> qap(f.transform.r1cs);
  auto hr = qap.ComputeH(f.witness);
  size_t proof_len = f.transform.r1cs.layout.num_unbound + hr.h.size();
  EXPECT_EQ(proof_len, f.transform.r1cs.layout.num_unbound +
                           f.transform.r1cs.NumConstraints() + 1);
}

}  // namespace
}  // namespace zaatar
