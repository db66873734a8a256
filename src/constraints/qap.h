// Quadratic Arithmetic Program encoding of a quadratic-form constraint set
// (paper Appendix A.1, after Gennaro et al.).
//
// Interpolation points: sigma_j = j for j = 1..|C| (the arithmetic
// progression that enables the incremental barycentric weights of Appendix
// A.3), plus the extra point 0 at which every A_i/B_i/C_i vanishes.
//
// The proof vector h encodes H(t) = P_w(t)/D(t) by its values on the shifted
// progression S' = {m+1, .., 2m+1} (m = |C|), not by its coefficients: the
// linear PCP only needs some fixed linear encoding of H, and this one lets
// the prover skip interpolation and division altogether.
//
//   - Prover side: ComputeH moves A(t) = sum_i w_i A_i(t) (and B, C) from
//     their values on {0..m} to their values on S' with one middle product
//     each against a cached kernel (Bostan, Gaudry & Schost 2007), then sets
//     h[k] = (A·B - C)(s_k) / D(s_k) pointwise. Cost ~ 3 NTT products of
//     length 2|C|.
//   - Verifier side: EvaluateAtTau computes {A_i(tau)}, {B_i(tau)},
//     {C_i(tau)} for all rows i (row 0 = constant term), D(tau), and S''s
//     Lagrange basis at tau (so that H(tau) = <h, basis>) with barycentric
//     Lagrange evaluation, in O(|C| + nnz) field operations plus one batched
//     inversion.

#ifndef SRC_CONSTRAINTS_QAP_H_
#define SRC_CONSTRAINTS_QAP_H_

#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "src/constraints/r1cs.h"
#include "src/obs/trace.h"
#include "src/poly/algorithms.h"
#include "src/poly/residue.h"
#include "src/util/status.h"

namespace zaatar {

template <typename F>
class Qap {
 public:
  explicit Qap(const R1cs<F>& cs) : cs_(&cs) {}

  const R1cs<F>& constraint_system() const { return *cs_; }
  size_t Degree() const { return cs_->NumConstraints(); }

  // The divisor polynomial D(t) = prod_{j=1..|C|} (t - j), materialized from
  // the subproduct tree. Static analysis checks deg D == |C| against the
  // constraint system instead of trusting the Degree() definition.
  Polynomial<F> Divisor() const { return Tree().Root().ShiftDown(1); }

  // ----- Prover -----

  struct HResult {
    std::vector<F> h;  // H(m+1+k) for k = 0..|C|: H's values on S'
    bool exact;        // true iff D(t) divides P_w(t) (i.e. the assignment
                       // satisfies the constraints)
  };

  // Computes h[k] = P_w(s_k) / D(s_k) on S' for the given full assignment.
  // For a satisfying assignment these are the values of the quotient
  // polynomial H(t) = P_w(t)/D(t). For any other assignment `exact` is false
  // and h holds the same pointwise ratios; the polynomial through them times
  // D then differs from P_w, so the verifier's divisibility check rejects it
  // with high probability (tests build cheating provers from it).
  //
  // A, B, C reach S' through ShiftValues (one middle product each); D(s_k)
  // is a cached table. Exactness is read off the evaluations: D | P_w iff
  // P_w vanishes at every point j, i.e. A(j)·B(j) = C(j) for j = 1..m.
  // tests/qap_test.cc checks the output against the coefficient-form
  // ComputeHNaive evaluated on S'.
  HResult ComputeH(const std::vector<F>& assignment) const {
    obs::Span span("qap.compute_h");
    const size_t m = Degree();
    const ProverTables& tables = Prover();

    std::vector<F> ea(m + 1, F::Zero()), eb(m + 1, F::Zero()),
        ec(m + 1, F::Zero());
    HResult out;
    out.exact = true;
    for (size_t j = 0; j < m; j++) {
      const auto& c = cs_->constraints[j];
      ea[j + 1] = c.a.Evaluate(assignment);
      eb[j + 1] = c.b.Evaluate(assignment);
      ec[j + 1] = c.c.Evaluate(assignment);
      if (ea[j + 1] * eb[j + 1] != ec[j + 1]) {
        out.exact = false;
      }
    }

    std::vector<F> sa, sb, sc;
    {
      obs::Span shift("qap.shift");
      sa = ShiftValues(ea);
      sb = ShiftValues(eb);
      sc = ShiftValues(ec);
    }
    {
      obs::Span pointwise("qap.pointwise");
      out.h.resize(m + 1);
      for (size_t k = 0; k <= m; k++) {
        out.h[k] = (sa[k] * sb[k] - sc[k]) * tables.inv_d[k];
      }
    }
    return out;
  }

  // Given the values of a polynomial f of degree <= m at 0..m, returns its
  // values at s_k = m+1+k for k = 0..m. Lagrange over {0..m} gives
  //   f(s_k) = l(s_k) · sum_j (f(j)·w_j) / (s_k - j),
  // with w_j = (-1)^{m-j} / (j!·(m-j)!) and l(s_k) = (m+1+k)!/k!; the sum is
  // coefficient m+k of the product of (f(j)·w_j)_j with the kernel
  // 1/(i+1), i = 0..2m. Only coefficients m..2m are read, so a cyclic
  // transform of size >= 2m+1 suffices (wrap-around lands below index m).
  std::vector<F> ShiftValues(const std::vector<F>& values) const {
    const size_t m = Degree();
    assert(values.size() == m + 1);
    const ProverTables& tables = Prover();
    const size_t workers = PolyWorkers();
    std::vector<F> u(m + 1);
    for (size_t j = 0; j <= m; j++) {
      u[j] = values[j] * tables.weights[j];
    }
    std::vector<F> out =
        ResiduePoly<F>::MulImages(
            ResiduePoly<F>::FromCoefficients(u.data(), m + 1, *tables.basis,
                                             workers),
            tables.kernel, /*lo=*/m, /*count=*/m + 1, workers)
            .ToCoefficients(workers);
    for (size_t k = 0; k <= m; k++) {
      out[k] *= tables.scale[k];
    }
    return out;
  }

  // The coefficient-form pipeline of the paper's Appendix A.3: interpolate
  // A, B, C over the subproduct tree, multiply, divide by D(t) with
  // DivRem, read exactness off the remainder. `h` holds the |C|+1
  // coefficients of the polynomial quotient, low degree first. Kept as the
  // paper-faithful Figure 5 column and as the differential oracle: for a
  // satisfying assignment these coefficients, evaluated on S', must equal
  // ComputeH's h.
  HResult ComputeHNaive(const std::vector<F>& assignment) const {
    obs::Span span("qap.compute_h_naive");
    const size_t m = Degree();
    const SubproductTree<F>& tree = Tree();

    std::vector<F> ea(m + 1, F::Zero()), eb(m + 1, F::Zero()),
        ec(m + 1, F::Zero());
    for (size_t j = 0; j < m; j++) {
      const auto& c = cs_->constraints[j];
      ea[j + 1] = c.a.Evaluate(assignment);
      eb[j + 1] = c.b.Evaluate(assignment);
      ec[j + 1] = c.c.Evaluate(assignment);
    }
    Polynomial<F> pa = tree.Interpolate(ea);
    Polynomial<F> pb = tree.Interpolate(eb);
    Polynomial<F> pc = tree.Interpolate(ec);
    Polynomial<F> pw = pa * pb - pc;

    // D(t) = Root()/t since the point set is {0, 1, .., m}.
    Polynomial<F> d = tree.Root().ShiftDown(1);
    auto [q, r] = DivRem(pw, d);

    HResult out;
    out.exact = r.IsZero();
    out.h.assign(m + 1, F::Zero());
    for (size_t i = 0; i < q.CoefficientCount() && i <= m; i++) {
      out.h[i] = q[i];
    }
    return out;
  }

  // Per-Psi prover tables for the shift, built once per Qap and reused
  // across every instance of a batch. Public so the static analyzer can
  // probe them (src/analysis/pipeline_rules.h).
  struct ProverTables {
    const CrtBasis<F>* basis = nullptr;  // holds a product of two canonical
                                         // vectors of length m+1 exactly
    std::vector<F> weights;  // w_j = (-1)^{m-j} / (j!·(m-j)!), j = 0..m
    NttImages kernel;        // forward images of 1/(i+1), i = 0..2m
    std::vector<F> scale;    // l(s_k) = (m+1+k)!/k!, k = 0..m
    std::vector<F> inv_d;    // 1/D(s_k) = k!/(m+k)!, k = 0..m
  };

  // All tables are factorial ratios over 0..2m+1 (one field inversion), plus
  // one forward transform of the kernel. Requires the field characteristic
  // to exceed 2m+1, which every supported field does by a wide margin.
  const ProverTables& Prover() const {
    if (prover_ == nullptr) {
      const size_t m = Degree();
      const size_t workers = PolyWorkers();
      std::vector<F> fact(2 * m + 2), inv_fact(2 * m + 2);
      fact[0] = F::One();
      for (size_t i = 1; i < fact.size(); i++) {
        fact[i] = fact[i - 1] * F::FromUint(i);
      }
      inv_fact.back() = fact.back().Inverse();
      for (size_t i = fact.size() - 1; i > 0; i--) {
        inv_fact[i - 1] = inv_fact[i] * F::FromUint(i);
      }
      auto t = std::make_unique<ProverTables>();
      t->weights.resize(m + 1);
      t->scale.resize(m + 1);
      t->inv_d.resize(m + 1);
      for (size_t j = 0; j <= m; j++) {
        F w = inv_fact[j] * inv_fact[m - j];
        t->weights[j] = (m - j) % 2 == 0 ? w : -w;
        t->scale[j] = fact[m + 1 + j] * inv_fact[j];
        t->inv_d[j] = fact[j] * inv_fact[m + j];
      }
      std::vector<F> kernel(2 * m + 1);
      for (size_t i = 0; i < kernel.size(); i++) {
        kernel[i] = fact[i] * inv_fact[i + 1];
      }
      t->basis = &CrtBasis<F>::Get(
          CrtBasisSizeForBound(2 * F::kModulusBits + CeilLog2(m + 1)));
      t->kernel = ResiduePoly<F>::FromCoefficients(kernel.data(), kernel.size(),
                                                   *t->basis, workers)
                      .ForwardImages(CeilLog2(kernel.size()), workers);
      prover_ = std::move(t);
    }
    return *prover_;
  }

  // Builds the lazily-cached prover tables so batch pipelines pay the
  // one-time setup outside the per-instance loop (and outside the
  // per-instance ParallelFor, keeping the lazy cache single-threaded).
  void WarmProver() const { Prover(); }

  // ----- Verifier -----

  struct Evaluation {
    // Row i+1 corresponds to variable i; row 0 is the constant term.
    std::vector<F> a_rows;
    std::vector<F> b_rows;
    std::vector<F> c_rows;
    F d_tau;
    // S''s Lagrange basis at tau, so that H(tau) = sum_k h[k]·h_basis[k]
    // for ComputeH's h: the verifier's divisibility query q_d.
    std::vector<F> h_basis;
  };

  // Requires tau outside {0, 1, ..., 2|C|+1}, the union of the interpolation
  // set {0..|C|} and S': a colliding tau would batch-invert a zero and
  // poison every barycentric weight, so it is rejected with a typed error
  // instead (callers resample; the collision probability for a uniform tau
  // is (2|C|+2)/|F|).
  StatusOr<Evaluation> EvaluateAtTau(const F& tau) const {
    obs::Span span("qap.evaluate_at_tau");
    const size_t m = Degree();
    const size_t rows = cs_->NumVariables() + 1;

    // Barycentric pieces over points 0..m and over S' = {m+1..2m+1}:
    //   ell(tau)  = prod_{k <= m} (tau - k)
    //   ell'(tau) = prod_{k = m+1..2m+1} (tau - k)
    //   1/v_j     = prod_{k != j} (j - k) over {0..m}, built incrementally:
    //               1/v_{j+1} = 1/v_j · (j+1) / (j - m)
    //   c_j       = ell(tau) · v_j / (tau - j)
    //   L_j       = ell'(tau) · v_j / (tau - (m+1+j))
    // S' is {0..m} shifted by m+1, so both sets share the weights v_j. We
    // batch-invert the products (1/v_j)·(tau - point) over both sets to get
    // every c_j and L_j with a single field inversion.
    std::vector<F> diff(2 * m + 2);
    F ell = F::One();
    F ell_s = F::One();
    for (size_t k = 0; k < diff.size(); k++) {
      diff[k] = tau - F::FromUint(k);
      if (diff[k].IsZero()) {
        return OutOfRangeError(
            "tau collides with point " + std::to_string(k) +
            " of the QAP point set {0.." + std::to_string(m) +
            "} or of the quotient's point set {" + std::to_string(m + 1) +
            ".." + std::to_string(2 * m + 1) + "}");
      }
      (k <= m ? ell : ell_s) *= diff[k];
    }

    // inverses of 1..m for the incremental weight recurrence
    std::vector<F> small_inv(m + 1);
    for (size_t k = 1; k <= m; k++) {
      small_inv[k] = F::FromUint(k);
    }
    BatchInvert(small_inv.data() + 1, m);

    // Slot 2m+2 carries diff[0] so D(tau)'s inversion rides the same batch
    // instead of paying its own Fermat walk below.
    std::vector<F> denom(2 * m + 3);  // (1/v_j)·(tau - point)
    F iv = F::One();                  // 1/v_0 = (-1)^m · m!
    for (size_t k = 1; k <= m; k++) {
      iv *= -F::FromUint(k);
    }
    for (size_t j = 0; j <= m; j++) {
      denom[j] = iv * diff[j];
      denom[m + 1 + j] = iv * diff[m + 1 + j];
      if (j < m) {
        // 1/v_{j+1} = 1/v_j · (j+1) / (j - m) = -1/v_j · (j+1) · inv(m-j)
        iv = -(iv * F::FromUint(j + 1) * small_inv[m - j]);
      }
    }
    denom[2 * m + 2] = diff[0];
    BatchInvert(denom.data(), 2 * m + 3);
    std::vector<F> cj(m + 1);
    Evaluation ev;
    ev.h_basis.resize(m + 1);
    for (size_t j = 0; j <= m; j++) {
      cj[j] = ell * denom[j];
      ev.h_basis[j] = ell_s * denom[m + 1 + j];
    }

    ev.a_rows.assign(rows, F::Zero());
    ev.b_rows.assign(rows, F::Zero());
    ev.c_rows.assign(rows, F::Zero());
    // All polynomials vanish at point 0, so only j = 1..m contribute.
    for (size_t j = 0; j < m; j++) {
      const auto& c = cs_->constraints[j];
      const F& w = cj[j + 1];
      Accumulate(c.a, w, &ev.a_rows);
      Accumulate(c.b, w, &ev.b_rows);
      Accumulate(c.c, w, &ev.c_rows);
    }
    // D(tau) = ell(tau) / (tau - 0), with 1/(tau - 0) from the batch above.
    ev.d_tau = ell * denom[2 * m + 2];
    return ev;
  }

 private:
  static void Accumulate(const LinearCombination<F>& lc, const F& w,
                         std::vector<F>* rows) {
    (*rows)[0] += lc.constant() * w;
    for (const auto& [v, coeff] : lc.terms()) {
      (*rows)[v + 1] += coeff * w;
    }
  }

  const SubproductTree<F>& Tree() const {
    if (tree_ == nullptr) {
      std::vector<F> points(Degree() + 1);
      for (size_t k = 0; k < points.size(); k++) {
        points[k] = F::FromUint(k);
      }
      tree_ = std::make_unique<SubproductTree<F>>(std::move(points));
    }
    return *tree_;
  }

  const R1cs<F>* cs_;
  mutable std::unique_ptr<SubproductTree<F>> tree_;
  mutable std::unique_ptr<ProverTables> prover_;
};

}  // namespace zaatar

#endif  // SRC_CONSTRAINTS_QAP_H_
