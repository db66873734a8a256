// Cross-layer pipeline rules: Ginger->Zaatar transform bookkeeping (ZL012)
// and QAP shape invariants (ZL020).
//
// These rules re-derive the invariants the downstream protocol silently
// relies on instead of trusting the producing code: the transform's
// |Z'| = |Z| + K2 / |C'| = |C| + K2 accounting and the structural shape of
// its product rows, and — at the QAP layer — that the divisor polynomial
// D(t) = prod_{j=1..|C|} (t - j) really is the degree-|C| monic polynomial
// the divisibility argument (paper Appendix A.1) assumes, that the
// verifier-side evaluation produces one row per variable plus the constant
// row, and that the prover's cached shift tables satisfy their defining
// identities.

#ifndef SRC_ANALYSIS_PIPELINE_RULES_H_
#define SRC_ANALYSIS_PIPELINE_RULES_H_

#include <algorithm>
#include <string>
#include <vector>

#include "src/analysis/finding.h"
#include "src/analysis/rules.h"
#include "src/constraints/ginger.h"
#include "src/constraints/qap.h"
#include "src/constraints/transform.h"
#include "src/crypto/prg.h"
#include "src/poly/algorithms.h"

namespace zaatar {

// Checks a transform result against the Ginger system it came from.
template <typename F>
void CheckTransform(const GingerSystem<F>& g, const ZaatarTransform<F>& t,
                    AnalysisReport* report) {
  AnalysisLocation loc;
  loc.layer = AnalysisLayer::kTransform;
  const size_t k2 = t.products.size();

  if (t.ginger_num_unbound != g.layout.num_unbound) {
    report->Add(Severity::kError, kRuleTransformMismatch, loc,
                "transform recorded |Z_ginger| = " +
                    std::to_string(t.ginger_num_unbound) + " but the source "
                    "system has " + std::to_string(g.layout.num_unbound));
  }
  if (t.r1cs.layout.num_unbound != g.layout.num_unbound + k2) {
    report->Add(Severity::kError, kRuleTransformMismatch, loc,
                "layout bookkeeping broken: |Z_zaatar| = " +
                    std::to_string(t.r1cs.layout.num_unbound) +
                    " != |Z_ginger| + K2 = " +
                    std::to_string(g.layout.num_unbound + k2));
  }
  if (t.r1cs.layout.num_inputs != g.layout.num_inputs ||
      t.r1cs.layout.num_outputs != g.layout.num_outputs) {
    report->Add(Severity::kError, kRuleTransformMismatch, loc,
                "transform changed the input/output counts");
  }
  if (t.r1cs.NumConstraints() != g.NumConstraints() + k2) {
    report->Add(Severity::kError, kRuleTransformMismatch, loc,
                "|C_zaatar| = " + std::to_string(t.r1cs.NumConstraints()) +
                    " != |C_ginger| + K2 = " +
                    std::to_string(g.NumConstraints() + k2));
    return;  // product-row positions below assume the count invariant
  }
  if (!t.r1cs.source_lines.empty() &&
      t.r1cs.source_lines.size() != t.r1cs.NumConstraints()) {
    report->Add(Severity::kError, kRuleTransformMismatch, loc,
                "source-line table length does not match the constraint "
                "count");
  }

  // Product rows: constraint |C_ginger| + i must read
  //   (w_{remap(a_i)}) · (w_{remap(b_i)}) = w_aux_i
  // with aux_i landing inside the appended auxiliary region of Z.
  auto is_bare_var = [](const LinearCombination<F>& lc, uint32_t v) {
    return lc.TermCount() == 1 && lc.constant().IsZero() &&
           lc.terms()[0].first == v && lc.terms()[0].second.IsOne();
  };
  for (size_t i = 0; i < k2; i++) {
    const size_t j = g.NumConstraints() + i;
    const R1csConstraint<F>& rc = t.r1cs.constraints[j];
    AnalysisLocation ploc = loc;
    ploc.constraint = static_cast<long>(j);
    const uint32_t aux = static_cast<uint32_t>(g.layout.num_unbound + i);
    if (t.products[i].first >= g.layout.Total() ||
        t.products[i].second >= g.layout.Total()) {
      report->Add(Severity::kError, kRuleTransformMismatch, ploc,
                  "product table entry references a variable outside the "
                  "Ginger layout");
      continue;
    }
    if (!is_bare_var(rc.a, t.Remap(t.products[i].first)) ||
        !is_bare_var(rc.b, t.Remap(t.products[i].second)) ||
        !is_bare_var(rc.c, aux)) {
      report->Add(Severity::kError, kRuleTransformMismatch, ploc,
                  "product row #" + std::to_string(i) +
                      " does not have the shape w_a · w_b = aux_i");
    }
  }
}

// QAP shape invariants, checked against the constraint system the QAP wraps.
// `tau_probe` controls whether EvaluateAtTau is exercised (it materializes
// O(|variables|) rows; cheap, but callers analyzing many programs may skip
// it).
template <typename F>
void CheckQapShape(const Qap<F>& qap, AnalysisReport* report,
                   bool tau_probe = true) {
  AnalysisLocation loc;
  loc.layer = AnalysisLayer::kQap;
  const R1cs<F>& cs = qap.constraint_system();
  const size_t m = cs.NumConstraints();

  if (qap.Degree() != m) {
    report->Add(Severity::kError, kRuleQapShape, loc,
                "QAP degree " + std::to_string(qap.Degree()) +
                    " does not match the constraint count " +
                    std::to_string(m));
  }

  // D(t) = prod_{j=1..m} (t - j): monic of degree m, vanishing at each
  // interpolation point and equal to (-1)^m · m! at zero.
  Polynomial<F> d = qap.Divisor();
  if (d.Degree() != static_cast<long>(m)) {
    report->Add(Severity::kError, kRuleQapShape, loc,
                "divisor polynomial has degree " + std::to_string(d.Degree()) +
                    ", expected |C| = " + std::to_string(m));
  } else if (!d.LeadingCoefficient().IsOne()) {
    report->Add(Severity::kError, kRuleQapShape, loc,
                "divisor polynomial is not monic");
  } else {
    F expect_at_zero = F::One();
    for (size_t j = 1; j <= m; j++) {
      expect_at_zero *= -F::FromUint(j);
    }
    if (d.Evaluate(F::Zero()) != expect_at_zero) {
      report->Add(Severity::kError, kRuleQapShape, loc,
                  "divisor polynomial disagrees with prod (t - j) at t = 0");
    }
  }

  if (tau_probe && m > 0) {
    // Any point outside {0..2m+1} (the interpolation set and the quotient's
    // point set S') is a valid probe; 2m+2 is deterministic.
    const F tau = F::FromUint(2 * m + 2);
    auto ev_or = qap.EvaluateAtTau(tau);
    if (!ev_or.ok()) {
      report->Add(Severity::kError, kRuleQapShape, loc,
                  "EvaluateAtTau rejected a probe point outside "
                  "{0..2|C|+1}: " +
                      ev_or.status().ToString());
      return;
    }
    const auto& ev = *ev_or;
    const size_t rows = cs.NumVariables() + 1;
    if (ev.a_rows.size() != rows || ev.b_rows.size() != rows ||
        ev.c_rows.size() != rows) {
      report->Add(Severity::kError, kRuleQapShape, loc,
                  "EvaluateAtTau produced " + std::to_string(ev.a_rows.size()) +
                      " rows, expected |variables| + 1 = " +
                      std::to_string(rows));
    }
    if (ev.d_tau.IsZero()) {
      report->Add(Severity::kError, kRuleQapShape, loc,
                  "D(tau) = 0 at a point outside the interpolation set");
    } else if (d.Degree() == static_cast<long>(m) &&
               d.Evaluate(tau) != ev.d_tau) {
      report->Add(Severity::kError, kRuleQapShape, loc,
                  "barycentric D(tau) disagrees with the materialized "
                  "divisor polynomial");
    }
  }

  // Prover-table probes: the divisor check above validates the
  // coefficient-form D(t), but ComputeH never touches it — the quotient
  // comes from the per-Psi shift tables. Re-derive their defining
  // identities instead of trusting them.
  if (tau_probe && m > 0 && d.Degree() == static_cast<long>(m)) {
    const auto& tables = qap.Prover();
    // Shifting the values of t -> t from {0..m} must give m+1..2m+1: this
    // runs the weights, the kernel images and the scales end to end.
    std::vector<F> ramp(m + 1);
    for (size_t j = 0; j <= m; j++) {
      ramp[j] = F::FromUint(j);
    }
    std::vector<F> shifted = qap.ShiftValues(ramp);
    bool ramp_ok = shifted.size() == m + 1;
    for (size_t k = 0; k <= m && ramp_ok; k++) {
      ramp_ok = shifted[k] == F::FromUint(m + 1 + k);
    }
    if (!ramp_ok) {
      report->Add(Severity::kError, kRuleQapShape, loc,
                  "prover shift tables do not map the values of t on "
                  "{0..|C|} to |C|+1..2|C|+1: quotients would be wrong");
    }

    // 1/D(s_k) · prod_j (s_k - j) = 1, with the product taken directly, at
    // the ends of S' and at ~16 points between (O(|C|) each).
    const size_t step = std::max<size_t>(1, m / 16);
    std::vector<size_t> probes;
    for (size_t k = 0; k < m; k += step) {
      probes.push_back(k);
    }
    probes.push_back(m);
    for (size_t k : probes) {
      const F s = F::FromUint(m + 1 + k);
      F prod = F::One();
      for (size_t j = 1; j <= m; j++) {
        prod *= s - F::FromUint(j);
      }
      if (!(tables.inv_d[k] * prod).IsOne()) {
        report->Add(Severity::kError, kRuleQapShape, loc,
                    "cached prover table 1/D(s_k) is wrong at k = " +
                        std::to_string(k));
        break;
      }
    }

    // Small systems get a full end-to-end differential against the
    // coefficient-form path on an arbitrary (non-satisfying) assignment:
    // h[k] must equal P_w(s_k) / D(s_k) with P_w = A·B - C interpolated
    // over the subproduct tree, and `exact` must match the constraints.
    if (m <= 256) {
      Prg probe_prg(0x5eed);
      std::vector<F> w = probe_prg.NextFieldVector<F>(cs.layout.Total());
      std::vector<F> ea(m + 1, F::Zero()), eb(m + 1, F::Zero()),
          ec(m + 1, F::Zero());
      for (size_t j = 0; j < m; j++) {
        ea[j + 1] = cs.constraints[j].a.Evaluate(w);
        eb[j + 1] = cs.constraints[j].b.Evaluate(w);
        ec[j + 1] = cs.constraints[j].c.Evaluate(w);
      }
      std::vector<F> points(m + 1);
      for (size_t j = 0; j <= m; j++) {
        points[j] = F::FromUint(j);
      }
      SubproductTree<F> tree(std::move(points));
      Polynomial<F> pw = tree.Interpolate(ea) * tree.Interpolate(eb) -
                         tree.Interpolate(ec);
      std::vector<F> d_s(m + 1), want(m + 1);
      for (size_t k = 0; k <= m; k++) {
        d_s[k] = d.Evaluate(F::FromUint(m + 1 + k));
      }
      BatchInvert(d_s.data(), m + 1);
      for (size_t k = 0; k <= m; k++) {
        want[k] = pw.Evaluate(F::FromUint(m + 1 + k)) * d_s[k];
      }
      auto fast = qap.ComputeH(w);
      if (fast.h != want || fast.exact != cs.IsSatisfied(w)) {
        report->Add(Severity::kError, kRuleQapShape, loc,
                    "ComputeH diverges from P_w(s)/D(s) on S' (the "
                    "coefficient-form reference) on a probe assignment");
      }
    }
  }
}

}  // namespace zaatar

#endif  // SRC_ANALYSIS_PIPELINE_RULES_H_
