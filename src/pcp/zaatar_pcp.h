// Zaatar's QAP-based linear PCP (paper Figure 10 / Appendix A).
//
// Proof oracles: pi_z (the satisfying assignment restricted to the unbound
// variables, length n') and pi_h (H(t) = P_w(t)/D(t) encoded by its values
// on S' = {|C|+1, .., 2|C|+1}, length |C|+1; see src/constraints/qap.h).
// The paper sends H's coefficients; any fixed invertible linear encoding of
// H with the matching query gives the same PCP, and this one spares the
// prover interpolation and division.
//
// Per repetition the verifier issues rho_lin linearity triples to each
// oracle, then divisibility-correction queries q_a, q_b, q_c (to pi_z) and
// q_d = S''s Lagrange basis at tau (to pi_h, so pi_h(q_d) = H(tau)), each
// blinded by the first linearity query of the corresponding oracle
// (self-correction). The decision check is
//     D(tau) · (pi(q4) - pi(q8)) = A_tau · B_tau - C_tau
// with A_tau = pi(q1) - pi(q5) + sum_{bound i} w_i A_i(tau) + A_0(tau), etc.

#ifndef SRC_PCP_ZAATAR_PCP_H_
#define SRC_PCP_ZAATAR_PCP_H_

#include <cassert>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/constraints/qap.h"
#include "src/crypto/prg.h"
#include "src/pcp/linear_oracle.h"
#include "src/pcp/params.h"
#include "src/util/status.h"

namespace zaatar {

// The honest prover's proof vectors.
template <typename F>
struct ZaatarProof {
  std::vector<F> z;  // length n'
  std::vector<F> h;  // length |C|+1: H's values on S'
};

// Builds (z, h) from a full assignment (Z then X then Y). For a satisfying
// assignment the result is a valid proof; for any other assignment it is the
// "best-effort cheat" (h holds P_w(s)/D(s) on S'), which the PCP rejects
// with high probability — tests rely on this.
//
// ComputeH shifts A, B, C from {0..|C|} to S' with one NTT middle product
// each (src/poly/residue.h) and divides pointwise; on satisfying
// assignments its output equals the coefficient-form quotient
// (Qap::ComputeHNaive) evaluated on S'.
template <typename F>
ZaatarProof<F> BuildZaatarProof(const Qap<F>& qap,
                                const std::vector<F>& assignment) {
  const auto& layout = qap.constraint_system().layout;
  assert(assignment.size() == layout.Total());
  ZaatarProof<F> proof;
  proof.z.assign(assignment.begin(), assignment.begin() + layout.num_unbound);
  proof.h = qap.ComputeH(assignment).h;
  return proof;
}

template <typename F>
class ZaatarPcp {
 public:
  struct LinTriple {
    size_t i0, i1, i2;  // query indices with expected resp[i0]+resp[i1]=resp[i2]
  };

  struct Repetition {
    std::vector<LinTriple> lin_z, lin_h;
    size_t qa = 0, qb = 0, qc = 0;  // z-oracle indices (blinded)
    size_t qd = 0;                  // h-oracle index (blinded)
    size_t blind_z = 0, blind_h = 0;
    F d_tau;
    F tau;
    // Verifier-side evaluation rows: [0] is the constant row; [1+k] is the
    // row of bound variable k (inputs then outputs, in layout order).
    std::vector<F> a_bound, b_bound, c_bound;
  };

  struct Queries {
    std::vector<std::vector<F>> z_queries;
    std::vector<std::vector<F>> h_queries;
    std::vector<Repetition> reps;
    size_t z_len = 0;
    size_t h_len = 0;

    size_t TotalQueryCount() const {
      return z_queries.size() + h_queries.size();
    }
  };

  // Amortized over a batch: generated once per (computation, batch).
  static Queries GenerateQueries(const Qap<F>& qap, const PcpParams& params,
                                 Prg& prg) {
    const auto& layout = qap.constraint_system().layout;
    const size_t n_unbound = layout.num_unbound;
    const size_t n_bound = layout.num_inputs + layout.num_outputs;
    const size_t m = qap.Degree();

    Queries out;
    out.z_len = n_unbound;
    out.h_len = m + 1;
    out.reps.reserve(params.rho);

    for (size_t rep = 0; rep < params.rho; rep++) {
      Repetition r;

      // Linearity queries.
      for (size_t k = 0; k < params.rho_lin; k++) {
        r.lin_z.push_back(
            PushLinearityTriple(&out.z_queries, n_unbound, prg));
        r.lin_h.push_back(PushLinearityTriple(&out.h_queries, m + 1, prg));
      }
      r.blind_z = r.lin_z[0].i0;
      r.blind_h = r.lin_h[0].i0;

      // Divisibility-correction queries at a fresh tau outside {0..2m+1}
      // (the interpolation set and S'). SampleTau already rejects that
      // range, but EvaluateAtTau reports a collision as a typed error, so
      // resample on it rather than trusting the two range conventions to
      // stay in sync.
      F tau = SampleTau(2 * m + 1, prg);
      auto ev_or = qap.EvaluateAtTau(tau);
      while (!ev_or.ok()) {
        tau = SampleTau(2 * m + 1, prg);
        ev_or = qap.EvaluateAtTau(tau);
      }
      auto& ev = *ev_or;
      r.tau = tau;
      r.d_tau = ev.d_tau;

      auto slice_unbound = [&](const std::vector<F>& rows) {
        return std::vector<F>(rows.begin() + 1, rows.begin() + 1 + n_unbound);
      };
      auto slice_bound = [&](const std::vector<F>& rows) {
        std::vector<F> b(1 + n_bound);
        b[0] = rows[0];
        for (size_t k = 0; k < n_bound; k++) {
          b[1 + k] = rows[1 + n_unbound + k];
        }
        return b;
      };

      r.qa = PushBlinded(&out.z_queries, slice_unbound(ev.a_rows),
                         out.z_queries[r.blind_z]);
      r.qb = PushBlinded(&out.z_queries, slice_unbound(ev.b_rows),
                         out.z_queries[r.blind_z]);
      r.qc = PushBlinded(&out.z_queries, slice_unbound(ev.c_rows),
                         out.z_queries[r.blind_z]);
      r.a_bound = slice_bound(ev.a_rows);
      r.b_bound = slice_bound(ev.b_rows);
      r.c_bound = slice_bound(ev.c_rows);

      // q_d = S''s Lagrange basis at tau, blinded.
      r.qd = PushBlinded(&out.h_queries, std::move(ev.h_basis),
                         out.h_queries[r.blind_h]);

      out.reps.push_back(std::move(r));
    }
    return out;
  }

  // Verifier decision. `bound_values` are the instance's inputs followed by
  // outputs (layout order); responses are aligned with the query lists.
  // Response vectors can originate from wire-decoded bytes, so shape is
  // re-checked here in release builds too (a mismatch is a reject, never an
  // out-of-bounds read); ValidateResponseShape exposes the same check as a
  // typed Status for callers that want the error, not just `false`.
  static Status ValidateResponseShape(const Queries& queries,
                                      const std::vector<F>& z_resp,
                                      const std::vector<F>& h_resp) {
    if (z_resp.size() != queries.z_queries.size()) {
      return ShapeMismatchError(
          "z-oracle response count " + std::to_string(z_resp.size()) +
          " != query count " + std::to_string(queries.z_queries.size()));
    }
    if (h_resp.size() != queries.h_queries.size()) {
      return ShapeMismatchError(
          "h-oracle response count " + std::to_string(h_resp.size()) +
          " != query count " + std::to_string(queries.h_queries.size()));
    }
    return Status::Ok();
  }

  static bool Decide(const Queries& queries, const std::vector<F>& z_resp,
                     const std::vector<F>& h_resp,
                     const std::vector<F>& bound_values) {
    if (!ValidateResponseShape(queries, z_resp, h_resp).ok()) {
      return false;
    }
    for (const auto& rep : queries.reps) {
      if (rep.a_bound.size() != bound_values.size() + 1 ||
          rep.b_bound.size() != bound_values.size() + 1 ||
          rep.c_bound.size() != bound_values.size() + 1) {
        return false;
      }
      for (const auto& t : rep.lin_z) {
        if (z_resp[t.i0] + z_resp[t.i1] != z_resp[t.i2]) {
          return false;
        }
      }
      for (const auto& t : rep.lin_h) {
        if (h_resp[t.i0] + h_resp[t.i1] != h_resp[t.i2]) {
          return false;
        }
      }
      F a_tau = z_resp[rep.qa] - z_resp[rep.blind_z] +
                BoundContribution(rep.a_bound, bound_values);
      F b_tau = z_resp[rep.qb] - z_resp[rep.blind_z] +
                BoundContribution(rep.b_bound, bound_values);
      F c_tau = z_resp[rep.qc] - z_resp[rep.blind_z] +
                BoundContribution(rep.c_bound, bound_values);
      F h_tau = h_resp[rep.qd] - h_resp[rep.blind_h];
      if (rep.d_tau * h_tau != a_tau * b_tau - c_tau) {
        return false;
      }
    }
    return true;
  }

 private:
  static LinTriple PushLinearityTriple(std::vector<std::vector<F>>* queries,
                                       size_t len, Prg& prg) {
    std::vector<F> a = prg.NextFieldVector<F>(len);
    std::vector<F> b = prg.NextFieldVector<F>(len);
    std::vector<F> c(len);
    for (size_t i = 0; i < len; i++) {
      c[i] = a[i] + b[i];
    }
    LinTriple t;
    t.i0 = queries->size();
    queries->push_back(std::move(a));
    t.i1 = queries->size();
    queries->push_back(std::move(b));
    t.i2 = queries->size();
    queries->push_back(std::move(c));
    return t;
  }

  static size_t PushBlinded(std::vector<std::vector<F>>* queries,
                            std::vector<F> raw, const std::vector<F>& blind) {
    for (size_t i = 0; i < raw.size(); i++) {
      raw[i] += blind[i];
    }
    size_t idx = queries->size();
    queries->push_back(std::move(raw));
    return idx;
  }

  // A uniform field element greater than `bound`.
  static F SampleTau(size_t bound, Prg& prg) {
    using Repr = typename F::Repr;
    const Repr limit(static_cast<uint64_t>(bound));
    for (;;) {
      F tau = prg.NextField<F>();
      if (tau.ToCanonical() > limit) {
        return tau;
      }
    }
  }

  // Size precondition (rows.size() == bound_values.size() + 1) is checked
  // by Decide before any call, explicitly rather than by assert: the rows
  // come from the verifier's own setup but the bound values are
  // caller-supplied per instance.
  static F BoundContribution(const std::vector<F>& rows,
                             const std::vector<F>& bound_values) {
    F acc = rows[0];
    for (size_t k = 0; k < bound_values.size(); k++) {
      acc += rows[1 + k] * bound_values[k];
    }
    return acc;
  }
};

}  // namespace zaatar

#endif  // SRC_PCP_ZAATAR_PCP_H_
