// Quasi-linear polynomial algorithms: Newton power-series inversion, division
// with remainder, and subproduct-tree multipoint evaluation/interpolation
// (von zur Gathen & Gerhard, ch. 9-10).
//
// These realize the prover steps as the paper's Appendix A.3 states them:
// interpolating A(t), B(t), C(t) from their evaluations at the sigma_j,
// multiplying them, and dividing P_w(t) by D(t) — total cost
// ~ 3·f·|C|·log^2|C|. The QAP prover no longer takes this path (it shifts
// evaluations instead, see Qap::ComputeH); Qap::ComputeHNaive and the tests
// keep it as the coefficient-form reference.

#ifndef SRC_POLY_ALGORITHMS_H_
#define SRC_POLY_ALGORITHMS_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/field/prime_field.h"
#include "src/poly/polynomial.h"

namespace zaatar {

// Inverse of f modulo x^count (requires f(0) != 0). Newton iteration:
// g <- g(2 - fg), doubling precision each round.
template <typename F>
Polynomial<F> NewtonInverse(const Polynomial<F>& f, size_t count) {
  assert(!f.IsZero() && !f.CoefficientOrZero(0).IsZero());
  Polynomial<F> g = Polynomial<F>::Constant(f.CoefficientOrZero(0).Inverse());
  size_t precision = 1;
  const Polynomial<F> two = Polynomial<F>::Constant(F::FromUint(2));
  while (precision < count) {
    precision = std::min(2 * precision, count);
    Polynomial<F> fg = (f.Truncate(precision) * g).Truncate(precision);
    g = (g * (two - fg)).Truncate(precision);
  }
  return g.Truncate(count);
}

template <typename F>
struct DivRemResult {
  Polynomial<F> quotient;
  Polynomial<F> remainder;
};

// Division with remainder: a = q·b + r with deg r < deg b. Quasi-linear via
// reversal + Newton inversion.
template <typename F>
DivRemResult<F> DivRem(const Polynomial<F>& a, const Polynomial<F>& b) {
  assert(!b.IsZero());
  if (a.Degree() < b.Degree()) {
    return {Polynomial<F>::Zero(), a};
  }
  size_t da = static_cast<size_t>(a.Degree());
  size_t db = static_cast<size_t>(b.Degree());
  size_t m = da - db + 1;
  Polynomial<F> rev_b = b.Reverse(db);
  Polynomial<F> inv = NewtonInverse(rev_b, m);
  Polynomial<F> q_rev = (a.Reverse(da) * inv).Truncate(m);
  Polynomial<F> q = q_rev.Reverse(m - 1);
  Polynomial<F> r = a - q * b;
  assert(r.Degree() < b.Degree());
  return {std::move(q), std::move(r)};
}

// Subproduct tree over a fixed point set. Level 0 holds the linear leaves
// (x - u_i); each higher level holds pairwise products (an odd trailing node
// is promoted unchanged). Supports multipoint evaluation and interpolation in
// O(M(n) log n).
template <typename F>
class SubproductTree {
 public:
  explicit SubproductTree(std::vector<F> points) : points_(std::move(points)) {
    assert(!points_.empty());
    std::vector<Polynomial<F>> level;
    level.reserve(points_.size());
    for (const F& u : points_) {
      level.push_back(Polynomial<F>::Linear(u));
    }
    levels_.push_back(std::move(level));
    while (levels_.back().size() > 1) {
      const auto& prev = levels_.back();
      std::vector<Polynomial<F>> next;
      next.reserve((prev.size() + 1) / 2);
      for (size_t i = 0; i + 1 < prev.size(); i += 2) {
        next.push_back(prev[i] * prev[i + 1]);
      }
      if (prev.size() % 2 == 1) {
        next.push_back(prev.back());
      }
      levels_.push_back(std::move(next));
    }
  }

  const std::vector<F>& points() const { return points_; }

  // prod_i (x - u_i).
  const Polynomial<F>& Root() const { return levels_.back()[0]; }

  // f(u_i) for every point, in point order.
  std::vector<F> EvaluateAll(const Polynomial<F>& f) const {
    std::vector<F> out(points_.size());
    Polynomial<F> top = f;
    if (f.Degree() >= Root().Degree()) {
      top = DivRem(f, Root()).remainder;
    }
    Down(levels_.size() - 1, 0, top, &out);
    return out;
  }

  // The unique polynomial of degree < n with P(u_i) = values[i]. Requires
  // distinct points (guaranteed if construction points were distinct).
  Polynomial<F> Interpolate(const std::vector<F>& values) const {
    assert(values.size() == points_.size());
    // c_i = values[i] / m'(u_i). The weights depend only on the points and
    // are cached (ComputeHNaive interpolates A, B, C over the same tree).
    const std::vector<F>& weights = InterpolationWeights();
    std::vector<Polynomial<F>> nodes;
    nodes.reserve(points_.size());
    for (size_t i = 0; i < points_.size(); i++) {
      nodes.push_back(Polynomial<F>::Constant(values[i] * weights[i]));
    }
    // Combine up: parent = left * (right subtree poly) + right * (left
    // subtree poly); this accumulates sum_i c_i * m(x)/(x - u_i).
    for (size_t l = 0; l + 1 < levels_.size(); l++) {
      const auto& polys = levels_[l];
      std::vector<Polynomial<F>> next;
      next.reserve((nodes.size() + 1) / 2);
      for (size_t i = 0; i + 1 < nodes.size(); i += 2) {
        next.push_back(nodes[i] * polys[i + 1] + nodes[i + 1] * polys[i]);
      }
      if (nodes.size() % 2 == 1) {
        next.push_back(nodes.back());
      }
      nodes = std::move(next);
    }
    return nodes[0];
  }

 private:
  // 1 / m'(u_i) for every point (computed once, then cached).
  const std::vector<F>& InterpolationWeights() const {
    if (interp_weights_.empty()) {
      Polynomial<F> deriv = Root().Derivative();
      interp_weights_ = EvaluateAll(deriv);
      BatchInvert(interp_weights_.data(), interp_weights_.size());
    }
    return interp_weights_;
  }

  void Down(size_t level, size_t index, const Polynomial<F>& r,
            std::vector<F>* out) const {
    if (level == 0) {
      (*out)[index] = r.Evaluate(points_[index]);
      return;
    }
    size_t left = 2 * index;
    size_t right = 2 * index + 1;
    const auto& child_level = levels_[level - 1];
    if (right >= child_level.size()) {
      Down(level - 1, left, r, out);  // promoted node, nothing to reduce
      return;
    }
    Down(level - 1, left, DivRem(r, child_level[left]).remainder, out);
    Down(level - 1, right, DivRem(r, child_level[right]).remainder, out);
  }

  std::vector<F> points_;
  std::vector<std::vector<Polynomial<F>>> levels_;
  mutable std::vector<F> interp_weights_;
};

// Quadratic-time Lagrange interpolation, for cross-checking and tiny inputs.
template <typename F>
Polynomial<F> InterpolateNaive(const std::vector<F>& points,
                               const std::vector<F>& values) {
  assert(points.size() == values.size());
  Polynomial<F> acc = Polynomial<F>::Zero();
  for (size_t i = 0; i < points.size(); i++) {
    Polynomial<F> num = Polynomial<F>::Constant(F::One());
    F den = F::One();
    for (size_t j = 0; j < points.size(); j++) {
      if (j == i) {
        continue;
      }
      num = num * Polynomial<F>::Linear(points[j]);
      den *= points[i] - points[j];
    }
    acc = acc + num * (values[i] * den.Inverse());
  }
  return acc;
}

}  // namespace zaatar

#endif  // SRC_POLY_ALGORITHMS_H_
