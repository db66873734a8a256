// Program-side symbolic evaluator: walks the zlang AST over symbolic inputs
// and reduces each output slot to a SymPoly normal form when the program
// stays inside the polynomial fragment of the language.
//
// The walk itself is the compiler's (src/compiler/walker.h), so arm
// selection for `if`/`?:`, loop unrolling and static indexing are exactly
// what was compiled. SymDomain supplies the polynomial values: field
// arithmetic (+, -, *, unary -), boolean algebra (a·b, a+b-ab, 1-a,
// 1-a-b+2ab), muxes over conditions that themselves have polynomial form,
// and exact power-of-two fixed-point rescaling. Everything else — bit
// decompositions, comparisons on runtime values, floor division, square
// roots, runtime array indexing — is not a polynomial over the inputs; the
// affected value degrades to SymPoly::Invalid() and the equivalence decider
// falls back from algebraic comparison to randomized / differential testing
// (DESIGN.md §14).
//
// `guarded` is set whenever the program can reject an input at runtime (an
// assert not identically true, or a gadget with a precondition: floor
// division, bitwise on possibly-negative values, isqrt, dynamic fixed-point
// rounding). An algebraic-equality verdict is only an unconditional
// input/output theorem when the program is unguarded; otherwise it holds on
// the accepted domain and the decider caps the verdict accordingly.

#ifndef SRC_ANALYSIS_SYMBOLIC_SYM_EVAL_H_
#define SRC_ANALYSIS_SYMBOLIC_SYM_EVAL_H_

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/symbolic/sym_poly.h"
#include "src/compiler/ast.h"
#include "src/compiler/walker.h"

namespace zaatar {

template <typename F>
struct SymEvalResult {
  // One entry per output slot, in slot order. Invalid entries mean "outside
  // the polynomial fragment"; the decider samples instead.
  std::vector<SymPoly<F>> outputs;
  bool guarded = false;
  // True when every output slot has a valid polynomial.
  bool AllValid() const {
    if (outputs.empty()) {
      return false;
    }
    for (const auto& p : outputs) {
      if (!p.valid()) {
        return false;
      }
    }
    return true;
  }
  // Degree bound over all outputs; invalid polynomials contribute the bound
  // accumulated through the operations that overflowed the term caps.
  size_t DegreeBound() const {
    size_t d = 1;
    for (const auto& p : outputs) {
      if (p.DegreeBound() > d) {
        d = p.DegreeBound();
      }
    }
    return d;
  }
};

template <typename F>
class SymDomain {
 public:
  using P = SymPoly<F>;
  using Int = P;
  using Bool = P;  // 0/1-valued when valid
  using Out = P;

  bool guarded = false;
  // Set by RunAt: input symbols bind to this point's coordinates.
  const std::vector<F>* point = nullptr;

  static P Const(int64_t v) { return P::Constant(F::FromInt(v)); }
  static P BoolConst(bool v) { return P::Constant(v ? F::One() : F::Zero()); }
  static P IntOut(const P& v) { return v; }
  static P BoolOut(const P& v) { return v; }

  void SetSourceLine(size_t /*line*/) {}
  void Declared(const Declaration& /*d*/, const TypeNode& /*type*/) {}
  P InputInt(size_t /*width*/) { return InputSymbol(); }
  P InputBool() { return InputSymbol(); }

  P Add(const P& a, const P& b, bool subtract, size_t /*line*/) {
    return subtract ? a - b : a + b;
  }
  P Mul(const P& a, const P& b, size_t /*line*/) { return a * b; }
  P Neg(const P& a) { return a * (-F::One()); }
  P Shl(const P& a, size_t k, size_t /*line*/) { return a * PowerOfTwo(k); }

  // Bit decompositions: outside the fragment. Shr and the comparison
  // cannot reject; the rest carry a runtime precondition.
  P Shr(const P& /*a*/, size_t /*k*/, size_t /*line*/) { return P::Invalid(); }
  P Less(const P& /*a*/, const P& /*b*/, size_t /*line*/) {
    return P::Invalid();
  }
  P Bitwise(TokenKind /*op*/, const P& /*a*/, const P& /*b*/,
            size_t /*line*/) {
    return Guarded();
  }
  std::pair<P, P> DivMod(const P& /*a*/, const P& /*b*/, size_t /*line*/) {
    return {Guarded(), P::Invalid()};
  }
  P Sqrt(const P& /*a*/, size_t /*line*/) { return Guarded(); }

  // Mirrors the compiler's LC-constant shortcut: a difference that is a
  // constant polynomial decides the equality (e.g. `x == x`).
  P Eq(const P& a, const P& b, std::optional<bool>* decided) {
    P diff = a - b;
    if (diff.valid() && diff.IsConstant()) {
      *decided = diff.IsZero();
    }
    return P::Invalid();
  }
  P BoolEq(const P& x, const P& y) {
    return P::Constant(F::One()) - x - y + x * y * F::FromInt(2);
  }
  P Not(const P& x) { return P::Constant(F::One()) - x; }
  P And(const P& x, const P& y) { return x * y; }
  P Or(const P& x, const P& y) { return x + y - x * y; }

  void Assert(const P& c, size_t /*line*/) {
    if (!(c.valid() && c.IsConstant() && c.ConstantValue() == F::One())) {
      guarded = true;  // the compiled assert can reject inputs
    }
  }

  // mux(c, a, b) = b + c·(a - b); degrades to Invalid when the condition
  // has no polynomial form and the arms differ.
  P MuxInt(const P& c, const P& a, const P& b) {
    if (a.valid() && b.valid() && a == b) {
      return a;  // same either way: condition form irrelevant
    }
    return b + c * (a - b);
  }
  P MuxBool(const P& c, const P& a, const P& b) { return MuxInt(c, a, b); }

  // Runtime indexing runs IsZero selectors: outside the fragment.
  P SelectInt(const std::vector<P>& /*sels*/,
              const std::vector<const P*>& /*elems*/) {
    return P::Invalid();
  }
  P SelectBool(const std::vector<P>& sels, const std::vector<const P*>& e) {
    return SelectInt(sels, e);
  }
  std::pair<P, P> SelectRat(const std::vector<P>& /*sels*/,
                            const std::vector<const P*>& /*nums*/,
                            const std::vector<const P*>& /*dens*/) {
    return {P::Invalid(), P::Invalid()};
  }

  // Exact power-of-two rescale stays polynomial; the static down-shift is a
  // bit decomposition (cannot reject); a dynamic denominator runs DivFloor.
  P FixScale(const P& num, size_t k, size_t /*w*/, size_t /*line*/) {
    return num * PowerOfTwo(k);
  }
  P FixShiftDown(const P& /*num*/, size_t /*s*/, size_t /*line*/) {
    return P::Invalid();
  }
  P FixDivide(const P& /*num*/, const P& /*den*/, size_t /*q*/,
              size_t /*w*/, size_t /*line*/) {
    return Guarded();
  }

 private:
  P Guarded() {
    guarded = true;
    return P::Invalid();
  }

  static F PowerOfTwo(size_t k) {
    F r = F::One();
    for (size_t i = 0; i < k; i++) {
      r = r.Double();
    }
    return r;
  }

  P InputSymbol() {
    uint32_t id = next_symbol_++;
    if (point == nullptr) {
      return P::Symbol(id);
    }
    if (id >= point->size()) {
      throw std::out_of_range("symbolic point has too few coordinates");
    }
    return P::Constant((*point)[id]);
  }

  uint32_t next_symbol_ = 0;
};

template <typename F>
class SymEval {
 public:
  // Outside what the walk models, every output degrades to Invalid.
  static SymEvalResult<F> Run(const ProgramAst& ast) {
    SymEvalResult<F> result;
    try {
      RunInternal(ast, nullptr, &result);
    } catch (const std::exception&) {
      result.outputs.clear();
      result.guarded = true;
    }
    return result;
  }

  // Evaluates the program at a concrete field point (one element per input
  // slot) by rebinding the input symbols to constants — the program side of
  // a Schwartz–Zippel sample. Inputs stay "dynamic" for control-flow
  // purposes, so arm selection matches the compiled program. Returns one
  // value per output slot, or nullopt when some output passes through a
  // non-polynomial construct.
  static std::optional<std::vector<F>> RunAt(const ProgramAst& ast,
                                             const std::vector<F>& point) {
    SymEvalResult<F> result;
    try {
      RunInternal(ast, &point, &result);
    } catch (const std::exception&) {
      return std::nullopt;
    }
    std::vector<F> values;
    values.reserve(result.outputs.size());
    for (const auto& p : result.outputs) {
      if (!p.valid() || !p.IsConstant()) {
        return std::nullopt;
      }
      values.push_back(p.ConstantValue());
    }
    return values;
  }

 private:
  static void RunInternal(const ProgramAst& ast, const std::vector<F>* point,
                          SymEvalResult<F>* result) {
    SymDomain<F> domain;
    domain.point = point;
    for (auto& scalars : AstWalker<SymDomain<F>>(ast, &domain).Run()) {
      for (auto& p : scalars) {
        result->outputs.push_back(std::move(p));
      }
    }
    result->guarded = domain.guarded;
  }
};

}  // namespace zaatar

#endif  // SRC_ANALYSIS_SYMBOLIC_SYM_EVAL_H_
