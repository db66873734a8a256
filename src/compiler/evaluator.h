// Lowering of zlang to constraints: the R1CS value domain of the AST walker
// (src/compiler/walker.h). The walker resolves control flow at compile time
// wherever possible — loops unroll; `if` over a static condition compiles
// one arm — and this domain says what every remaining scalar operation costs.
// Runtime conditions compile both arms and merge every written variable
// with a mux (b + c·(a-b)), which is free for values the branches agree on.
// Runtime array indices expand to equality-selector chains (one IsZero per
// slot) — the "excessive number of constraints" for indirect memory access
// that §5.4 discusses.
//
// Integers are linear combinations with a tracked magnitude bound,
// |v| < 2^width. Widths grow through arithmetic (add: ~+1 bit, mul: sum)
// and gate the comparison gadgets; exceeding the field capacity is a
// compile error (the paper's compiler has the same bounded-width model).

#ifndef SRC_COMPILER_EVALUATOR_H_
#define SRC_COMPILER_EVALUATOR_H_

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/compiler/ast.h"
#include "src/compiler/builder.h"
#include "src/compiler/walker.h"

namespace zaatar {

template <typename F>
struct EvaluationResult {
  GingerSystem<F> system;
  std::vector<SolverOp<F>> solver;
  std::vector<IoSlotSpec> inputs;
  std::vector<IoSlotSpec> outputs;
};

template <typename F>
class R1csDomain {
 public:
  using LC = LinearCombination<F>;
  struct Int {
    LC lc;
    // Magnitude bound: |value| < 2^width. A real number, so long
    // accumulation chains grow by log2(#terms), not one bit per addition.
    double width = 1;
  };
  using Bool = LC;  // guaranteed 0 or 1
  using Out = LC;

  // Comparisons need width+1 decomposition plus shift headroom.
  static constexpr double kMaxWidth = static_cast<double>(F::kModulusBits - 4);

  static Int Const(int64_t v) {
    uint64_t mag = v >= 0 ? static_cast<uint64_t>(v)
                          : static_cast<uint64_t>(-(v + 1)) + 1;
    size_t bits = 1;
    while ((uint64_t{1} << bits) <= mag && bits < 63) {
      bits++;
    }
    return Int{LC(F::FromInt(v)), static_cast<double>(bits)};
  }
  static Bool BoolConst(bool v) { return LC(v ? F::One() : F::Zero()); }
  static Out IntOut(const Int& v) { return v.lc; }
  static Out BoolOut(const Bool& v) { return v; }

  void SetSourceLine(size_t line) { builder_.SetSourceLine(line); }

  // Checks declared widths; inputs get IO slots, outputs get their
  // variables now (fixing output ordering) and are bound in Finish.
  void Declared(const Declaration& d, const TypeNode& type) {
    if (type.width > kMaxWidth || type.den_width > kMaxWidth) {
      throw CompileError("declared width exceeds field capacity", d.line,
                         d.column);
    }
    if (d.kind == Declaration::Kind::kInput) {
      AppendIoSlots(d.name, type, &input_slots_);
    } else if (d.kind == Declaration::Kind::kOutput) {
      OutputBinding binding{&d, {}};
      size_t scalars = type.ElementCount() *
                       (type.kind == TypeNode::Kind::kRational ? 2 : 1);
      for (size_t i = 0; i < scalars; i++) {
        binding.vars.push_back(builder_.NewOutput());
      }
      AppendIoSlots(d.name, type, &output_slots_);
      output_bindings_.push_back(std::move(binding));
    }
  }

  Int InputInt(size_t width) {
    return Int{LC::Variable(builder_.NewInput()), static_cast<double>(width)};
  }
  Bool InputBool() { return LC::Variable(builder_.NewInput()); }

  // Binds the walker's output scalars and finalizes variable numbering.
  EvaluationResult<F> Finish(const std::vector<std::vector<LC>>& outputs) {
    for (size_t k = 0; k < output_bindings_.size(); k++) {
      const OutputBinding& binding = output_bindings_[k];
      if (outputs[k].size() != binding.vars.size()) {
        throw CompileError(
            "output '" + binding.decl->name + "' shape mismatch",
            binding.decl->line, binding.decl->column);
      }
      for (size_t i = 0; i < outputs[k].size(); i++) {
        builder_.BindOutput(binding.vars[i], outputs[k][i]);
      }
    }
    auto fin = builder_.Finalize();
    EvaluationResult<F> r;
    r.system = std::move(fin.system);
    r.solver = std::move(fin.solver);
    r.inputs = std::move(input_slots_);
    r.outputs = std::move(output_slots_);
    return r;
  }

  // ----- integer ops -----

  Int Add(const Int& a, const Int& b, bool subtract, size_t line) {
    Int r;
    r.lc = subtract ? a.lc + b.lc * (-F::One()) : a.lc + b.lc;
    r.lc.Compact();
    r.width = AddWidth(a.width, b.width);
    CheckWidth(r.width, line);
    return r;
  }

  Int Mul(const Int& a, const Int& b, size_t line) {
    Int r;
    r.width = a.width + b.width;
    CheckWidth(r.width, line);
    r.lc = builder_.Product(a.lc, b.lc);
    return r;
  }

  Int Neg(const Int& a) { return Int{a.lc * (-F::One()), a.width}; }

  // a < b via shifted bit decomposition (O(width) constraints).
  Bool Less(const Int& a, const Int& b, size_t line) {
    size_t w = static_cast<size_t>(std::ceil(AddWidth(a.width, b.width)));
    CheckWidth(static_cast<double>(w + 1), line);
    // d = a - b + 2^w is in (0, 2^{w+1}); a < b iff d < 2^w iff bit w clear.
    LC d = a.lc + b.lc * (-F::One());
    d.AddConstant(PowerOfTwo(w));
    d.Compact();
    std::vector<LC> bits = builder_.Decompose(d, w + 1);
    LC r = LC(F::One()) + bits[w] * (-F::One());
    r.Compact();
    return r;
  }

  // IsZero is width-free. A difference that cancels to a constant needs no
  // gadget: the answer is known at compile time.
  Bool Eq(const Int& a, const Int& b, std::optional<bool>* decided) {
    LC d = a.lc + b.lc * (-F::One());
    d.Compact();
    if (d.IsConstant()) {
      *decided = d.constant().IsZero();
      return LC();
    }
    return builder_.IsZero(d);
  }

  // Bitwise ops on nonnegative integers via bit decomposition. AND pays one
  // product per bit; OR and XOR derive from it arithmetically:
  //   a|b = a + b - (a&b),   a^b = a + b - 2(a&b).
  Int Bitwise(TokenKind op, const Int& a, const Int& b, size_t line) {
    size_t w = static_cast<size_t>(std::ceil(std::max(a.width, b.width)));
    CheckWidth(static_cast<double>(w), line);
    std::vector<LC> abits = builder_.Decompose(a.lc, w);
    std::vector<LC> bbits = builder_.Decompose(b.lc, w);
    LC and_acc;
    F pow = F::One();
    for (size_t i = 0; i < w; i++) {
      and_acc = and_acc + builder_.Product(abits[i], bbits[i]) * pow;
      pow = pow.Double();
    }
    and_acc.Compact();
    Int r;
    r.width = static_cast<double>(w);
    switch (op) {
      case TokenKind::kAmp:
        r.lc = and_acc;
        break;
      case TokenKind::kPipe:
        r.lc = a.lc + b.lc + and_acc * (-F::One());
        break;
      default:  // kCaret
        r.lc = a.lc + b.lc + and_acc * (-F::FromUint(2));
        break;
    }
    r.lc.Compact();
    return r;
  }

  Int Shl(const Int& a, size_t k, size_t line) {
    Int r{a.lc * PowerOfTwo(k), a.width + static_cast<double>(k)};
    CheckWidth(r.width, line);
    return r;
  }

  // Arithmetic (floor) right shift, valid for negative values too.
  Int Shr(const Int& a, size_t k, size_t line) {
    size_t kbits = static_cast<size_t>(std::ceil(a.width));
    if (k >= kbits) {
      // Result is 0 for nonnegative, -1 for negative: floor(a / 2^k).
      kbits = k;  // decompose wide enough to capture the sign
    }
    CheckWidth(static_cast<double>(kbits + 1), line);
    LC shifted = a.lc;
    shifted.AddConstant(PowerOfTwo(kbits));
    return Int{HighBits(shifted, kbits, k),
               std::max(1.0, a.width - static_cast<double>(k))};
  }

  // Runtime integer division: a = q·b + r with 0 <= r < b; requires b > 0
  // at runtime (the witness solver enforces it).
  std::pair<Int, Int> DivMod(const Int& a, const Int& b, size_t line) {
    auto [quot, rem] = builder_.DivFloor(a.lc, b.lc);
    size_t wb = static_cast<size_t>(std::ceil(b.width));
    CheckWidth(static_cast<double>(wb), line);
    Int r = BoundedRemainder(rem, b, line);
    size_t wq = static_cast<size_t>(std::ceil(a.width));
    CheckWidth(static_cast<double>(wq + 1), line);
    LC shifted = quot;
    shifted.AddConstant(PowerOfTwo(wq));
    builder_.Decompose(shifted, wq + 1);
    return {Int{quot, static_cast<double>(wq)}, r};
  }

  // Integer square root: s with s^2 <= x < (s+1)^2; requires x >= 0.
  Int Sqrt(const Int& x, size_t line) {
    size_t w = static_cast<size_t>(std::ceil(x.width));
    CheckWidth(static_cast<double>(w + 2), line);
    LC s = builder_.SqrtWitness(x.lc);
    LC s_sq = builder_.Product(s, s);
    // x - s^2 in [0, 2^w).
    LC low = x.lc + s_sq * (-F::One());
    low.Compact();
    builder_.Decompose(low, w);
    // (s+1)^2 - x - 1 = s^2 + 2s - x >= 0.
    LC high = s_sq + s + s + x.lc * (-F::One());
    high.Compact();
    builder_.Decompose(high, w);
    return Int{s, static_cast<double>(w / 2 + 1)};
  }

  // ----- bool ops -----

  Bool BoolEq(const Bool& x, const Bool& y) {  // 1 - x - y + 2xy
    LC prod = builder_.Product(x, y);
    LC r = LC(F::One()) + x * (-F::One()) + y * (-F::One()) + prod + prod;
    r.Compact();
    return r;
  }

  Bool Not(const Bool& a) {
    LC r = LC(F::One()) + a * (-F::One());
    r.Compact();
    return r;
  }

  Bool And(const Bool& a, const Bool& b) { return builder_.Product(a, b); }

  Bool Or(const Bool& a, const Bool& b) {
    LC prod = builder_.Product(a, b);
    LC r = a + b + prod * (-F::One());
    r.Compact();
    return r;
  }

  // A verifier-enforced predicate: one linear constraint on the boolean
  // wire. A false one makes the constraints unsatisfiable, so no valid
  // proof exists for the offending input.
  void Assert(const Bool& c, size_t /*line*/) {
    builder_.AssertEqual(c, LC(F::One()));
  }

  // ----- muxes and runtime selection -----

  Int MuxInt(const Bool& c, const Int& a, const Int& b) {
    return Int{MuxLc(c, a.lc, b.lc), std::max(a.width, b.width)};
  }
  Bool MuxBool(const Bool& c, const Bool& a, const Bool& b) {
    return MuxLc(c, a, b);
  }

  // result = sum_i sel_i · elem_i.
  Int SelectInt(const std::vector<Bool>& sels,
                const std::vector<const Int*>& elems) {
    Int r{LC(), 1};
    for (size_t i = 0; i < elems.size(); i++) {
      r.lc = r.lc + builder_.Product(sels[i], elems[i]->lc);
      r.width = std::max(r.width, elems[i]->width);
    }
    r.lc.Compact();
    return r;
  }

  Bool SelectBool(const std::vector<Bool>& sels,
                  const std::vector<const Bool*>& elems) {
    LC acc;
    for (size_t i = 0; i < elems.size(); i++) {
      acc = acc + builder_.Product(sels[i], *elems[i]);
    }
    acc.Compact();
    return acc;
  }

  std::pair<Int, Int> SelectRat(const std::vector<Bool>& sels,
                                const std::vector<const Int*>& nums,
                                const std::vector<const Int*>& dens) {
    Int num{LC(), 1}, den{LC(), 1};
    for (size_t i = 0; i < nums.size(); i++) {
      num.lc = num.lc + builder_.Product(sels[i], nums[i]->lc);
      den.lc = den.lc + builder_.Product(sels[i], dens[i]->lc);
      num.width = std::max(num.width, nums[i]->width);
      den.width = std::max(den.width, dens[i]->width);
    }
    num.lc.Compact();
    den.lc.Compact();
    return {num, den};
  }

  // ----- fixed-point rounding (see AstWalker::FixRational) -----

  // Exact rescale n' = n · 2^k: no constraints.
  Int FixScale(const Int& num, size_t k, size_t w, size_t line) {
    Int r{num.lc * PowerOfTwo(k), num.width + static_cast<double>(k)};
    if (r.width > static_cast<double>(w)) {
      throw CompileError("fixed-point value exceeds declared width", line, 0);
    }
    return r;
  }

  // n' = floor(n / 2^s) via bit decomposition (no division needed).
  Int FixShiftDown(const Int& num, size_t s, size_t line) {
    size_t kbits = static_cast<size_t>(std::ceil(num.width));
    CheckWidth(static_cast<double>(kbits + 1), line);
    LC shifted = num.lc;
    shifted.AddConstant(PowerOfTwo(kbits));
    shifted.Compact();
    return Int{HighBits(shifted, kbits, s),
               std::max(1.0, num.width - static_cast<double>(s))};
  }

  // Dynamic denominator: n2 = n·2^q; n' = floor(n2 / d) with
  // n2 = n'·d + r, 0 <= r < d, and n' in [-2^w, 2^w).
  Int FixDivide(const Int& num, const Int& den, size_t q, size_t w,
                size_t line) {
    LC n2 = num.lc * PowerOfTwo(q);
    auto [quot, rem] = builder_.DivFloor(n2, den.lc);
    BoundedRemainder(rem, den, line);
    LC shifted_q = quot;
    shifted_q.AddConstant(PowerOfTwo(w));
    builder_.Decompose(shifted_q, w + 1);
    return Int{quot, static_cast<double>(w)};
  }

 private:
  struct OutputBinding {
    const Declaration* decl = nullptr;
    std::vector<uint32_t> vars;
  };

  void AppendIoSlots(const std::string& name, const TypeNode& type,
                     std::vector<IoSlotSpec>* slots) {
    size_t count = type.ElementCount();
    for (size_t i = 0; i < count; i++) {
      std::string slot_name =
          type.IsArray() ? name + "[" + std::to_string(i) + "]" : name;
      switch (type.kind) {
        case TypeNode::Kind::kInt:
          slots->push_back({slot_name, IoSlotSpec::Kind::kInt, type.width});
          break;
        case TypeNode::Kind::kBool:
          slots->push_back({slot_name, IoSlotSpec::Kind::kBool, 1});
          break;
        case TypeNode::Kind::kRational:
          slots->push_back(
              {slot_name, IoSlotSpec::Kind::kRatNum, type.width});
          slots->push_back(
              {slot_name, IoSlotSpec::Kind::kRatDen, type.den_width});
          break;
      }
    }
  }

  void CheckWidth(double width, size_t line) {
    if (width > kMaxWidth) {
      throw CompileError(
          "integer width " + std::to_string(width) +
              " exceeds field capacity (" + std::to_string(kMaxWidth) + ")",
          line, 0);
    }
  }

  // log2(2^a + 2^b), the width of a sum of magnitudes.
  static double AddWidth(double a, double b) {
    double hi = std::max(a, b), lo = std::min(a, b);
    if (hi - lo > 60) {
      return hi;
    }
    return hi + std::log2(1.0 + std::exp2(lo - hi));
  }

  static F PowerOfTwo(size_t w) {
    F r = F::One();
    for (size_t i = 0; i < w; i++) {
      r = r.Double();
    }
    return r;
  }

  // floor(v / 2^s) from the bits of `shifted` = v + 2^kbits, which must lie
  // in [0, 2^(kbits+1)).
  LC HighBits(const LC& shifted, size_t kbits, size_t s) {
    std::vector<LC> bits = builder_.Decompose(shifted, kbits + 1);
    LC high;
    F pow = F::One();
    for (size_t i = s; i <= kbits; i++) {
      high = high + bits[i] * pow;
      pow = pow.Double();
    }
    high.AddConstant(-PowerOfTwo(kbits - s));
    high.Compact();
    return high;
  }

  // Pins a DivFloor remainder to [0, divisor): r in [0, 2^wd) and r < d.
  Int BoundedRemainder(const LC& rem, const Int& divisor, size_t line) {
    size_t wd = static_cast<size_t>(std::ceil(divisor.width));
    builder_.Decompose(rem, wd);
    Int r{rem, static_cast<double>(wd)};
    builder_.AssertEqual(Less(r, divisor, line), LC(F::One()));
    return r;
  }

  // b + c·(a - b); free when the arms agree.
  LC MuxLc(const LC& c, const LC& a, const LC& b) {
    LC diff = a + b * (-F::One());
    diff.Compact();
    if (diff.IsConstant() && diff.constant().IsZero()) {
      return b;
    }
    LC r = b + builder_.Product(c, diff);
    r.Compact();
    return r;
  }

  CircuitBuilder<F> builder_;
  std::vector<IoSlotSpec> input_slots_;
  std::vector<IoSlotSpec> output_slots_;
  std::vector<OutputBinding> output_bindings_;
};

// Lowers a parsed program to a Ginger system plus its witness solver.
template <typename F>
EvaluationResult<F> LowerToConstraints(const ProgramAst& ast) {
  R1csDomain<F> domain;
  auto outputs = AstWalker<R1csDomain<F>>(ast, &domain).Run();
  return domain.Finish(outputs);
}

}  // namespace zaatar

#endif  // SRC_COMPILER_EVALUATOR_H_
