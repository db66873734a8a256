// Concrete reference interpreter for zlang — the ground truth the
// equivalence checker compares the compiled constraint system against.
//
// The shared AST walker (src/compiler/walker.h) decides control flow and
// staticness; this file is its NativeDomain, and it never touches the field
// or the constraint machinery under test: values are 128-bit integers (and
// exact rational pairs). What the domain contributes is the concrete
// semantics of each compiled gadget, including the parts observable only
// through accept/reject behavior:
//
//  - over a runtime `if`/ternary condition both arms run (their gadget
//    preconditions apply unconditionally) and writes merge by the concrete
//    condition value;
//  - gadget preconditions become rejects: idiv/imod with a non-positive (or
//    >= 2^63) divisor, isqrt of a negative, bitwise ops on negatives, and
//    failed asserts all make the witness solver throw or the constraints
//    unsatisfiable — the interpreter throws NativeReject at the same points;
//  - fixed-point rounding on assignment to rational<W,q> computes
//    num' = floor(num·2^q / den), den' = 2^q;
//  - a runtime-indexed read outside the array reads 0 (the selector sum is
//    empty); a runtime-indexed write outside it writes nothing.
//
// Values outside what __int128 can hold (possible for wide F220 programs)
// raise NativeUnsupported; the caller skips that sample rather than
// reporting a divergence.

#ifndef SRC_ANALYSIS_SYMBOLIC_NATIVE_INTERP_H_
#define SRC_ANALYSIS_SYMBOLIC_NATIVE_INTERP_H_

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/compiler/ast.h"
#include "src/compiler/walker.h"

namespace zaatar {

struct NativeReject : std::runtime_error {
  explicit NativeReject(const std::string& what) : std::runtime_error(what) {}
};
struct NativeUnsupported : std::runtime_error {
  explicit NativeUnsupported(const std::string& what)
      : std::runtime_error(what) {}
};

struct NativeResult {
  enum class Status { kOk, kReject, kUnsupported };
  Status status = Status::kOk;
  std::vector<__int128> outputs;  // one per output slot, in slot order
  std::string detail;
};

class NativeDomain {
 public:
  using Int = __int128;
  using Bool = bool;
  using Out = __int128;

  explicit NativeDomain(const std::vector<int64_t>* inputs)
      : inputs_(inputs) {}

  size_t inputs_consumed() const { return next_input_; }

  static Int Const(int64_t v) { return v; }
  static Bool BoolConst(bool v) { return v; }
  static Out IntOut(Int v) { return v; }
  static Out BoolOut(Bool v) { return v ? 1 : 0; }

  void SetSourceLine(size_t /*line*/) {}
  void Declared(const Declaration& /*d*/, const TypeNode& /*type*/) {}
  Int InputInt(size_t /*width*/) { return NextInput(); }
  Bool InputBool() { return NextInput() != 0; }

  Int Add(Int a, Int b, bool subtract, size_t /*line*/) {
    return CheckedAdd(a, subtract ? -b : b);
  }
  Int Mul(Int a, Int b, size_t /*line*/) { return CheckedMul(a, b); }
  Int Neg(Int a) { return -a; }

  Int Shl(Int a, size_t k, size_t /*line*/) {
    if (k >= 120) {
      throw NativeUnsupported("shift too wide");
    }
    return CheckedMul(a, static_cast<__int128>(1) << k);
  }
  Int Shr(Int a, size_t k, size_t /*line*/) {
    if (k >= 126) {
      return a < 0 ? -1 : 0;
    }
    return FloorDiv(a, static_cast<__int128>(1) << k);
  }

  // The compiled gadget bit-decomposes both operands; a negative value
  // makes the solver throw (its canonical form exceeds the tracked width).
  Int Bitwise(TokenKind op, Int a, Int b, size_t /*line*/) {
    if (a < 0 || b < 0) {
      throw NativeReject("bitwise operator on a negative value");
    }
    return op == TokenKind::kAmp    ? (a & b)
           : op == TokenKind::kPipe ? (a | b)
                                    : (a ^ b);
  }

  // The compiled DivFloor gadget needs 0 < divisor < 2^63.
  std::pair<Int, Int> DivMod(Int a, Int b, size_t /*line*/) {
    CheckDivisor(b, "idiv divisor must be positive and < 2^63");
    Int q = FloorDiv(a, b);
    return {q, a - CheckedMul(q, b)};
  }

  Int Sqrt(Int x, size_t /*line*/) {
    if (x < 0) {
      throw NativeReject("isqrt of a negative value");
    }
    __int128 s = 0;
    // Bit-by-bit integer square root (x < 2^125 by the value cap).
    for (int bit = 62; bit >= 0; bit--) {
      __int128 cand = s + (static_cast<__int128>(1) << bit);
      if (cand * cand <= x) {
        s = cand;
      }
    }
    return s;
  }

  Bool Less(Int a, Int b, size_t /*line*/) { return a < b; }
  // Equal values need not be structurally equal: never decided here.
  Bool Eq(Int a, Int b, std::optional<bool>* /*decided*/) { return a == b; }
  Bool BoolEq(Bool x, Bool y) { return x == y; }
  Bool Not(Bool x) { return !x; }
  Bool And(Bool x, Bool y) { return x && y; }
  Bool Or(Bool x, Bool y) { return x || y; }

  void Assert(Bool c, size_t line) {
    if (!c) {
      throw NativeReject("assert failed at line " + std::to_string(line));
    }
  }

  Int MuxInt(Bool c, Int a, Int b) { return c ? a : b; }
  Bool MuxBool(Bool c, Bool a, Bool b) { return c ? a : b; }

  Int SelectInt(const std::vector<Bool>& sels,
                const std::vector<const Int*>& elems) {
    return Select(sels, elems);
  }
  Bool SelectBool(const std::vector<Bool>& sels,
                  const std::vector<const Bool*>& elems) {
    return Select(sels, elems);
  }
  std::pair<Int, Int> SelectRat(const std::vector<Bool>& sels,
                                const std::vector<const Int*>& nums,
                                const std::vector<const Int*>& dens) {
    return {Select(sels, nums), Select(sels, dens)};
  }

  Int FixScale(Int num, size_t k, size_t /*w*/, size_t /*line*/) {
    return CheckedMul(num, static_cast<__int128>(1) << k);
  }
  Int FixShiftDown(Int num, size_t s, size_t /*line*/) {
    return FloorDiv(num, static_cast<__int128>(1) << s);
  }
  Int FixDivide(Int num, Int den, size_t q, size_t /*w*/, size_t /*line*/) {
    CheckDivisor(den, "fixed-point rounding with non-positive divisor");
    return FloorDiv(CheckedMul(num, static_cast<__int128>(1) << q), den);
  }

 private:
  static constexpr __int128 kValueCap = static_cast<__int128>(1) << 125;

  static __int128 CheckedAdd(__int128 a, __int128 b) {
    __int128 r = a + b;
    if ((b > 0 && r < a) || (b < 0 && r > a) || r >= kValueCap ||
        r <= -kValueCap) {
      throw NativeUnsupported("integer overflow in native interpreter");
    }
    return r;
  }

  static __int128 CheckedMul(__int128 a, __int128 b) {
    if (a == 0 || b == 0) {
      return 0;
    }
    __int128 aa = a < 0 ? -a : a;
    __int128 bb = b < 0 ? -b : b;
    if (aa > kValueCap / bb) {
      throw NativeUnsupported("integer overflow in native interpreter");
    }
    return a * b;
  }

  static __int128 FloorDiv(__int128 a, __int128 b) {
    __int128 q = a / b;
    if ((a % b) != 0 && ((a < 0) != (b < 0))) {
      q--;
    }
    return q;
  }

  // The selected slot, or 0 when the index matches none.
  template <typename T>
  static T Select(const std::vector<Bool>& sels,
                  const std::vector<const T*>& elems) {
    for (size_t i = 0; i < elems.size(); i++) {
      if (sels[i]) {
        return *elems[i];
      }
    }
    return T{};
  }

  static void CheckDivisor(__int128 d, const char* what) {
    if (d <= 0 || d >= (static_cast<__int128>(1) << 63)) {
      throw NativeReject(what);
    }
  }

  int64_t NextInput() {
    if (next_input_ >= inputs_->size()) {
      throw NativeUnsupported("ran out of input slots");
    }
    return (*inputs_)[next_input_++];
  }

  const std::vector<int64_t>* inputs_;
  size_t next_input_ = 0;
};

class NativeInterp {
 public:
  explicit NativeInterp(const ProgramAst& ast) : ast_(&ast) {}

  // slot_inputs: one signed integer per input slot (IoSlotSpec order).
  NativeResult Run(const std::vector<int64_t>& slot_inputs) const {
    NativeResult result;
    try {
      NativeDomain domain(&slot_inputs);
      auto outputs = AstWalker<NativeDomain>(*ast_, &domain).Run();
      if (domain.inputs_consumed() != slot_inputs.size()) {
        throw NativeUnsupported("input slot count mismatch");
      }
      for (const auto& scalars : outputs) {
        result.outputs.insert(result.outputs.end(), scalars.begin(),
                              scalars.end());
      }
    } catch (const NativeReject& e) {
      result.status = NativeResult::Status::kReject;
      result.detail = e.what();
    } catch (const NativeUnsupported& e) {
      result.status = NativeResult::Status::kUnsupported;
      result.detail = e.what();
    } catch (const std::exception& e) {
      // Anything else (a CompileError on a program the compiler rejects,
      // etc.) means the walk diverged from the compiled program — treat as
      // unsupported, never as agreement.
      result.status = NativeResult::Status::kUnsupported;
      result.detail = std::string("internal: ") + e.what();
    }
    return result;
  }

 private:
  const ProgramAst* ast_;
};

// Width-respecting typed input sampler for differential testing: integers
// stay within min(width-ish, magnitude_bits) so native __int128 arithmetic
// cannot overflow for realistic programs; rational denominators are positive.
template <typename Rng>
std::vector<int64_t> SampleNativeInputs(const std::vector<IoSlotSpec>& slots,
                                        Rng& rng, size_t magnitude_bits) {
  std::vector<int64_t> inputs;
  inputs.reserve(slots.size());
  for (const auto& s : slots) {
    switch (s.kind) {
      case IoSlotSpec::Kind::kBool:
        inputs.push_back(static_cast<int64_t>(rng.NextBounded(2)));
        break;
      case IoSlotSpec::Kind::kInt:
      case IoSlotSpec::Kind::kRatNum: {
        size_t bits = s.width < magnitude_bits ? s.width : magnitude_bits;
        if (bits == 0) {
          bits = 1;
        }
        int64_t mag = static_cast<int64_t>(
            rng.NextBounded(uint64_t{1} << bits));
        // Mostly nonnegative: negative values legitimately reject in
        // bitwise-heavy programs, which starves functional coverage.
        bool negative = rng.NextBounded(8) == 0;
        inputs.push_back(negative ? -mag : mag);
        break;
      }
      case IoSlotSpec::Kind::kRatDen: {
        size_t bits = s.width < 8 ? s.width : size_t{8};
        if (bits == 0) {
          bits = 1;
        }
        int64_t den = 1 + static_cast<int64_t>(
                              rng.NextBounded((uint64_t{1} << bits) - 1));
        inputs.push_back(den);
        break;
      }
    }
  }
  return inputs;
}

}  // namespace zaatar

#endif  // SRC_ANALYSIS_SYMBOLIC_NATIVE_INTERP_H_
