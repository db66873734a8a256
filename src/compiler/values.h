// Typed values manipulated by the AST walker (src/compiler/walker.h).
//
// Each scalar pairs the value domain's own representation `x` (a linear
// combination with a width bound when compiling, a 128-bit integer in the
// native reference, a polynomial in the symbolic evaluator) with the
// walker's static shadow: `static_value` is set exactly when the compiler
// knows the value at compile time, which is what loop bounds, array
// indices and one-armed `if`s require.
//
// Rationals follow Ginger's primitive floating-point representation: a pair
// (numerator, denominator) of integers with the denominator positive by
// construction (inputs are declared positive; +, -, *, and division by a
// positive constant preserve positivity). Comparisons cross-multiply.

#ifndef SRC_COMPILER_VALUES_H_
#define SRC_COMPILER_VALUES_H_

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

namespace zaatar {

template <typename D>
struct IntVal {
  typename D::Int x{};
  std::optional<int64_t> static_value;

  static IntVal Constant(int64_t v) { return IntVal{D::Const(v), v}; }
  bool IsStatic() const { return static_value.has_value(); }
};

template <typename D>
struct BoolVal {
  typename D::Bool x{};  // 0 or 1
  std::optional<bool> static_value;

  static BoolVal Constant(bool v) { return BoolVal{D::BoolConst(v), v}; }
  bool IsStatic() const { return static_value.has_value(); }
};

template <typename D>
struct RatVal {
  IntVal<D> num;
  IntVal<D> den;  // positive by construction

  static RatVal FromInt(const IntVal<D>& v) {
    return RatVal{v, IntVal<D>::Constant(1)};
  }
};

template <typename D>
struct Value;

template <typename D>
struct ArrayVal {
  std::vector<size_t> dims;     // outermost first
  std::vector<Value<D>> elems;  // row-major, dims product elements
};

template <typename D>
struct Value {
  std::variant<IntVal<D>, BoolVal<D>, RatVal<D>, ArrayVal<D>> v;

  Value() : v(IntVal<D>::Constant(0)) {}
  Value(IntVal<D> x) : v(std::move(x)) {}    // NOLINT(runtime/explicit)
  Value(BoolVal<D> x) : v(std::move(x)) {}   // NOLINT(runtime/explicit)
  Value(RatVal<D> x) : v(std::move(x)) {}    // NOLINT(runtime/explicit)
  Value(ArrayVal<D> x) : v(std::move(x)) {}  // NOLINT(runtime/explicit)

  bool IsInt() const { return std::holds_alternative<IntVal<D>>(v); }
  bool IsBool() const { return std::holds_alternative<BoolVal<D>>(v); }
  bool IsRational() const { return std::holds_alternative<RatVal<D>>(v); }
  bool IsArray() const { return std::holds_alternative<ArrayVal<D>>(v); }

  const IntVal<D>& AsInt() const { return std::get<IntVal<D>>(v); }
  const BoolVal<D>& AsBool() const { return std::get<BoolVal<D>>(v); }
  const RatVal<D>& AsRational() const { return std::get<RatVal<D>>(v); }
  const ArrayVal<D>& AsArray() const { return std::get<ArrayVal<D>>(v); }
  ArrayVal<D>& AsArray() { return std::get<ArrayVal<D>>(v); }
};

}  // namespace zaatar

#endif  // SRC_COMPILER_VALUES_H_
