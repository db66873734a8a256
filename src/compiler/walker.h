// The zlang AST walker, shared by the compiler and the two checkers that
// compare compiled constraints against the source program.
//
// The walker owns everything that does not depend on what a value is: the
// environment and declared types, statements, `for` unrolling, `var`
// re-initialisation, function inlining, `return`, the builtins, static
// versus runtime array indexing, the write logs and the merge after a
// runtime `if`, and the static-value shadow. A value domain supplies the
// scalars and their operations:
//
//   R1csDomain<F>  src/compiler/evaluator.h               constraints
//   NativeDomain   src/analysis/symbolic/native_interp.h  concrete integers
//   SymDomain<F>   src/analysis/symbolic/sym_eval.h       polynomials
//
// Static shadow. Every scalar carries an optional compile-time value next
// to the domain's representation (src/compiler/values.h), computed by the
// same rules for every domain:
//   - literals, loop variables and folded builtins are static;
//   - + - * and << of static values are static while the magnitude stays
//     below 2^62 (the clip); negation does not clip;
//   - a comparison of two static values is static; a domain may also
//     decide an equality by itself (the compiler's LC-constant shortcut);
//   - `if` and `?:` over a static condition walk one arm; over a runtime
//     condition both arms run and every written variable merges by a mux.
// Domain operations run only where the compiled program pays for a gadget,
// in the order the compiler emits them, so the constraint builder sees one
// fixed call sequence.
//
// Domain contract (D::Int, D::Bool: scalar representations; D::Out: what an
// output slot holds):
//   static Int Const(int64_t);  static Bool BoolConst(bool);
//   static Out IntOut(const Int&);  static Out BoolOut(const Bool&);
//   void SetSourceLine(size_t);
//   void Declared(const Declaration&, const TypeNode& resolved_type);
//   Int InputInt(size_t width);  Bool InputBool();
//   Int Add(a, b, bool subtract, line);  Int Mul(a, b, line);  Int Neg(a);
//   Int Shl(a, k, line);  Int Shr(a, k, line);  Int Bitwise(op, a, b, line);
//   std::pair<Int, Int> DivMod(a, b, line);  Int Sqrt(a, line);
//   Bool Less(a, b, line);  Bool Eq(a, b, std::optional<bool>* decided);
//   Bool BoolEq(x, y);  Bool Not(x);  Bool And(x, y);  Bool Or(x, y);
//   void Assert(c, line);  Int MuxInt(c, a, b);  Bool MuxBool(c, a, b);
//   Int SelectInt(sels, elems);  Bool SelectBool(sels, elems);
//   std::pair<Int, Int> SelectRat(sels, nums, dens);
//   Int FixScale(num, k, w, line);  Int FixShiftDown(num, s, line);
//   Int FixDivide(num, den, q, w, line);
// Shr, Bitwise, DivMod, Sqrt and Less see only operands the walker could not
// fold; the Fix* trio implements assignment to rational<W, q> (below).
//
// Programs the compiler rejects raise CompileError with line and column.
// The checkers only walk programs that compiled, so for them it never fires.

#ifndef SRC_COMPILER_WALKER_H_
#define SRC_COMPILER_WALKER_H_

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/compiler/ast.h"
#include "src/compiler/lexer.h"
#include "src/compiler/values.h"

namespace zaatar {

// One scalar of an input or output declaration, in the order the walker
// creates inputs and collects outputs (a rational is two slots).
struct IoSlotSpec {
  enum class Kind { kInt, kBool, kRatNum, kRatDen };
  std::string name;
  Kind kind = Kind::kInt;
  size_t width = 32;
};

template <typename D>
class AstWalker {
 public:
  using IV = IntVal<D>;
  using BV = BoolVal<D>;
  using RV = RatVal<D>;
  using AV = ArrayVal<D>;
  using V = Value<D>;
  using Out = typename D::Out;

  static constexpr size_t kMaxCallDepth = 64;

  AstWalker(const ProgramAst& ast, D* domain) : ast_(&ast), d_(domain) {}

  // Walks the program. Returns each output declaration's scalars, in
  // declaration and slot order (a rational yields numerator, denominator).
  std::vector<std::vector<Out>> Run() {
    for (const auto& f : ast_->functions) {
      if (!functions_.emplace(f.name, &f).second) {
        throw CompileError("redefinition of function '" + f.name + "'",
                           f.line, f.column);
      }
    }
    for (const auto& d : ast_->decls) {
      Declare(d);
    }
    ExecAll(ast_->body);
    std::vector<std::vector<Out>> outputs(outputs_.size());
    for (size_t i = 0; i < outputs_.size(); i++) {
      const auto& [decl, type] = outputs_[i];
      CollectScalars(env_.at(decl->name), type, decl->line, &outputs[i]);
    }
    return outputs;
  }

 private:
  // ----- declarations -----

  void Declare(const Declaration& d) {
    if (env_.count(d.name) != 0) {
      throw CompileError("redeclaration of '" + d.name + "'", d.line,
                         d.column);
    }
    if (d.kind == Declaration::Kind::kConstant) {
      V v = Eval(*d.init);
      if (!v.IsInt() || !v.AsInt().IsStatic()) {
        throw CompileError("'const' requires a compile-time integer", d.line,
                           d.column);
      }
      env_.emplace(d.name, std::move(v));
      return;
    }

    TypeNode type = d.type;
    if (d.width_expr != nullptr) {
      type.width = static_cast<size_t>(EvalStaticInt(*d.width_expr));
    }
    if (d.den_width_expr != nullptr) {
      type.den_width = static_cast<size_t>(EvalStaticInt(*d.den_width_expr));
    }
    for (const auto& e : d.dim_exprs) {
      int64_t dim = EvalStaticInt(*e);
      if (dim <= 0) {
        throw CompileError("array dimension must be positive", d.line,
                           d.column);
      }
      type.dims.push_back(static_cast<size_t>(dim));
    }
    d_->Declared(d, type);
    switch (d.kind) {
      case Declaration::Kind::kInput:
        env_.emplace(d.name, InputValue(type));
        break;
      case Declaration::Kind::kOutput:
        outputs_.emplace_back(&d, type);
        env_.emplace(d.name, DefaultValue(type));
        break;
      case Declaration::Kind::kLocal:
        env_.emplace(d.name, d.init != nullptr
                                 ? Coerce(Eval(*d.init), type, d.line)
                                 : DefaultValue(type));
        break;
      case Declaration::Kind::kConstant:
        break;  // handled above
    }
    decl_types_.emplace(d.name, type);
  }

  V InputValue(const TypeNode& type) {
    if (!type.IsArray()) {
      return InputScalar(type);
    }
    AV arr;
    arr.dims = type.dims;
    size_t count = type.ElementCount();
    arr.elems.reserve(count);
    for (size_t i = 0; i < count; i++) {
      arr.elems.push_back(InputScalar(type));
    }
    return V(std::move(arr));
  }

  V InputScalar(const TypeNode& type) {
    switch (type.kind) {
      case TypeNode::Kind::kInt:
        return V(IV{d_->InputInt(type.width), std::nullopt});
      case TypeNode::Kind::kBool:
        return V(BV{d_->InputBool(), std::nullopt});
      case TypeNode::Kind::kRational: {
        RV r;
        r.num = IV{d_->InputInt(type.width), std::nullopt};
        r.den = IV{d_->InputInt(type.den_width), std::nullopt};
        return V(std::move(r));
      }
    }
    return V();
  }

  V DefaultValue(const TypeNode& type) {
    V scalar;
    switch (type.kind) {
      case TypeNode::Kind::kInt: scalar = V(IV::Constant(0)); break;
      case TypeNode::Kind::kBool: scalar = V(BV::Constant(false)); break;
      case TypeNode::Kind::kRational:
        scalar = V(RV::FromInt(IV::Constant(0)));
        break;
    }
    if (!type.IsArray()) {
      return scalar;
    }
    AV arr;
    arr.dims = type.dims;
    arr.elems.assign(type.ElementCount(), scalar);
    return V(std::move(arr));
  }

  // Type adaptation on assignment/initialization: ints promote to rationals;
  // everything else must match kinds. Declared widths bound *inputs*;
  // computed values keep their tracked widths.
  V Coerce(V v, const TypeNode& type, size_t line) {
    if (type.kind == TypeNode::Kind::kRational && v.IsInt()) {
      return V(RV::FromInt(v.AsInt()));
    }
    bool ok = (type.kind == TypeNode::Kind::kInt && v.IsInt()) ||
              (type.kind == TypeNode::Kind::kBool && v.IsBool()) ||
              (type.kind == TypeNode::Kind::kRational && v.IsRational()) ||
              v.IsArray();
    if (!ok) {
      throw CompileError("type mismatch in assignment", line, 0);
    }
    return v;
  }

  // ----- statements -----

  void ExecAll(const std::vector<StmtPtr>& body) {
    for (const auto& s : body) {
      Exec(*s);
    }
  }

  void Exec(const Stmt& s) {
    d_->SetSourceLine(s.line);
    switch (s.kind) {
      case Stmt::Kind::kBlock:
        ExecAll(s.body);
        break;
      case Stmt::Kind::kAssign:
        ExecAssign(s);
        break;
      case Stmt::Kind::kIf:
        ExecIf(s);
        break;
      case Stmt::Kind::kFor:
        ExecFor(s);
        break;
      case Stmt::Kind::kAssert:
        ExecAssert(s);
        break;
      case Stmt::Kind::kVarDecl:
        // Statement-level `var`: redeclaration re-initializes (the same
        // statement executes repeatedly in unrolled loops and inlined
        // functions).
        env_.erase(s.decl->name);
        decl_types_.erase(s.decl->name);
        Declare(*s.decl);
        RecordWrite(s.decl->name);
        break;
      case Stmt::Kind::kReturn:
        if (call_depth_ == 0) {
          throw CompileError("'return' outside a function", s.line, s.column);
        }
        return_value_ = Eval(*s.value);
        break;
    }
  }

  // assert cond; — a statically false assertion is a compile error; a
  // runtime one is the domain's (a constraint, a reject, a guard).
  void ExecAssert(const Stmt& s) {
    V cond = Eval(*s.value);
    if (!cond.IsBool()) {
      throw CompileError("assert requires a bool expression", s.line,
                         s.column);
    }
    const BV& c = cond.AsBool();
    if (c.IsStatic()) {
      if (!*c.static_value) {
        throw CompileError("assertion is statically false", s.line, s.column);
      }
      return;
    }
    d_->Assert(c.x, s.line);
  }

  void ExecAssign(const Stmt& s) {
    if (env_.find(s.name) == env_.end()) {
      throw CompileError("assignment to undeclared '" + s.name + "'", s.line,
                         s.column);
    }
    RecordWrite(s.name);
    V rhs = CoerceAssign(s.name, Eval(*s.value), s.line);
    // Re-find: evaluating the RHS may have swapped env_ wholesale (inlined
    // function calls save/restore the environment).
    auto it = env_.find(s.name);
    if (it == env_.end()) {
      throw CompileError("assignment target vanished (internal)", s.line,
                         s.column);
    }
    if (s.indices.empty()) {
      it->second = std::move(rhs);
      return;
    }
    // Array element write.
    if (!it->second.IsArray()) {
      throw CompileError("'" + s.name + "' is not an array", s.line,
                         s.column);
    }
    AV& arr = it->second.AsArray();
    if (s.indices.size() != arr.dims.size()) {
      throw CompileError("wrong number of indices", s.line, s.column);
    }
    IV index = LinearIndex(arr, s.indices, 0, s.line, s.column);
    if (index.IsStatic()) {
      arr.elems[CheckedOffset(index, arr, s.line, s.column)] = std::move(rhs);
      return;
    }
    // Runtime index: mux every slot on an equality selector.
    for (size_t i = 0; i < arr.elems.size(); i++) {
      BV sel = IntEq(index, IV::Constant(static_cast<int64_t>(i)));
      arr.elems[i] = Mux(sel, rhs, arr.elems[i], s.line);
    }
  }

  void ExecIf(const Stmt& s) {
    V cond = Eval(*s.value);
    if (!cond.IsBool()) {
      throw CompileError("if condition must be bool", s.line, s.column);
    }
    const BV& c = cond.AsBool();
    if (c.IsStatic()) {
      ExecAll(*c.static_value ? s.body : s.else_body);
      return;
    }
    // Runtime condition: run both arms against copies, then merge writes.
    std::map<std::string, V> before = env_;
    write_logs_.emplace_back();
    ExecAll(s.body);
    std::set<std::string> written = std::move(write_logs_.back());
    write_logs_.pop_back();
    std::map<std::string, V> then_env = std::move(env_);

    env_ = std::move(before);
    write_logs_.emplace_back();
    ExecAll(s.else_body);
    written.merge(write_logs_.back());
    write_logs_.pop_back();

    for (const auto& name : written) {
      RecordWrite(name);
      env_[name] = Mux(c, then_env.at(name), env_.at(name), s.line);
    }
  }

  void ExecFor(const Stmt& s) {
    int64_t lo = EvalStaticInt(*s.lo);
    int64_t hi = EvalStaticInt(*s.hi);
    auto shadowed = env_.find(s.name);
    std::optional<V> shadow;
    if (shadowed != env_.end()) {
      shadow = shadowed->second;
    }
    for (int64_t k = lo; k <= hi; k++) {
      env_[s.name] = V(IV::Constant(k));
      ExecAll(s.body);
    }
    if (shadow.has_value()) {
      env_[s.name] = std::move(*shadow);
    } else {
      env_.erase(s.name);
    }
  }

  void RecordWrite(const std::string& name) {
    for (auto& log : write_logs_) {
      log.insert(name);
    }
  }

  // ----- fixed-point rationals -----
  //
  // Assignment to a variable declared rational<W, q> *rounds* the value to
  // denominator 2^q (floor semantics) and bounds the numerator by 2^W. This
  // is zlang's realization of Ginger's primitive floating-point: without it,
  // rational widths compound across loop iterations (e.g. Floyd-Warshall's
  // m^3 chained relaxations) and exceed any fixed field. Once a value is
  // fixed-point its denominator is a compile-time constant, so subsequent
  // +/- and scalar ops cost no constraints beyond the next rounding.

  V CoerceAssign(const std::string& name, V rhs, size_t line) {
    auto dt = decl_types_.find(name);
    if (dt == decl_types_.end() ||
        dt->second.kind != TypeNode::Kind::kRational) {
      return rhs;
    }
    const TypeNode& type = dt->second;
    if (rhs.IsArray()) {  // whole-array assignment: fix element-wise
      AV arr = rhs.AsArray();
      for (auto& elem : arr.elems) {
        elem = V(FixRational(ToRational(elem, line), type.width,
                             type.den_width, line));
      }
      return V(std::move(arr));
    }
    return V(FixRational(ToRational(rhs, line), type.width, type.den_width,
                         line));
  }

  static std::optional<size_t> StaticPowerOfTwo(const IV& v) {
    if (!v.IsStatic() || *v.static_value <= 0) {
      return std::nullopt;
    }
    uint64_t x = static_cast<uint64_t>(*v.static_value);
    if ((x & (x - 1)) != 0) {
      return std::nullopt;
    }
    return static_cast<size_t>(__builtin_ctzll(x));
  }

  // num' = floor(num·2^q / den), den' = 2^q, by one of three paths: an
  // exact rescale when den is a static 2^e with e <= q, a shift down by
  // e - q when e > q, and the division gadget for any other denominator.
  RV FixRational(const RV& x, size_t w, size_t q, size_t line) {
    if (q > 62) {
      throw CompileError("fixed-point denominator exceeds 2^62", line, 0);
    }
    auto e = StaticPowerOfTwo(x.den);
    RV out;
    out.den = IV::Constant(int64_t{1} << q);
    if (e.has_value() && *e <= q) {
      size_t k = q - *e;
      out.num = IV{d_->FixScale(x.num.x, k, w, line),
                   ShlStatic(x.num.static_value, k)};
    } else if (e.has_value()) {
      out.num = IV{d_->FixShiftDown(x.num.x, *e - q, line), std::nullopt};
    } else {
      out.num = IV{d_->FixDivide(x.num.x, x.den.x, q, w, line), std::nullopt};
    }
    return out;
  }

  // ----- expressions -----

  V Eval(const Expr& e) {
    if (e.line != 0) {
      d_->SetSourceLine(e.line);
    }
    switch (e.kind) {
      case Expr::Kind::kIntLit:
        return V(IV::Constant(e.int_value));
      case Expr::Kind::kBoolLit:
        return V(BV::Constant(e.int_value != 0));
      case Expr::Kind::kVarRef: {
        auto it = env_.find(e.name);
        if (it == env_.end()) {
          throw CompileError("undeclared identifier '" + e.name + "'", e.line,
                             e.column);
        }
        return it->second;
      }
      case Expr::Kind::kIndex:
        return EvalIndex(e);
      case Expr::Kind::kBinary:
        return EvalBinary(e);
      case Expr::Kind::kUnary:
        return EvalUnary(e);
      case Expr::Kind::kTernary: {
        V cond = Eval(*e.children[0]);
        if (!cond.IsBool()) {
          throw CompileError("ternary condition must be bool", e.line,
                             e.column);
        }
        const BV& c = cond.AsBool();
        if (c.IsStatic()) {
          return Eval(*c.static_value ? *e.children[1] : *e.children[2]);
        }
        V a = Eval(*e.children[1]);
        V b = Eval(*e.children[2]);
        return Mux(c, a, b, e.line);
      }
      case Expr::Kind::kCall:
        return EvalCall(e);
    }
    throw CompileError("internal: unknown expression kind", e.line, e.column);
  }

  int64_t EvalStaticInt(const Expr& e) {
    V v = Eval(e);
    if (!v.IsInt() || !v.AsInt().IsStatic()) {
      throw CompileError("expression must be a compile-time integer", e.line,
                         e.column);
    }
    return *v.AsInt().static_value;
  }

  V EvalCall(const Expr& e) {
    auto arg = [&](size_t i) -> V { return Eval(*e.children[i]); };
    auto arity = [&](size_t n, const char* what) {
      if (e.children.size() != n) {
        throw CompileError(e.name + what, e.line, e.column);
      }
    };
    if (e.name == "min" || e.name == "max") {
      arity(2, " takes two arguments");
      V a = arg(0), b = arg(1);
      BV a_less = Less(a, b, e.line);
      return e.name == "min" ? Mux(a_less, a, b, e.line)
                             : Mux(a_less, b, a, e.line);
    }
    if (e.name == "abs") {
      arity(1, " takes one argument");
      V a = arg(0);
      V neg = Negate(a, e.line);
      BV is_neg = Less(a, V(IV::Constant(0)), e.line);
      return Mux(is_neg, neg, a, e.line);
    }
    if (e.name == "idiv" || e.name == "imod") {
      arity(2, " takes two arguments");
      V a = arg(0), b = arg(1);
      if (!a.IsInt() || !b.IsInt()) {
        throw CompileError(e.name + " requires integer arguments", e.line,
                           e.column);
      }
      auto [q, r] = IntDivMod(a.AsInt(), b.AsInt(), e.line);
      return e.name == "idiv" ? V(q) : V(r);
    }
    if (e.name == "isqrt") {
      arity(1, " takes one argument");
      V a = arg(0);
      if (!a.IsInt()) {
        throw CompileError("isqrt requires an integer argument", e.line,
                           e.column);
      }
      return V(IntSqrt(a.AsInt(), e.line));
    }
    auto fn = functions_.find(e.name);
    if (fn != functions_.end()) {
      return CallFunction(*fn->second, e);
    }
    throw CompileError("unknown function '" + e.name + "'", e.line, e.column);
  }

  // Inlines a user function: arguments bind into a saved-and-restored copy
  // of the environment, so writes inside the function stay local.
  V CallFunction(const FunctionDecl& f, const Expr& call) {
    if (call.children.size() != f.params.size()) {
      throw CompileError("function '" + f.name + "' expects " +
                             std::to_string(f.params.size()) + " arguments",
                         call.line, call.column);
    }
    if (call_depth_ >= kMaxCallDepth) {
      throw CompileError("call depth limit exceeded (recursion?)", call.line,
                         call.column);
    }
    std::vector<V> args;
    args.reserve(f.params.size());
    for (size_t i = 0; i < f.params.size(); i++) {
      args.push_back(Eval(*call.children[i]));
    }
    std::map<std::string, V> saved_env = env_;
    auto saved_decl_types = decl_types_;
    for (size_t i = 0; i < f.params.size(); i++) {
      const auto& p = f.params[i];
      V v = std::move(args[i]);
      if (p.type.kind == TypeNode::Kind::kRational && v.IsInt()) {
        v = V(RV::FromInt(v.AsInt()));
      }
      env_[p.name] = std::move(v);
      decl_types_.erase(p.name);  // param widths are advisory, not rounding
    }
    call_depth_++;
    return_value_.reset();
    ExecAll(f.body);
    call_depth_--;
    if (!return_value_.has_value()) {
      throw CompileError("function '" + f.name + "' did not return",
                         call.line, call.column);
    }
    V result = std::move(*return_value_);
    return_value_.reset();
    env_ = std::move(saved_env);
    decl_types_ = std::move(saved_decl_types);
    return result;
  }

  // Floor division; the domain's gadget needs b > 0 at runtime.
  std::pair<IV, IV> IntDivMod(const IV& a, const IV& b, size_t line) {
    if (a.IsStatic() && b.IsStatic() && *b.static_value > 0) {
      int64_t av = *a.static_value, bv = *b.static_value;
      int64_t q = av / bv, r = av % bv;
      if (r < 0) {  // floor semantics
        q -= 1;
        r += bv;
      }
      return {IV::Constant(q), IV::Constant(r)};
    }
    auto [q, r] = d_->DivMod(a.x, b.x, line);
    return {IV{std::move(q), std::nullopt}, IV{std::move(r), std::nullopt}};
  }

  // Integer square root: s with s^2 <= x < (s+1)^2; requires x >= 0.
  IV IntSqrt(const IV& x, size_t line) {
    if (x.IsStatic() && *x.static_value >= 0) {
      int64_t v = *x.static_value;
      int64_t s = static_cast<int64_t>(std::sqrt(static_cast<double>(v)));
      while (s > 0 && s * s > v) {
        s--;
      }
      while ((s + 1) * (s + 1) <= v) {
        s++;
      }
      return IV::Constant(s);
    }
    return IV{d_->Sqrt(x.x, line), std::nullopt};
  }

  V EvalIndex(const Expr& e) {
    const Expr& base = *e.children[0];
    auto it = env_.find(base.name);
    if (it == env_.end() || !it->second.IsArray()) {
      throw CompileError("'" + base.name + "' is not an array", e.line,
                         e.column);
    }
    const AV& arr = it->second.AsArray();
    if (e.children.size() - 1 != arr.dims.size()) {
      throw CompileError("wrong number of indices", e.line, e.column);
    }
    IV index = LinearIndex(arr, e.children, 1, e.line, 0);
    if (index.IsStatic()) {
      return arr.elems[CheckedOffset(index, arr, e.line, e.column)];
    }
    return SelectRuntime(arr, index, e.line);
  }

  // ----- integer ops: the static shadow around the domain's arithmetic -----

  static std::optional<int64_t> ClipStatic(__int128 v) {
    const __int128 kLimit = static_cast<__int128>(1) << 62;
    if (v >= kLimit || v <= -kLimit) {
      return std::nullopt;
    }
    return static_cast<int64_t>(v);
  }

  static std::optional<int64_t> ShlStatic(std::optional<int64_t> v,
                                          size_t k) {
    if (v == 0) {
      return v;
    }
    if (!v.has_value() || k > 62) {
      return std::nullopt;
    }
    return ClipStatic(*v * (static_cast<__int128>(1) << k));
  }

  IV IntAdd(const IV& a, const IV& b, size_t line, bool subtract = false) {
    IV r{d_->Add(a.x, b.x, subtract, line), std::nullopt};
    if (a.IsStatic() && b.IsStatic()) {
      __int128 bv = *b.static_value;
      r.static_value = ClipStatic(*a.static_value + (subtract ? -bv : bv));
    }
    return r;
  }

  IV IntMul(const IV& a, const IV& b, size_t line) {
    IV r{d_->Mul(a.x, b.x, line), std::nullopt};
    if (a.IsStatic() && b.IsStatic()) {
      r.static_value = ClipStatic(static_cast<__int128>(*a.static_value) *
                                  *b.static_value);
    }
    return r;
  }

  IV IntNeg(const IV& a) {
    IV r{d_->Neg(a.x), std::nullopt};
    if (a.IsStatic()) {
      r.static_value = -*a.static_value;  // no clip
    }
    return r;
  }

  BV IntLess(const IV& a, const IV& b, size_t line) {
    if (a.IsStatic() && b.IsStatic()) {
      return BV::Constant(*a.static_value < *b.static_value);
    }
    return BV{d_->Less(a.x, b.x, line), std::nullopt};
  }

  BV IntEq(const IV& a, const IV& b) {
    if (a.IsStatic() && b.IsStatic()) {
      return BV::Constant(*a.static_value == *b.static_value);
    }
    std::optional<bool> decided;
    typename D::Bool eq = d_->Eq(a.x, b.x, &decided);
    if (decided.has_value()) {
      return BV::Constant(*decided);
    }
    return BV{std::move(eq), std::nullopt};
  }

  // Bitwise ops fold on nonnegative static operands only.
  IV IntBitwise(TokenKind op, const IV& a, const IV& b, size_t line) {
    if (a.IsStatic() && b.IsStatic() && *a.static_value >= 0 &&
        *b.static_value >= 0) {
      int64_t av = *a.static_value, bv = *b.static_value;
      int64_t r = op == TokenKind::kAmp   ? (av & bv)
                  : op == TokenKind::kPipe ? (av | bv)
                                           : (av ^ bv);
      return IV::Constant(r);
    }
    return IV{d_->Bitwise(op, a.x, b.x, line), std::nullopt};
  }

  IV IntShl(const IV& a, size_t k, size_t line) {
    return IV{d_->Shl(a.x, k, line), ShlStatic(a.static_value, k)};
  }

  // Arithmetic (floor) right shift, valid for negative values too.
  IV IntShr(const IV& a, size_t k, size_t line) {
    if (a.IsStatic()) {
      return IV::Constant(*a.static_value >> (k > 63 ? 63 : k));
    }
    return IV{d_->Shr(a.x, k, line), std::nullopt};
  }

  // ----- bool ops -----

  BV BoolNot(const BV& a) {
    BV r{d_->Not(a.x), std::nullopt};
    if (a.IsStatic()) {
      r.static_value = !*a.static_value;
    }
    return r;
  }

  BV BoolAnd(const BV& a, const BV& b) {
    if (a.IsStatic()) {
      return *a.static_value ? b : BV::Constant(false);
    }
    if (b.IsStatic()) {
      return *b.static_value ? a : BV::Constant(false);
    }
    return BV{d_->And(a.x, b.x), std::nullopt};
  }

  BV BoolOr(const BV& a, const BV& b) {
    if (a.IsStatic()) {
      return *a.static_value ? BV::Constant(true) : b;
    }
    if (b.IsStatic()) {
      return *b.static_value ? BV::Constant(true) : a;
    }
    return BV{d_->Or(a.x, b.x), std::nullopt};
  }

  // ----- rational ops -----

  RV ToRational(const V& v, size_t line) const {
    if (v.IsRational()) {
      return v.AsRational();
    }
    if (v.IsInt()) {
      return RV::FromInt(v.AsInt());
    }
    throw CompileError("expected a numeric value", line, 0);
  }

  RV RatAdd(const RV& a, const RV& b, size_t line, bool subtract = false) {
    RV r;
    IV n1d2 = IntMul(a.num, b.den, line);
    IV n2d1 = IntMul(b.num, a.den, line);
    r.num = IntAdd(n1d2, n2d1, line, subtract);
    r.den = IntMul(a.den, b.den, line);
    return r;
  }

  RV RatMul(const RV& a, const RV& b, size_t line) {
    RV r;
    r.num = IntMul(a.num, b.num, line);
    r.den = IntMul(a.den, b.den, line);
    return r;
  }

  // ----- generic dispatch -----

  // n1/d1 < n2/d2  <=>  n1·d2 < n2·d1 (denominators positive).
  BV Less(const V& a, const V& b, size_t line) {
    if (a.IsInt() && b.IsInt()) {
      return IntLess(a.AsInt(), b.AsInt(), line);
    }
    RV ra = ToRational(a, line), rb = ToRational(b, line);
    // n2·d1 first: the product order fixes the compiled variable numbering.
    IV rhs = IntMul(rb.num, ra.den, line);
    IV lhs = IntMul(ra.num, rb.den, line);
    return IntLess(lhs, rhs, line);
  }

  V Negate(const V& a, size_t line) {
    if (a.IsInt()) {
      return V(IntNeg(a.AsInt()));
    }
    if (a.IsRational()) {
      RV r = a.AsRational();
      r.num = IntNeg(r.num);
      return V(r);
    }
    throw CompileError("cannot negate this type", line, 0);
  }

  V Mux(const BV& c, const V& a, const V& b, size_t line) {
    if (c.IsStatic()) {
      return *c.static_value ? a : b;
    }
    if (a.IsArray() || b.IsArray()) {
      if (!a.IsArray() || !b.IsArray() ||
          a.AsArray().dims != b.AsArray().dims) {
        throw CompileError("mux over mismatched arrays", line, 0);
      }
      AV out;
      out.dims = a.AsArray().dims;
      out.elems.reserve(a.AsArray().elems.size());
      for (size_t i = 0; i < a.AsArray().elems.size(); i++) {
        out.elems.push_back(
            Mux(c, a.AsArray().elems[i], b.AsArray().elems[i], line));
      }
      return V(std::move(out));
    }
    if (a.IsBool() && b.IsBool()) {
      return V(BV{d_->MuxBool(c.x, a.AsBool().x, b.AsBool().x), std::nullopt});
    }
    if (a.IsInt() && b.IsInt()) {
      return V(IV{d_->MuxInt(c.x, a.AsInt().x, b.AsInt().x), std::nullopt});
    }
    if ((a.IsRational() || a.IsInt()) && (b.IsRational() || b.IsInt())) {
      RV ra = ToRational(a, line), rb = ToRational(b, line);
      RV r;
      r.num = IV{d_->MuxInt(c.x, ra.num.x, rb.num.x), std::nullopt};
      r.den = IV{d_->MuxInt(c.x, ra.den.x, rb.den.x), std::nullopt};
      return V(r);
    }
    throw CompileError("mux over mismatched types", line, 0);
  }

  V EvalBinary(const Expr& e) {
    // Short-circuitable bool ops still evaluate both sides (no side effects
    // in expressions), so plain dispatch is fine.
    V a = Eval(*e.children[0]);
    V b = Eval(*e.children[1]);
    switch (e.op) {
      case TokenKind::kPlus:
      case TokenKind::kMinus: {
        bool sub = e.op == TokenKind::kMinus;
        if (a.IsInt() && b.IsInt()) {
          return V(IntAdd(a.AsInt(), b.AsInt(), e.line, sub));
        }
        return V(RatAdd(ToRational(a, e.line), ToRational(b, e.line), e.line,
                        sub));
      }
      case TokenKind::kStar:
        if (a.IsInt() && b.IsInt()) {
          return V(IntMul(a.AsInt(), b.AsInt(), e.line));
        }
        return V(RatMul(ToRational(a, e.line), ToRational(b, e.line), e.line));
      case TokenKind::kSlash:
        return EvalDivide(a, b, e);
      case TokenKind::kPercent: {
        if (!a.IsInt() || !b.IsInt() || !a.AsInt().IsStatic() ||
            !b.AsInt().IsStatic()) {
          throw CompileError("'%' requires compile-time integers", e.line,
                             e.column);
        }
        if (*b.AsInt().static_value == 0) {
          throw CompileError("division by zero", e.line, e.column);
        }
        return V(IV::Constant(*a.AsInt().static_value %
                              *b.AsInt().static_value));
      }
      case TokenKind::kLess:
        return V(Less(a, b, e.line));
      case TokenKind::kGreater:
        return V(Less(b, a, e.line));
      case TokenKind::kLessEq:
        return V(BoolNot(Less(b, a, e.line)));
      case TokenKind::kGreaterEq:
        return V(BoolNot(Less(a, b, e.line)));
      case TokenKind::kEqEq:
      case TokenKind::kNotEq: {
        BV eq = EvalEq(a, b, e.line);
        return V(e.op == TokenKind::kEqEq ? eq : BoolNot(eq));
      }
      case TokenKind::kAndAnd:
        RequireBool(a, b, e);
        return V(BoolAnd(a.AsBool(), b.AsBool()));
      case TokenKind::kOrOr:
        RequireBool(a, b, e);
        return V(BoolOr(a.AsBool(), b.AsBool()));
      case TokenKind::kAmp:
      case TokenKind::kPipe:
      case TokenKind::kCaret:
        if (!a.IsInt() || !b.IsInt()) {
          throw CompileError("bitwise operator requires integers", e.line,
                             e.column);
        }
        return V(IntBitwise(e.op, a.AsInt(), b.AsInt(), e.line));
      case TokenKind::kShl:
      case TokenKind::kShr: {
        if (!a.IsInt() || !b.IsInt() || !b.AsInt().IsStatic() ||
            *b.AsInt().static_value < 0) {
          throw CompileError(
              "shift amount must be a nonnegative compile-time integer",
              e.line, e.column);
        }
        size_t k = static_cast<size_t>(*b.AsInt().static_value);
        return V(e.op == TokenKind::kShl ? IntShl(a.AsInt(), k, e.line)
                                         : IntShr(a.AsInt(), k, e.line));
      }
      default:
        throw CompileError("internal: unknown binary operator", e.line,
                           e.column);
    }
  }

  BV EvalEq(const V& a, const V& b, size_t line) {
    if (a.IsBool() && b.IsBool()) {
      const BV& x = a.AsBool();
      const BV& y = b.AsBool();
      if (x.IsStatic() && y.IsStatic()) {
        return BV::Constant(*x.static_value == *y.static_value);
      }
      return BV{d_->BoolEq(x.x, y.x), std::nullopt};
    }
    if (a.IsInt() && b.IsInt()) {
      return IntEq(a.AsInt(), b.AsInt());
    }
    RV ra = ToRational(a, line), rb = ToRational(b, line);
    IV rhs = IntMul(rb.num, ra.den, line);  // product order as in Less
    IV lhs = IntMul(ra.num, rb.den, line);
    return IntEq(lhs, rhs);
  }

  V EvalDivide(const V& a, const V& b, const Expr& e) {
    // Integer division: compile-time only. Rational division: by a positive
    // compile-time integer (scales the denominator; positivity preserved).
    if (a.IsInt() && b.IsInt() && a.AsInt().IsStatic() &&
        b.AsInt().IsStatic()) {
      if (*b.AsInt().static_value == 0) {
        throw CompileError("division by zero", e.line, e.column);
      }
      return V(IV::Constant(*a.AsInt().static_value /
                            *b.AsInt().static_value));
    }
    if (b.IsInt() && b.AsInt().IsStatic()) {
      int64_t k = *b.AsInt().static_value;
      if (k <= 0) {
        throw CompileError("rational division requires a positive constant",
                           e.line, e.column);
      }
      RV r = ToRational(a, e.line);
      r.den = IntMul(r.den, IV::Constant(k), e.line);
      return V(r);
    }
    throw CompileError(
        "unsupported division (only by compile-time constants)", e.line,
        e.column);
  }

  void RequireBool(const V& a, const V& b, const Expr& e) {
    if (!a.IsBool() || !b.IsBool()) {
      throw CompileError("logical operator requires bool operands", e.line,
                         e.column);
    }
  }

  V EvalUnary(const Expr& e) {
    V a = Eval(*e.children[0]);
    if (e.op == TokenKind::kMinus) {
      return Negate(a, e.line);
    }
    if (e.op == TokenKind::kNot) {
      if (!a.IsBool()) {
        throw CompileError("'!' requires a bool", e.line, e.column);
      }
      return V(BoolNot(a.AsBool()));
    }
    throw CompileError("internal: unknown unary operator", e.line, e.column);
  }

  // ----- array helpers -----

  // Row-major offset of exprs[first..first+dims); static when every index is.
  IV LinearIndex(const AV& arr, const std::vector<ExprPtr>& exprs,
                 size_t first, size_t line, size_t column) {
    IV idx = IV::Constant(0);
    for (size_t k = 0; k < arr.dims.size(); k++) {
      V v = Eval(*exprs[first + k]);
      if (!v.IsInt()) {
        throw CompileError("array index must be an integer", line, column);
      }
      idx = IntMul(idx, IV::Constant(static_cast<int64_t>(arr.dims[k])),
                   line);
      idx = IntAdd(idx, v.AsInt(), line);
    }
    return idx;
  }

  static size_t CheckedOffset(const IV& index, const AV& arr, size_t line,
                              size_t column) {
    int64_t off = *index.static_value;
    if (off < 0 || static_cast<size_t>(off) >= arr.elems.size()) {
      throw CompileError("array index out of bounds", line, column);
    }
    return static_cast<size_t>(off);
  }

  // Runtime read: the domain combines the slots under one equality
  // selector per slot.
  V SelectRuntime(const AV& arr, const IV& index, size_t line) {
    std::vector<typename D::Bool> sels;
    sels.reserve(arr.elems.size());
    for (size_t i = 0; i < arr.elems.size(); i++) {
      sels.push_back(IntEq(index, IV::Constant(static_cast<int64_t>(i))).x);
    }
    const V& first = arr.elems[0];
    if (first.IsInt()) {
      std::vector<const typename D::Int*> elems;
      for (const auto& v : arr.elems) {
        elems.push_back(&v.AsInt().x);
      }
      return V(IV{d_->SelectInt(sels, elems), std::nullopt});
    }
    if (first.IsBool()) {
      std::vector<const typename D::Bool*> elems;
      for (const auto& v : arr.elems) {
        elems.push_back(&v.AsBool().x);
      }
      return V(BV{d_->SelectBool(sels, elems), std::nullopt});
    }
    if (first.IsRational()) {
      std::vector<const typename D::Int*> nums, dens;
      for (const auto& v : arr.elems) {
        nums.push_back(&v.AsRational().num.x);
        dens.push_back(&v.AsRational().den.x);
      }
      auto [num, den] = d_->SelectRat(sels, nums, dens);
      return V(RV{IV{std::move(num), std::nullopt},
                  IV{std::move(den), std::nullopt}});
    }
    throw CompileError("runtime indexing of nested arrays is unsupported",
                       line, 0);
  }

  // ----- outputs -----

  void CollectScalars(const V& v, const TypeNode& type, size_t line,
                      std::vector<Out>* out) {
    if (v.IsArray()) {
      for (const auto& elem : v.AsArray().elems) {
        CollectScalars(elem, type, line, out);
      }
      return;
    }
    switch (type.kind) {
      case TypeNode::Kind::kInt:
        if (!v.IsInt()) {
          throw CompileError("output type mismatch (expected int)", line, 0);
        }
        out->push_back(D::IntOut(v.AsInt().x));
        break;
      case TypeNode::Kind::kBool:
        if (!v.IsBool()) {
          throw CompileError("output type mismatch (expected bool)", line, 0);
        }
        out->push_back(D::BoolOut(v.AsBool().x));
        break;
      case TypeNode::Kind::kRational: {
        RV r = ToRational(v, line);
        out->push_back(D::IntOut(r.num.x));
        out->push_back(D::IntOut(r.den.x));
        break;
      }
    }
  }

  const ProgramAst* ast_;
  D* d_;
  std::map<std::string, V> env_;
  std::map<std::string, TypeNode> decl_types_;
  std::map<std::string, const FunctionDecl*> functions_;
  std::vector<std::pair<const Declaration*, TypeNode>> outputs_;
  size_t call_depth_ = 0;
  std::optional<V> return_value_;
  std::vector<std::set<std::string>> write_logs_;
};

}  // namespace zaatar

#endif  // SRC_COMPILER_WALKER_H_
