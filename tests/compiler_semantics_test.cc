// Semantics of compiled programs: every test compiles a zlang snippet, runs
// the witness solver on concrete inputs, checks both constraint systems are
// satisfied, and compares decoded outputs against expectations.

#include <gtest/gtest.h>

#include "src/compiler/compile.h"
#include "src/field/fields.h"

namespace zaatar {
namespace {

using F = F128;

std::vector<int64_t> RunProgram(const std::string& source,
                         const std::vector<int64_t>& inputs) {
  auto program = CompileZlang<F>(source);
  std::vector<F> in;
  in.reserve(inputs.size());
  for (int64_t v : inputs) {
    in.push_back(EncodeSignedInt<F>(v));
  }
  auto gw = program.SolveGinger(in);
  EXPECT_TRUE(program.ginger.IsSatisfied(gw))
      << "ginger constraint " << program.ginger.FirstViolated(gw);
  auto zw = program.SolveZaatar(gw);
  EXPECT_TRUE(program.zaatar.r1cs.IsSatisfied(zw))
      << "r1cs constraint " << program.zaatar.r1cs.FirstViolated(zw);
  std::vector<int64_t> out;
  for (const F& v : program.ExtractOutputs(gw)) {
    out.push_back(DecodeSignedInt<F>(v));
  }
  return out;
}

TEST(SemanticsTest, ArithmeticAndPrecedence) {
  EXPECT_EQ(RunProgram("input int32 a; input int32 b; output int<70> y;"
                "y = a * b + a - 2 * b;",
                {7, 5}),
            (std::vector<int64_t>{7 * 5 + 7 - 10}));
}

TEST(SemanticsTest, NegativeValuesFlowThrough) {
  EXPECT_EQ(RunProgram("input int32 a; output int<70> y; y = a * a - a;", {-9}),
            (std::vector<int64_t>{81 + 9}));
  EXPECT_EQ(RunProgram("input int32 a; output int32 y; y = -a;", {13}),
            (std::vector<int64_t>{-13}));
}

// Comparison operators across sign combinations and boundaries.
struct CmpCase {
  int64_t a, b;
};
class ComparisonTest : public ::testing::TestWithParam<CmpCase> {};

TEST_P(ComparisonTest, AllOperatorsMatchNative) {
  auto [a, b] = GetParam();
  auto out = RunProgram(
      "input int32 a; input int32 b;"
      "output bool lt; output bool le; output bool gt; output bool ge;"
      "output bool eq; output bool ne;"
      "lt = a < b; le = a <= b; gt = a > b; ge = a >= b;"
      "eq = a == b; ne = a != b;",
      {a, b});
  EXPECT_EQ(out, (std::vector<int64_t>{a < b, a <= b, a > b, a >= b, a == b,
                                       a != b}))
      << "a=" << a << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, ComparisonTest,
    ::testing::Values(CmpCase{0, 0}, CmpCase{1, 0}, CmpCase{0, 1},
                      CmpCase{-1, 1}, CmpCase{1, -1}, CmpCase{-5, -5},
                      CmpCase{-5, -4}, CmpCase{123456, 123457},
                      CmpCase{-2147483648, 2147483647},
                      CmpCase{2147483647, 2147483647}));

TEST(SemanticsTest, BooleanOperators) {
  for (int a = 0; a <= 1; a++) {
    for (int b = 0; b <= 1; b++) {
      auto out = RunProgram(
          "input bool a; input bool b;"
          "output bool andv; output bool orv; output bool notv;"
          "output bool eqv;"
          "andv = a && b; orv = a || b; notv = !a; eqv = a == b;",
          {a, b});
      EXPECT_EQ(out, (std::vector<int64_t>{a && b, a || b, !a, a == b}));
    }
  }
}

TEST(SemanticsTest, TernarySelectsOnRuntimeCondition) {
  EXPECT_EQ(RunProgram("input int32 a; output int32 y; y = a > 10 ? 100 : 200;",
                {11}),
            (std::vector<int64_t>{100}));
  EXPECT_EQ(RunProgram("input int32 a; output int32 y; y = a > 10 ? 100 : 200;",
                {10}),
            (std::vector<int64_t>{200}));
}

TEST(SemanticsTest, MinMaxAbsBuiltins) {
  EXPECT_EQ(RunProgram("input int32 a; input int32 b;"
                "output int32 lo; output int32 hi; output int32 m;"
                "lo = min(a, b); hi = max(a, b); m = abs(a - b);",
                {-7, 4}),
            (std::vector<int64_t>{-7, 4, 11}));
}

TEST(SemanticsTest, RuntimeIfMergesOnlyWrittenVariables) {
  auto out = RunProgram(
      "input int32 a;"
      "output int32 x; output int32 y;"
      "var int32 u; var int32 v;"
      "u = 1; v = 2;"
      "if (a > 0) { u = 10; } else { v = 20; }"
      "x = u; y = v;",
      {5});
  EXPECT_EQ(out, (std::vector<int64_t>{10, 2}));
  out = RunProgram(
      "input int32 a;"
      "output int32 x; output int32 y;"
      "var int32 u; var int32 v;"
      "u = 1; v = 2;"
      "if (a > 0) { u = 10; } else { v = 20; }"
      "x = u; y = v;",
      {-5});
  EXPECT_EQ(out, (std::vector<int64_t>{1, 20}));
}

TEST(SemanticsTest, NestedRuntimeConditions) {
  const char* src =
      "input int32 a; output int32 y;"
      "y = 0;"
      "if (a > 0) { if (a > 10) { y = 2; } else { y = 1; } }"
      "else { y = -1; }";
  EXPECT_EQ(RunProgram(src, {20})[0], 2);
  EXPECT_EQ(RunProgram(src, {5})[0], 1);
  EXPECT_EQ(RunProgram(src, {-3})[0], -1);
}

TEST(SemanticsTest, StaticConditionCompilesOneArm) {
  auto p = CompileZlang<F>(
      "output int32 y; if (1 < 2) { y = 7; } else { y = 8; }");
  auto gw = p.SolveGinger({});
  EXPECT_EQ(DecodeSignedInt<F>(p.ExtractOutputs(gw)[0]), 7);
}

TEST(SemanticsTest, LoopsUnrollWithConstBounds) {
  EXPECT_EQ(RunProgram("output int32 y; var int32 s; s = 0;"
                "for i in 1..10 { s = s + i; } y = s;",
                {}),
            (std::vector<int64_t>{55}));
}

TEST(SemanticsTest, NestedLoopsAndLoopVarArithmetic) {
  EXPECT_EQ(RunProgram("output int32 y; var int32 s; s = 0;"
                "for i in 0..3 { for j in 0..i { s = s + i * j; } } y = s;",
                {}),
            (std::vector<int64_t>{25}))  // 0 + 1 + (2+4) + (3+6+9)
      << "sum of i*j for j<=i<=3";
}

TEST(SemanticsTest, StaticArrayIndexing) {
  EXPECT_EQ(RunProgram("input int32 a[4]; output int32 y;"
                "y = a[0] + a[3] * 2;",
                {5, 6, 7, 8}),
            (std::vector<int64_t>{5 + 16}));
}

TEST(SemanticsTest, MultiDimensionalArrays) {
  EXPECT_EQ(RunProgram("input int32 a[2][3]; output int32 y;"
                "y = a[0][0] + a[1][2];",
                {1, 2, 3, 4, 5, 6}),
            (std::vector<int64_t>{1 + 6}));
}

TEST(SemanticsTest, RuntimeArrayRead) {
  const char* src =
      "input int32 a[5]; input int32 i; output int32 y; y = a[i];";
  EXPECT_EQ(RunProgram(src, {10, 20, 30, 40, 50, 3})[0], 40);
  EXPECT_EQ(RunProgram(src, {10, 20, 30, 40, 50, 0})[0], 10);
}

TEST(SemanticsTest, RuntimeArrayWrite) {
  const char* src =
      "input int32 i; output int32 y0; output int32 y1; output int32 y2;"
      "var int32 a[3];"
      "a[0] = 1; a[1] = 2; a[2] = 3;"
      "a[i] = 99;"
      "y0 = a[0]; y1 = a[1]; y2 = a[2];";
  EXPECT_EQ(RunProgram(src, {1}), (std::vector<int64_t>{1, 99, 3}));
  EXPECT_EQ(RunProgram(src, {2}), (std::vector<int64_t>{1, 2, 99}));
}

TEST(SemanticsTest, ArrayOutputs) {
  EXPECT_EQ(RunProgram("input int32 a[3]; output int32 y[3];"
                "for i in 0..2 { y[i] = a[i] * a[i]; }",
                {2, 3, 4}),
            (std::vector<int64_t>{4, 9, 16}));
}

TEST(SemanticsTest, StaticDivisionAndModulo) {
  EXPECT_EQ(RunProgram("output int32 y; output int32 r; const a = 17; const b = 5;"
                "y = a / b; r = a % b;",
                {}),
            (std::vector<int64_t>{3, 2}));
}

TEST(SemanticsTest, FixedPointRationalAssignmentRounds) {
  // r is rational<W, 4>: values round down to multiples of 1/16.
  // 7/3 = 2.333... -> floor(7*16/3)/16 = 37/16.
  auto out = RunProgram(
      "input rational<16, 8> w; output rational<20, 4> r; r = w;",
      {7, 3});
  EXPECT_EQ(out, (std::vector<int64_t>{37, 16}));
}

TEST(SemanticsTest, FixedPointArithmeticIsExactOnTheGrid) {
  // 3/2 + 5/4 = 11/4 representable exactly with 4 fractional bits.
  auto out = RunProgram(
      "input rational<16, 8> a; input rational<16, 8> b;"
      "output rational<24, 4> y;"
      "var rational<20, 4> fa; var rational<20, 4> fb;"
      "fa = a; fb = b; y = fa + fb;",
      {3, 2, 5, 4});
  EXPECT_EQ(out, (std::vector<int64_t>{44, 16}));  // 2.75 * 16 = 44
}

TEST(SemanticsTest, RationalComparisonsCrossMultiply) {
  auto out = RunProgram(
      "input rational<16, 8> a; input rational<16, 8> b;"
      "output bool lt; output bool eq;"
      "lt = a < b; eq = a == b;",
      {1, 3, 1, 2});  // 1/3 < 1/2
  EXPECT_EQ(out, (std::vector<int64_t>{1, 0}));
  out = RunProgram(
      "input rational<16, 8> a; input rational<16, 8> b;"
      "output bool lt; output bool eq;"
      "lt = a < b; eq = a == b;",
      {2, 4, 1, 2});  // 2/4 == 1/2
  EXPECT_EQ(out, (std::vector<int64_t>{0, 1}));
}

TEST(SemanticsTest, RationalMinAndDivisionByConstant) {
  auto out = RunProgram(
      "input rational<16, 8> a; input rational<16, 8> b;"
      "output rational<24, 8> mid;"
      "var rational<20, 8> lo;"
      "lo = min(a, b);"
      "mid = (lo + lo) / 2;",
      {3, 4, 1, 2});  // min(3/4, 1/2) = 1/2; (1/2+1/2)/2 = 1/2
  // lo = 1/2 fixed at 2^-8: 128/256; mid = 128/256 again.
  EXPECT_EQ(out[0] * (int64_t{1} << 8), out[1] * 128);
}

TEST(SemanticsTest, ConstantsAndWidthExpressions) {
  EXPECT_EQ(RunProgram("const w = 30; const n = 2 * 2;"
                "input int<w> a[n]; output int<w + 10> y;"
                "y = a[0] + a[1] + a[2] + a[3];",
                {1, 2, 3, 4}),
            (std::vector<int64_t>{10}));
}

TEST(SemanticsTest, CompileErrors) {
  EXPECT_THROW(CompileZlang<F>("y = 1;"), CompileError);  // undeclared
  EXPECT_THROW(CompileZlang<F>("input int32 x; input int32 x;"),
               CompileError);  // redeclared
  EXPECT_THROW(CompileZlang<F>("var int32 a[2]; var int32 y; y = a[5];"),
               CompileError);  // static out of bounds
  EXPECT_THROW(
      CompileZlang<F>("input int32 a; var int32 y; y = a; y = y && y;"),
      CompileError);  // logical op on ints
  EXPECT_THROW(CompileZlang<F>("input int32 n; for i in 0..n { }"),
               CompileError);  // runtime loop bound
  EXPECT_THROW(CompileZlang<F>("var int<300> x; x = 0;"),
               CompileError);  // width beyond the field
  EXPECT_THROW(CompileZlang<F>("input int32 a; var int32 y; y = a / a;"),
               CompileError);  // runtime division
}

// Static arithmetic at the edges of int64 folds to the mathematical result
// or is a CompileError: no trap, no shift by the word size or more.
TEST(SemanticsTest, StaticArithmeticEdgesAreDefined) {
  EXPECT_THROW(CompileZlang<F>("output int32 y; y = 5 % 0;"), CompileError);
  EXPECT_EQ(RunProgram("output int32 y; output int32 z;"
                       "y = -5 >> 70; z = 5 >> 64;",
                       {}),
            (std::vector<int64_t>{-1, 0}));
  // Fixed-point denominators are static int64 powers of two.
  EXPECT_THROW(CompileZlang<F>("input int32 a; var rational<100,63> r;"
                               "r = a;"),
               CompileError);
}

TEST(SemanticsTest, WidthOverflowFromRepeatedMultiplication) {
  // 32 -> 64 -> 128 bits exceeds F128's capacity: must be caught at compile
  // time, not miscomputed at runtime.
  EXPECT_THROW(CompileZlang<F>("input int32 a; output int32 y;"
                               "var int<130> t; t = a * a; t = t * t;"
                               "y = t > 0 ? 1 : 0;"),
               CompileError);
}

TEST(SemanticsTest, OutputsFollowDeclarationOrder) {
  auto p = CompileZlang<F>(
      "input int32 a; output int32 first; output int32 second;"
      "second = a + 2; first = a + 1;");
  auto gw = p.SolveGinger({EncodeSignedInt<F>(10)});
  auto out = p.ExtractOutputs(gw);
  EXPECT_EQ(DecodeSignedInt<F>(out[0]), 11);
  EXPECT_EQ(DecodeSignedInt<F>(out[1]), 12);
}

TEST(SemanticsTest, ComparisonCostIsLogarithmicInWidth) {
  // The paper: order comparisons expand to O(log |F|) constraints. A single
  // 32-bit comparison should cost tens of constraints, not hundreds.
  auto p8 = CompileZlang<F>(
      "input int<8> a; input int<8> b; output bool y; y = a < b;");
  auto p32 = CompileZlang<F>(
      "input int32 a; input int32 b; output bool y; y = a < b;");
  EXPECT_GT(p8.CGinger(), 8u);
  EXPECT_LT(p8.CGinger(), 20u);
  EXPECT_GT(p32.CGinger(), p8.CGinger());
  EXPECT_LT(p32.CGinger(), 45u);
}

TEST(SemanticsTest, PureArithmeticCostsNoComparisonGadgets) {
  auto p = CompileZlang<F>(
      "input int32 a; input int32 b; output int<70> y; y = a * b + a;");
  // One product + one output binding.
  EXPECT_LE(p.CGinger(), 3u);
}

}  // namespace
}  // namespace zaatar
