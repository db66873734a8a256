// Differential fuzzing of the zlang->R1CS compiler (src/testing/zlang_fuzz.h):
// random well-formed programs are cross-checked — native interpreter vs.
// witness solver vs. symbolic equivalence verdict, with a periodic full
// argument round that must ACCEPT. Any divergence fails the test with a
// shrunk reproducer and its separating input vector.
//
// Iteration count defaults to 40 and is overridable via ZAATAR_FUZZ_ITERS
// (scripts/ci.sh runs 200 under ASan).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "gtest/gtest.h"
#include "src/field/fields.h"
#include "src/testing/zlang_fuzz.h"

namespace zaatar {
namespace {

size_t FuzzIters() {
  const char* env = std::getenv("ZAATAR_FUZZ_ITERS");
  if (env != nullptr) {
    long v = std::atol(env);
    if (v > 0) {
      return static_cast<size_t>(v);
    }
  }
  return 40;
}

TEST(EquivFuzz, RandomProgramsAgreeAcrossAllCheckers) {
  size_t iters = FuzzIters();
  ZlangFuzzReport report = RunZlangFuzz<F128>(iters, /*seed=*/0xFA22);
  if (report.failure.has_value()) {
    FAIL() << "divergence after " << report.iterations << " case(s):\n"
           << *report.failure;
  }
  EXPECT_EQ(report.compile_errors, 0u);
  // kUnknown is not a divergence, but it means the case produced no signal;
  // the generator is designed so that nearly all cases resolve.
  EXPECT_LE(report.unknown_verdicts, report.iterations / 3)
      << "too many unknown verdicts: generator/check mismatch";
  std::printf("fuzz: %zu case(s), %zu unknown verdict(s)\n",
              report.iterations, report.unknown_verdicts);
}

// A distinct seed exercises different generator paths; kept small so the
// default test run stays fast.
TEST(EquivFuzz, SecondSeedSweep) {
  ZlangFuzzReport report = RunZlangFuzz<F128>(10, /*seed=*/0xBEE5);
  if (report.failure.has_value()) {
    FAIL() << "divergence after " << report.iterations << " case(s):\n"
           << *report.failure;
  }
}

// Every generated program must compile over F128: a case whose value widths
// outgrow the field is a generator bug, and it starves the other checks of
// coverage because RunZlangFuzz stops at the first one.
TEST(EquivFuzz, GeneratedProgramsFitF128) {
  for (uint64_t seed : {uint64_t{0x601D}, uint64_t{1}, uint64_t{2}}) {
    Prg prg(seed);
    size_t errors = 0;
    std::string first;
    for (size_t i = 0; i < 400; i++) {
      std::string source = GenerateZlangCase(prg, i).Source();
      try {
        CompileZlang<F128>(source);
      } catch (const CompileError& e) {
        if (errors++ == 0) {
          first = "case " + std::to_string(i) + ": " + e.what() + "\n" + source;
        }
      }
    }
    EXPECT_EQ(errors, 0u) << "seed " << seed << ", first failure " << first;
  }
}

}  // namespace
}  // namespace zaatar
