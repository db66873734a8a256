#include "src/poly/residue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/crypto/prg.h"
#include "src/field/fields.h"
#include "src/poly/crt_mul.h"
#include "src/poly/polynomial.h"

namespace zaatar {
namespace {

// Synthetic fields chosen so CrtPrimeCount actually moves within testable
// lengths (the production fields pin it at 5 resp. 8 primes for every
// feasible size): F59 = 2^59 - 55 steps from 2 to 3 primes, and
// F245 = 2^245 - 163 exhausts the 8-prime basis just above length 16.
struct F59Config {
  static constexpr size_t kLimbs = 1;
  static constexpr std::array<uint64_t, 1> kModulus = {0x07FFFFFFFFFFFFC9ULL};
  static constexpr const char* kName = "F59";
};
using F59 = PrimeField<F59Config>;

struct F245Config {
  static constexpr size_t kLimbs = 4;
  static constexpr std::array<uint64_t, 4> kModulus = {
      0xFFFFFFFFFFFFFF5DULL, 0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL,
      0x001FFFFFFFFFFFFFULL};
  static constexpr const char* kName = "F245";
};
using F245 = PrimeField<F245Config>;

static_assert(F59::kModulusBits == 59);
static_assert(F245::kModulusBits == 245);

template <typename F>
class ResiduePolyTest : public ::testing::Test {
 protected:
  // Full basis: 495-bit capacity leaves headroom for chained products.
  const CrtBasis<F>& basis_ = CrtBasis<F>::Get(kNumNttPrimes);

  ResiduePoly<F> FromVec(const std::vector<F>& c, size_t workers = 1) {
    return ResiduePoly<F>::FromCoefficients(c.data(), c.size(), basis_,
                                            workers);
  }
};

using TestFields = ::testing::Types<F128, F220>;
TYPED_TEST_SUITE(ResiduePolyTest, TestFields);

TYPED_TEST(ResiduePolyTest, RoundTrip) {
  using F = TypeParam;
  Prg prg(900);
  std::vector<F> c = prg.NextFieldVector<F>(57);
  ResiduePoly<F> r = this->FromVec(c);
  EXPECT_TRUE(r.IsCanonical());
  EXPECT_EQ(r.ToCoefficients(1), c);
  for (size_t i : {size_t{0}, size_t{13}, size_t{56}}) {
    EXPECT_EQ(r.Coefficient(i), c[i]);
  }
}

TYPED_TEST(ResiduePolyTest, MulMatchesSchoolbook) {
  using F = TypeParam;
  Prg prg(901);
  for (auto [la, lb] : {std::pair<size_t, size_t>{1, 1},
                        {1, 7},
                        {8, 8},
                        {31, 33},
                        {64, 100}}) {
    std::vector<F> a = prg.NextFieldVector<F>(la);
    std::vector<F> b = prg.NextFieldVector<F>(lb);
    ResiduePoly<F> prod =
        ResiduePoly<F>::Mul(this->FromVec(a), this->FromVec(b), 1);
    EXPECT_EQ(prod.ToCoefficients(1), Polynomial<F>::NaiveMul(a, b))
        << "lengths " << la << "x" << lb;
  }
}

TYPED_TEST(ResiduePolyTest, CachedImagesMatchDirectProducts) {
  using F = TypeParam;
  Prg prg(908);
  std::vector<F> a = prg.NextFieldVector<F>(40);
  std::vector<F> b = prg.NextFieldVector<F>(25);
  ResiduePoly<F> ra = this->FromVec(a), rb = this->FromVec(b);
  size_t out_len = 40 + 25 - 1;
  NttImages bimg = rb.ForwardImages(CeilLog2(out_len), 1);
  ResiduePoly<F> via_img =
      ResiduePoly<F>::MulImages(ra, bimg, 0, out_len, 1);
  ResiduePoly<F> direct = ResiduePoly<F>::Mul(ra, rb, 1);
  EXPECT_EQ(via_img.ToCoefficients(1), direct.ToCoefficients(1));

  // Middle product: a length-33 by length-64 product (96 coefficients) on a
  // 64-point transform wraps indices 64..95 onto 0..31, so coefficients
  // 32..63 still come out exact.
  std::vector<F> u = prg.NextFieldVector<F>(33);
  std::vector<F> k = prg.NextFieldVector<F>(64);
  NttImages kimg = this->FromVec(k).ForwardImages(6, 1);
  std::vector<F> mid =
      ResiduePoly<F>::MulImages(this->FromVec(u), kimg, 32, 32, 1)
          .ToCoefficients(1);
  std::vector<F> full = Polynomial<F>::NaiveMul(u, k);
  EXPECT_EQ(mid, std::vector<F>(full.begin() + 32, full.begin() + 64));
}

// The per-residue fan-out must be purely structural: identical results (and
// identical raw residues) regardless of worker count.
TYPED_TEST(ResiduePolyTest, WorkerCountDoesNotChangeResults) {
  using F = TypeParam;
  Prg prg(909);
  std::vector<F> a = prg.NextFieldVector<F>(700);
  std::vector<F> b = prg.NextFieldVector<F>(650);
  ResiduePoly<F> p1 = ResiduePoly<F>::Mul(this->FromVec(a, 1),
                                          this->FromVec(b, 1), 1);
  ResiduePoly<F> p4 = ResiduePoly<F>::Mul(this->FromVec(a, 4),
                                          this->FromVec(b, 4), 4);
  for (size_t pi = 0; pi < this->basis_.k(); pi++) {
    EXPECT_EQ(p1.Residues(pi), p4.Residues(pi)) << "prime " << pi;
  }
  EXPECT_EQ(p1.ToCoefficients(1), p4.ToCoefficients(4));
}

// ----- CRT sizing: step points and basis exhaustion (synthetic fields) -----

// Lengths where the checked prime count changes value, scanning [1, max].
template <typename F>
std::vector<size_t> PrimeCountSteps(size_t max_len) {
  std::vector<size_t> steps;
  size_t prev = CrtPrimeCountChecked<F>(1).value();
  for (size_t len = 2; len <= max_len; len++) {
    StatusOr<size_t> k = CrtPrimeCountChecked<F>(len);
    if (!k.ok()) {
      break;
    }
    if (k.value() != prev) {
      steps.push_back(len);
      prev = k.value();
    }
  }
  return steps;
}

// MulCrt against schoolbook at equal lengths, with uniform random
// coefficients and with every coefficient at p-1 (the adversarial maximum
// that stresses the integer coefficient bound the basis was sized for).
template <typename F>
void CheckMulCrtAt(size_t len, uint64_t seed) {
  Prg prg(seed);
  std::vector<F> a = prg.NextFieldVector<F>(len);
  std::vector<F> b = prg.NextFieldVector<F>(len);
  EXPECT_EQ(MulCrt(a.data(), len, b.data(), len),
            Polynomial<F>::NaiveMul(a, b))
      << "random, len " << len;
  std::vector<F> mx(len, F::Zero() - F::One());
  EXPECT_EQ(MulCrt(mx.data(), len, mx.data(), len),
            Polynomial<F>::NaiveMul(mx, mx))
      << "all-max, len " << len;
}

TEST(CrtSizingTest, MulCrtExactAcrossStepPoints) {
  // F59: one step (2 -> 3 primes) inside the scan range.
  std::vector<size_t> steps = PrimeCountSteps<F59>(64);
  ASSERT_FALSE(steps.empty());
  EXPECT_EQ(steps.front(), 17u);
  uint64_t seed = 910;
  for (size_t s : steps) {
    ASSERT_GT(s, 1u);
    CheckMulCrtAt<F59>(s - 1, seed++);
    CheckMulCrtAt<F59>(s, seed++);
  }
}

TEST(CrtSizingTest, MulCrtExactAtLargestFittingLength) {
  // F245 needs all 8 primes from length 1 and exhausts the basis at the
  // next power-of-two bump; find the boundary programmatically.
  size_t largest = 0;
  for (size_t len = 1; CrtPrimeCountChecked<F245>(len).ok(); len++) {
    largest = len;
  }
  ASSERT_EQ(largest, 16u);
  EXPECT_EQ(CrtPrimeCountChecked<F245>(largest).value(), kNumNttPrimes);
  CheckMulCrtAt<F245>(largest, 920);
}

TEST(CrtSizingTest, BasisExhaustionSurfacesAsStatus) {
  StatusOr<size_t> k = CrtPrimeCountChecked<F245>(17);
  ASSERT_FALSE(k.ok());
  EXPECT_EQ(k.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(k.status().message().find("CRT basis exhausted"),
            std::string::npos);
  EXPECT_NE(k.status().message().find("F245"), std::string::npos);
}

#ifndef NDEBUG
// The unchecked path asserts in debug builds (sanitizer CI runs these).
TEST(CrtSizingDeathTest, UncheckedCountAbortsOnExhaustion) {
  EXPECT_DEATH(CrtPrimeCount<F245>(17), "CRT basis");
}
#endif

}  // namespace
}  // namespace zaatar
