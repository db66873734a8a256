// Montgomery-form prime fields over fixed-width big integers.
//
// PrimeField<Config> implements F_p for a compile-time modulus p supplied by
// Config. Elements are stored in Montgomery form (x·R mod p, R = 2^(64·N)).
// All Montgomery constants are computed at compile time from the modulus, so
// adding a field is just declaring a Config (see src/field/fields.h).
//
// Config requirements:
//   static constexpr size_t kLimbs;                       // limb count N
//   static constexpr std::array<uint64_t, kLimbs> kModulus;  // odd prime, LE
//   static constexpr const char* kName;                   // for diagnostics

#ifndef SRC_FIELD_PRIME_FIELD_H_
#define SRC_FIELD_PRIME_FIELD_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "src/field/bigint.h"

namespace zaatar {

namespace field_internal {

// -p^{-1} mod 2^64 via Newton iteration (p odd).
constexpr uint64_t NegInvModWord(uint64_t p) {
  uint64_t x = 1;
  for (int i = 0; i < 6; i++) {
    x *= 2 - p * x;  // doubles the number of correct low bits
  }
  return ~x + 1;  // -x
}

// Runtime CPU feature probe for the tuned wide-field kernels. The build uses
// no -march flags, so mulx-emitting code paths carry function-level target
// attributes and are entered only behind this check.
inline bool HasBmi2() {
#if defined(__x86_64__) && defined(__GNUC__)
  static const bool kHas = __builtin_cpu_supports("bmi2");
  return kHas;
#else
  return false;
#endif
}

// 2^bits mod p by repeated doubling, starting from start < p.
template <size_t N>
constexpr BigInt<N> ShiftedMod(BigInt<N> start, size_t bits,
                               const BigInt<N>& p) {
  BigInt<N> r = start;
  for (size_t i = 0; i < bits; i++) {
    r = DoubleMod(r, p);
  }
  return r;
}

// p - 2, the Fermat inversion exponent (p > 2 for every Config here).
template <size_t N>
constexpr BigInt<N> MinusTwo(BigInt<N> p) {
  p.SubInPlace(BigInt<N>(uint64_t{2}));
  return p;
}

}  // namespace field_internal

template <typename Config>
class PrimeField {
 public:
  static constexpr size_t kLimbs = Config::kLimbs;
  static constexpr const char* kName = Config::kName;
  using Repr = BigInt<kLimbs>;

  static constexpr Repr kModulus = Repr(Config::kModulus);
  static constexpr size_t kModulusBits = kModulus.BitLength();
  static constexpr uint64_t kN0Inv =
      field_internal::NegInvModWord(Config::kModulus[0]);
  // R mod p and R^2 mod p, R = 2^(64N).
  static constexpr Repr kMontR =
      field_internal::ShiftedMod(Repr::One(), 64 * kLimbs, kModulus);
  static constexpr Repr kMontR2 =
      field_internal::ShiftedMod(kMontR, 64 * kLimbs, kModulus);
  // Hoisted Fermat exponent p - 2: Inverse() (and the ElGamal decryption
  // path) used to rebuild this with a SubInPlace on every call.
  static constexpr Repr kFermatExponent = field_internal::MinusTwo(kModulus);

  constexpr PrimeField() = default;

  static constexpr PrimeField Zero() { return PrimeField(); }
  static constexpr PrimeField One() { return FromMontgomery(kMontR); }

  // Builds an element from a canonical (non-Montgomery) residue < p.
  static constexpr PrimeField FromCanonical(const Repr& x) {
    PrimeField r;
    r.v_ = MontMulAuto(x, kMontR2);
    return r;
  }

  static constexpr PrimeField FromUint(uint64_t x) {
    return FromCanonical(Repr(x));
  }

  static constexpr PrimeField FromInt(int64_t x) {
    if (x >= 0) {
      return FromUint(static_cast<uint64_t>(x));
    }
    return Zero() - FromUint(static_cast<uint64_t>(-(x + 1)) + 1);
  }

  // Reduces an arbitrary little-endian limb span into the field:
  // sum_i limbs[i] * (2^64)^i mod p.
  static PrimeField FromLimbs(const uint64_t* limbs, size_t count) {
    PrimeField shift = FromCanonical(
        field_internal::ShiftedMod(Repr::One(), 64, kModulus));  // 2^64
    PrimeField acc = Zero();
    for (size_t i = count; i-- > 0;) {
      acc = acc * shift + FromUint(limbs[i]);
    }
    return acc;
  }

  // Wraps a raw Montgomery-form value (must be < p).
  static constexpr PrimeField FromMontgomery(const Repr& m) {
    PrimeField r;
    r.v_ = m;
    return r;
  }

  constexpr const Repr& Montgomery() const { return v_; }

  constexpr Repr ToCanonical() const { return MontMulAuto(v_, Repr::One()); }

  constexpr uint64_t ToUint64() const { return ToCanonical().limbs[0]; }

  constexpr bool IsZero() const { return v_.IsZero(); }
  constexpr bool IsOne() const { return v_ == kMontR; }

  constexpr bool operator==(const PrimeField& o) const { return v_ == o.v_; }
  constexpr bool operator!=(const PrimeField& o) const { return v_ != o.v_; }

  constexpr PrimeField operator+(const PrimeField& o) const {
    return FromMontgomery(AddMod(v_, o.v_, kModulus));
  }
  constexpr PrimeField operator-(const PrimeField& o) const {
    return FromMontgomery(SubMod(v_, o.v_, kModulus));
  }
  constexpr PrimeField operator-() const {
    return FromMontgomery(v_.IsZero() ? v_ : kModulus.Sub(v_));
  }
  constexpr PrimeField operator*(const PrimeField& o) const {
    return FromMontgomery(MontMulAuto(v_, o.v_));
  }
  constexpr PrimeField& operator+=(const PrimeField& o) {
    v_ = AddMod(v_, o.v_, kModulus);
    return *this;
  }
  constexpr PrimeField& operator-=(const PrimeField& o) {
    v_ = SubMod(v_, o.v_, kModulus);
    return *this;
  }
  constexpr PrimeField& operator*=(const PrimeField& o) {
    v_ = MontMulAuto(v_, o.v_);
    return *this;
  }

  constexpr PrimeField Square() const { return FromMontgomery(MontSqrAuto(v_)); }

  constexpr PrimeField Double() const {
    return FromMontgomery(DoubleMod(v_, kModulus));
  }

  // x^e for an arbitrary-width exponent: sliding-window exponentiation over
  // precomputed odd powers x^1, x^3, ..., x^(2^w - 1). Squarings stay at
  // ~|e|, but multiplies drop from ~|e|/2 (bit-at-a-time) to ~|e|/(w+1).
  template <size_t M>
  constexpr PrimeField Pow(const BigInt<M>& e) const {
    size_t top = e.BitLength();
    if (top == 0) {
      return One();
    }
    if (top <= 3) {  // tiny exponents: the table costs more than it saves
      return PowNaive(e);
    }
    const size_t w = top > 512 ? 6 : top > 128 ? 5 : top > 24 ? 4 : 2;
    // Odd powers: tbl[i] = x^(2i+1), 2^(w-1) entries (<= 32 for w = 6).
    PrimeField tbl[32];
    tbl[0] = *this;
    const PrimeField sq = Square();
    const size_t half = size_t{1} << (w - 1);
    for (size_t i = 1; i < half; i++) {
      tbl[i] = tbl[i - 1] * sq;
    }
    PrimeField r;
    bool started = false;
    size_t i = top;  // bits [0, i) of e remain to be consumed
    while (i > 0) {
      if (!e.Bit(i - 1)) {
        if (started) {
          r = r.Square();
        }
        i--;
        continue;
      }
      // Take a window [j, i) of at most w bits that starts and ends on a set
      // bit, so its value is odd and indexes the table directly.
      size_t j = i >= w ? i - w : 0;
      while (!e.Bit(j)) {
        j++;
      }
      uint64_t digit = 0;
      for (size_t k = i; k-- > j;) {
        digit = (digit << 1) | e.Bit(k);
      }
      if (started) {
        for (size_t k = 0; k < i - j; k++) {
          r = r.Square();
        }
        r = r * tbl[digit >> 1];
      } else {
        r = tbl[digit >> 1];
        started = true;
      }
      i = j;
    }
    return r;
  }

  constexpr PrimeField Pow(uint64_t e) const { return Pow(BigInt<1>(e)); }

  // The frozen pre-window reference: bit-at-a-time square-and-multiply over
  // the generic CIOS MontMul only. This is the yardstick the cross-PR
  // speedup trajectory (BENCH_multiexp.json "naive" rows) is measured
  // against, and the oracle the differential tests compare every tuned
  // exponentiation path to — do not optimize it.
  template <size_t M>
  constexpr PrimeField PowNaive(const BigInt<M>& e) const {
    PrimeField r = One();
    for (size_t i = e.BitLength(); i-- > 0;) {
      r.v_ = MontMul(r.v_, r.v_);
      if (e.Bit(i)) {
        r.v_ = MontMul(r.v_, v_);
      }
    }
    return r;
  }

  // Multiplicative inverse via Fermat: x^(p-2). Inverse of zero is zero
  // (callers that care must check; this matches the convention used by the
  // constraint gadgets, where 0^{-1} never reaches a constraint unguarded).
  constexpr PrimeField Inverse() const { return Pow(kFermatExponent); }

  constexpr PrimeField operator/(const PrimeField& o) const {
    return *this * o.Inverse();
  }

  std::string ToHexString() const { return ToCanonical().ToHex(); }

  // A sum of products of Montgomery representations, kept unreduced. Each
  // MulAdd adds the N² limb products a_i·b_j into 2N-1 column sums of 128
  // bits, counting the carries out of each column; Reduce() folds those into
  // a (2N+1)-limb total and maps it back into the field once. Exact for up
  // to kMaxTerms terms (DESIGN.md §17).
  class UnreducedSum {
   public:
    // A column takes at most N products per term, so its carry count stays
    // below N·2^32 < 2^64, and the total stays below 2^32·p² < 2^(64(2N+1)).
    static constexpr size_t kMaxTerms = size_t{1} << 32;

    void MulAdd(const PrimeField& a, const PrimeField& b) {
#pragma GCC unroll 16
      for (size_t i = 0; i < kLimbs; i++) {
#pragma GCC unroll 16
        for (size_t j = 0; j < kLimbs; j++) {
          __uint128_t p =
              static_cast<__uint128_t>(a.v_.limbs[i]) * b.v_.limbs[j];
          columns_[i + j] += p;
          carries_[i + j] += columns_[i + j] < p;
        }
      }
    }

    // The total S = L + H·R + top·R² of Montgomery forms stands for the
    // field value S·R⁻¹ = L·R⁻¹ + H + top·R. Each piece is one MontMul whose
    // operands multiply to less than p·R: L by 1, H by R mod p, and the top
    // limb by R² mod p.
    PrimeField Reduce() const {
      constexpr size_t N = kLimbs;
      uint64_t s[2 * N + 1] = {};
      for (size_t k = 0; k < 2 * N - 1; k++) {
        AddAt(s, k, static_cast<uint64_t>(columns_[k]));
        AddAt(s, k + 1, static_cast<uint64_t>(columns_[k] >> 64));
        AddAt(s, k + 2, carries_[k]);
      }
      Repr low;
      Repr high;
      for (size_t i = 0; i < N; i++) {
        low.limbs[i] = s[i];
        high.limbs[i] = s[N + i];
      }
      Repr r = AddMod(MontMul(low, Repr::One()), MontMul(high, kMontR),
                      kModulus);
      return FromMontgomery(
          AddMod(r, MontMul(Repr(s[2 * N]), kMontR2), kModulus));
    }

   private:
    // s += v·2^(64k), carrying upward.
    static void AddAt(uint64_t* s, size_t k, uint64_t v) {
      for (; v != 0 && k < 2 * kLimbs + 1; k++) {
        s[k] += v;
        v = s[k] < v ? 1 : 0;
      }
    }

    __uint128_t columns_[2 * kLimbs - 1] = {};
    uint64_t carries_[2 * kLimbs - 1] = {};
  };

  // Σ a[i]·b[i] with one reduction per kMaxTerms terms, i.e. one in practice.
  static PrimeField DotProduct(const PrimeField* a, const PrimeField* b,
                               size_t n) {
    PrimeField total;
    for (size_t start = 0; start < n; start += UnreducedSum::kMaxTerms) {
      const size_t end =
          n - start > UnreducedSum::kMaxTerms ? start + UnreducedSum::kMaxTerms
                                               : n;
      UnreducedSum acc;
      for (size_t i = start; i < end; i++) {
        acc.MulAdd(a[i], b[i]);
      }
      total += acc.Reduce();
    }
    return total;
  }

  // Montgomery product: a·b·R^{-1} mod p (CIOS).
  static constexpr Repr MontMul(const Repr& a, const Repr& b) {
    constexpr size_t N = kLimbs;
    // Accumulator of N+2 limbs.
    uint64_t t[N + 2] = {};
    for (size_t i = 0; i < N; i++) {
      // t += a[i] * b
      uint64_t carry = 0;
      for (size_t j = 0; j < N; j++) {
        __uint128_t cur =
            static_cast<__uint128_t>(a.limbs[i]) * b.limbs[j] + t[j] + carry;
        t[j] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
      }
      __uint128_t cur = static_cast<__uint128_t>(t[N]) + carry;
      t[N] = static_cast<uint64_t>(cur);
      t[N + 1] = static_cast<uint64_t>(cur >> 64);

      // m = t[0] * n0inv mod 2^64; t += m*p; t >>= 64
      uint64_t m = t[0] * kN0Inv;
      __uint128_t cur2 =
          static_cast<__uint128_t>(m) * kModulus.limbs[0] + t[0];
      carry = static_cast<uint64_t>(cur2 >> 64);
      for (size_t j = 1; j < N; j++) {
        cur2 = static_cast<__uint128_t>(m) * kModulus.limbs[j] + t[j] + carry;
        t[j - 1] = static_cast<uint64_t>(cur2);
        carry = static_cast<uint64_t>(cur2 >> 64);
      }
      cur2 = static_cast<__uint128_t>(t[N]) + carry;
      t[N - 1] = static_cast<uint64_t>(cur2);
      t[N] = t[N + 1] + static_cast<uint64_t>(cur2 >> 64);
      t[N + 1] = 0;
    }
    Repr r;
    for (size_t i = 0; i < N; i++) {
      r.limbs[i] = t[i];
    }
    if (t[N] != 0 || r >= kModulus) {
      r.SubInPlace(kModulus);
    }
    return r;
  }

  // Montgomery squaring: a·a·R^{-1} mod p. The off-diagonal partial products
  // a_i·a_j (i < j) are computed once and shift-doubled instead of twice,
  // then the diagonals are added and the double-width result is reduced SOS-
  // style with a single deferred top carry (no data-dependent inner loops).
  static constexpr Repr MontSqr(const Repr& a) {
    constexpr size_t N = kLimbs;
    uint64_t t[2 * N + 1] = {};
    for (size_t i = 0; i < N; i++) {
      uint64_t ai = a.limbs[i];
      uint64_t carry = 0;
      for (size_t j = i + 1; j < N; j++) {
        __uint128_t cur =
            static_cast<__uint128_t>(ai) * a.limbs[j] + t[i + j] + carry;
        t[i + j] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
      }
      t[i + N] = carry;
    }
    uint64_t top = 0;
    for (size_t k = 0; k < 2 * N; k++) {
      uint64_t nt = t[k] >> 63;
      t[k] = (t[k] << 1) | top;
      top = nt;
    }
    uint64_t c = 0;
    for (size_t i = 0; i < N; i++) {
      __uint128_t cur =
          static_cast<__uint128_t>(a.limbs[i]) * a.limbs[i] + t[2 * i] + c;
      t[2 * i] = static_cast<uint64_t>(cur);
      __uint128_t cur2 =
          static_cast<__uint128_t>(t[2 * i + 1]) + static_cast<uint64_t>(cur >> 64);
      t[2 * i + 1] = static_cast<uint64_t>(cur2);
      c = static_cast<uint64_t>(cur2 >> 64);
    }
    // Montgomery reduction of the 2N-limb square; per-row carries into the
    // upper half are deferred through `pend` so each row is one fixed pass.
    uint64_t pend = 0;
    for (size_t i = 0; i < N; i++) {
      uint64_t m = t[i] * kN0Inv;
      uint64_t cc = 0;
      for (size_t j = 0; j < N; j++) {
        __uint128_t cur =
            static_cast<__uint128_t>(m) * kModulus.limbs[j] + t[i + j] + cc;
        t[i + j] = static_cast<uint64_t>(cur);
        cc = static_cast<uint64_t>(cur >> 64);
      }
      __uint128_t s = static_cast<__uint128_t>(t[i + N]) + cc + pend;
      t[i + N] = static_cast<uint64_t>(s);
      pend = static_cast<uint64_t>(s >> 64);
    }
    t[2 * N] += pend;
    Repr r;
    for (size_t i = 0; i < N; i++) {
      r.limbs[i] = t[N + i];
    }
    if (t[2 * N] != 0 || r >= kModulus) {
      r.SubInPlace(kModulus);
    }
    return r;
  }

  // Dispatching product/square: compile-time evaluation and narrow fields use
  // the generic kernels inline; wide fields (the 1024-bit ElGamal groups)
  // take the mulx-emitting tuned kernels when the CPU has BMI2. Results are
  // bit-identical across all paths (tests/field_test.cc).
  static constexpr Repr MontMulAuto(const Repr& a, const Repr& b) {
    if constexpr (kLimbs >= 8) {
      if (!std::is_constant_evaluated() && field_internal::HasBmi2()) {
        return MontMulTuned(a, b);
      }
    }
    return MontMul(a, b);
  }

  static constexpr Repr MontSqrAuto(const Repr& a) {
    if constexpr (kLimbs >= 8) {
      if (!std::is_constant_evaluated() && field_internal::HasBmi2()) {
        return MontSqrTuned(a);
      }
    }
    return MontSqr(a);
  }

#if defined(__x86_64__) && defined(__GNUC__)
  // Fused CIOS: one pass per row with two interleaved carry chains (a_i·b and
  // m·p). At default build flags this form loses to the plain CIOS, but with
  // mulx codegen it is the fastest scalar multiply measured on this kernel
  // shape — hence the target attribute + HasBmi2 dispatch.
  __attribute__((target("bmi2"), optimize("O3"))) static Repr MontMulTuned(
      const Repr& a, const Repr& b) {
    constexpr size_t N = kLimbs;
    uint64_t t[N + 1] = {};
    for (size_t i = 0; i < N; i++) {
      uint64_t ai = a.limbs[i];
      __uint128_t x = static_cast<__uint128_t>(ai) * b.limbs[0] + t[0];
      uint64_t m = static_cast<uint64_t>(x) * kN0Inv;
      __uint128_t y = static_cast<__uint128_t>(m) * kModulus.limbs[0] +
                      static_cast<uint64_t>(x);
      uint64_t ca = static_cast<uint64_t>(x >> 64);
      uint64_t cm = static_cast<uint64_t>(y >> 64);
      for (size_t j = 1; j < N; j++) {
        x = static_cast<__uint128_t>(ai) * b.limbs[j] + t[j] + ca;
        ca = static_cast<uint64_t>(x >> 64);
        y = static_cast<__uint128_t>(m) * kModulus.limbs[j] +
            static_cast<uint64_t>(x) + cm;
        cm = static_cast<uint64_t>(y >> 64);
        t[j - 1] = static_cast<uint64_t>(y);
      }
      __uint128_t fin = static_cast<__uint128_t>(t[N]) + ca + cm;
      t[N - 1] = static_cast<uint64_t>(fin);
      t[N] = static_cast<uint64_t>(fin >> 64);
    }
    Repr r;
    for (size_t i = 0; i < N; i++) {
      r.limbs[i] = t[i];
    }
    if (t[N] != 0 || r >= kModulus) {
      r.SubInPlace(kModulus);
    }
    return r;
  }

  // MontSqr body under mulx codegen.
  __attribute__((target("bmi2"), optimize("O3"))) static Repr MontSqrTuned(
      const Repr& a) {
    constexpr size_t N = kLimbs;
    uint64_t t[2 * N + 1] = {};
    for (size_t i = 0; i < N; i++) {
      uint64_t ai = a.limbs[i];
      uint64_t carry = 0;
      for (size_t j = i + 1; j < N; j++) {
        __uint128_t cur =
            static_cast<__uint128_t>(ai) * a.limbs[j] + t[i + j] + carry;
        t[i + j] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
      }
      t[i + N] = carry;
    }
    uint64_t top = 0;
    for (size_t k = 0; k < 2 * N; k++) {
      uint64_t nt = t[k] >> 63;
      t[k] = (t[k] << 1) | top;
      top = nt;
    }
    uint64_t c = 0;
    for (size_t i = 0; i < N; i++) {
      __uint128_t cur =
          static_cast<__uint128_t>(a.limbs[i]) * a.limbs[i] + t[2 * i] + c;
      t[2 * i] = static_cast<uint64_t>(cur);
      __uint128_t cur2 = static_cast<__uint128_t>(t[2 * i + 1]) +
                         static_cast<uint64_t>(cur >> 64);
      t[2 * i + 1] = static_cast<uint64_t>(cur2);
      c = static_cast<uint64_t>(cur2 >> 64);
    }
    uint64_t pend = 0;
    for (size_t i = 0; i < N; i++) {
      uint64_t m = t[i] * kN0Inv;
      uint64_t cc = 0;
      for (size_t j = 0; j < N; j++) {
        __uint128_t cur =
            static_cast<__uint128_t>(m) * kModulus.limbs[j] + t[i + j] + cc;
        t[i + j] = static_cast<uint64_t>(cur);
        cc = static_cast<uint64_t>(cur >> 64);
      }
      __uint128_t s = static_cast<__uint128_t>(t[i + N]) + cc + pend;
      t[i + N] = static_cast<uint64_t>(s);
      pend = static_cast<uint64_t>(s >> 64);
    }
    t[2 * N] += pend;
    Repr r;
    for (size_t i = 0; i < N; i++) {
      r.limbs[i] = t[N + i];
    }
    if (t[2 * N] != 0 || r >= kModulus) {
      r.SubInPlace(kModulus);
    }
    return r;
  }
#else
  static Repr MontMulTuned(const Repr& a, const Repr& b) { return MontMul(a, b); }
  static Repr MontSqrTuned(const Repr& a) { return MontSqr(a); }
#endif

 private:
  Repr v_{};  // Montgomery form
};

// In-place batch inversion (Montgomery's trick): one field inversion plus
// 3(n-1) multiplications. Zero entries are left as zero.
template <typename F>
void BatchInvert(F* elems, size_t n) {
  if (n == 0) {
    return;
  }
  std::vector<F> prefix(n);
  F acc = F::One();
  for (size_t i = 0; i < n; i++) {
    prefix[i] = acc;
    if (!elems[i].IsZero()) {
      acc *= elems[i];
    }
  }
  F inv = acc.Inverse();
  for (size_t i = n; i-- > 0;) {
    if (elems[i].IsZero()) {
      continue;
    }
    F orig = elems[i];
    elems[i] = inv * prefix[i];
    inv *= orig;
  }
}

}  // namespace zaatar

#endif  // SRC_FIELD_PRIME_FIELD_H_
