// Residue-domain (CRT/NTT evaluation form) polynomials: the prover-side
// representation that runs ComputeH's products inside the 62-bit NTT prime
// basis. Coefficients are exact non-negative integers v < 2^bound,
// stored as Montgomery-form residues v mod q_i per prime; because integer
// ring arithmetic commutes with reduction mod p, the fold into the target
// field F happens once at output instead of once per multiply (the old
// MulCrt contract). See DESIGN.md §15 for the representation contract.
//
// Two pieces live here:
//   - CrtBasis<F>: per-(field, k) precomputed constants — double-Montgomery
//     limb bases for one-mul coefficient reduction, and the O(k)
//     float-corrected CRT fold (t_i = x_i·(Q/q_i)^{-1} mod q_i, then
//     v ≡ Σ t_i·(Q/q_i) − αQ with α recovered from Σ t_i/q_i in doubles),
//     replacing the O(k²) Garner reconstruction.
//   - ResiduePoly<F>: per-prime evaluation vectors with an integer
//     coefficient bound tracked in bits. Products stay in residue form as
//     long as the bound fits the basis capacity (62k−1 bits — one guard bit
//     under Q so the float α-correction cannot straddle an integer).

#ifndef SRC_POLY_RESIDUE_H_
#define SRC_POLY_RESIDUE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "src/field/prime_field.h"
#include "src/obs/metrics.h"
#include "src/poly/ntt.h"
#include "src/util/parallel_for.h"

namespace zaatar {

// Smallest l with 2^l >= n (so CeilLog2(1) == 0).
inline size_t CeilLog2(size_t n) {
  size_t l = 0;
  while ((size_t{1} << l) < n) {
    l++;
  }
  return l;
}

// True iff a k <= kNumNttPrimes basis can hold integers < 2^bound_bits with
// the guard bit the float-corrected fold needs (capacity 62k-1 bits).
inline bool CrtBasisFitsBound(size_t bound_bits) {
  return bound_bits / 62 + 1 <= kNumNttPrimes;
}

// Smallest prime count whose capacity (62k-1 bits) covers bound_bits.
inline size_t CrtBasisSizeForBound(size_t bound_bits) {
  size_t k = bound_bits / 62 + 1;
  assert(k <= kNumNttPrimes && "coefficient bound exceeds CRT basis");
  return k;
}

// Worker count for the per-residue ParallelFor fan-out. Prime-level
// parallelism tops out at kNumNttPrimes; ZAATAR_POLY_WORKERS overrides.
inline size_t PolyWorkers() {
  static const size_t kWorkers = [] {
    if (const char* env = std::getenv("ZAATAR_POLY_WORKERS")) {
      size_t v = std::strtoul(env, nullptr, 10);
      return v == 0 ? size_t{1} : std::min(v, kNumNttPrimes);
    }
    size_t hc = std::thread::hardware_concurrency();
    return hc == 0 ? size_t{1} : std::min(hc, kNumNttPrimes);
  }();
  return kWorkers;
}

// Precomputed constants for a k-prime residue basis targeting field F.
template <typename F>
class CrtBasis {
 public:
  size_t k() const { return k_; }
  // Largest representable integer bound (bits): values < 2^capacity < Q/2.
  static constexpr size_t Capacity(size_t k) { return 62 * k - 1; }
  size_t capacity_bits() const { return Capacity(k_); }

  const MontField64& field(size_t pi) const { return fields_[pi]; }
  uint64_t prime(size_t pi) const { return kNttPrimes[pi]; }

  // Reduces a canonical big integer (little-endian limbs, < 2^(64*count))
  // into Montgomery-form residues, one Montgomery multiply per limb: the
  // limb bases are stored as 2^(64j)·R² mod q so Mul(limb, base_j) lands
  // directly in Montgomery form (the old MulCrt paid ToMont per limb plus a
  // FromMont on the accumulator).
  void ReduceLimbs(const uint64_t* limbs, size_t count, uint64_t* out) const {
    for (size_t pi = 0; pi < k_; pi++) {
      const MontField64& f = fields_[pi];
      const uint64_t* base = limb_r2_[pi].data();
      uint64_t acc = 0;
      for (size_t j = 0; j < count; j++) {
        acc = f.Add(acc, f.Mul(limbs[j], base[j]));
      }
      out[pi] = acc;
    }
  }

  // O(k) CRT fold of Montgomery-form residues (strided by `stride`) into F.
  // Requires the represented integer v < 2^Capacity(k) < Q/2: then
  // Σ t_i/q_i = α + v/Q with v/Q < 1/2, and the double-precision sum is
  // within 2^-49 of it, so floor(y + 1/4) recovers α exactly.
  F Fold(const uint64_t* residues, size_t stride) const {
    double y = 0.0;
    F acc = F::Zero();
    for (size_t pi = 0; pi < k_; pi++) {
      uint64_t t = fields_[pi].Mul(residues[pi * stride], fold_c_[pi]);
      y += static_cast<double>(t) * inv_q_[pi];
      acc += F::FromUint(t) * m_mod_p_[pi];
    }
    size_t alpha = static_cast<size_t>(y + 0.25);
    assert(alpha <= k_);
    return acc - alpha_q_[alpha];
  }

  static const CrtBasis& Get(size_t k) {
    static std::vector<CrtBasis> cache = [] {
      std::vector<CrtBasis> all(kNumNttPrimes + 1);
      for (size_t kk = 1; kk <= kNumNttPrimes; kk++) {
        all[kk].Init(kk);
      }
      return all;
    }();
    assert(k >= 1 && k <= kNumNttPrimes);
    return cache[k];
  }

 private:
  void Init(size_t k) {
    k_ = k;
    fields_.reserve(k);
    limb_r2_.resize(k);
    fold_c_.resize(k);
    m_mod_p_.resize(k);
    inv_q_.resize(k);
    alpha_q_.resize(k + 1);

    F q_prod = F::One();  // Q mod p
    for (size_t i = 0; i < k; i++) {
      q_prod *= F::FromUint(kNttPrimes[i]);
    }
    for (size_t a = 0; a <= k; a++) {
      alpha_q_[a] = F::FromUint(a) * q_prod;
    }

    for (size_t pi = 0; pi < k; pi++) {
      fields_.emplace_back(kNttPrimes[pi]);
      const MontField64& f = fields_[pi];

      // limb_r2[j] = 2^(64j)·R² mod q: Mul(x, limb_r2[j]) = Mont(x·2^(64j)).
      limb_r2_[pi].resize(F::kLimbs);
      uint64_t base_mont = f.ToMont((~uint64_t{0}) % kNttPrimes[pi] + 1);
      uint64_t cur_mont = f.One();  // Mont(2^(64j))
      for (size_t j = 0; j < F::kLimbs; j++) {
        limb_r2_[pi][j] = f.ToMont(cur_mont);
        cur_mont = f.Mul(cur_mont, base_mont);
      }

      // fold_c = (Q/q_i)^{-1} mod q_i, standard form (so one Montgomery
      // multiply against a Montgomery-form residue yields t_i in standard
      // form), and m_mod_p = (Q/q_i) mod p.
      uint64_t others = f.One();
      F m_p = F::One();
      for (size_t j = 0; j < k; j++) {
        if (j == pi) {
          continue;
        }
        others = f.Mul(others, f.ToMont(kNttPrimes[j] % kNttPrimes[pi]));
        m_p *= F::FromUint(kNttPrimes[j]);
      }
      fold_c_[pi] = f.FromMont(f.Inverse(others));
      m_mod_p_[pi] = m_p;
      inv_q_[pi] = 1.0 / static_cast<double>(kNttPrimes[pi]);
    }
  }

  size_t k_ = 0;
  std::vector<MontField64> fields_;
  std::vector<std::vector<uint64_t>> limb_r2_;  // [prime][limb]
  std::vector<uint64_t> fold_c_;
  std::vector<F> m_mod_p_;
  std::vector<F> alpha_q_;  // alpha_q[a] = a·Q mod p
  std::vector<double> inv_q_;
};

// Forward NTT images of a fixed residue polynomial at one transform size,
// cached so repeated products against the same operand (the QAP prover's
// shift kernel) pay one forward transform total.
struct NttImages {
  size_t log_n = 0;
  size_t src_len = 0;
  size_t src_bound_bits = 0;
  std::vector<std::vector<uint64_t>> img;  // [prime][2^log_n], Mont form

  bool empty() const { return img.empty(); }
};

// A dense polynomial in residue form: fixed explicit length (high
// coefficients may be zero — no trimming, so shapes stay uniform across a
// batch), per-prime Montgomery residue vectors, and the integer coefficient
// bound in bits. All operations are exact over the integers as long as
// bounds stay within basis capacity (asserted).
template <typename F>
class ResiduePoly {
 public:
  ResiduePoly() = default;

  size_t length() const { return len_; }
  size_t bound_bits() const { return bound_bits_; }
  const CrtBasis<F>& basis() const { return *basis_; }
  bool IsCanonical() const { return bound_bits_ <= F::kModulusBits; }
  const std::vector<uint64_t>& Residues(size_t pi) const { return r_[pi]; }

  // ----- conversions (the once-in / once-out contract) -----

  static ResiduePoly FromCoefficients(const F* c, size_t len,
                                      const CrtBasis<F>& basis,
                                      size_t workers) {
    ResiduePoly out = Make(basis, len, F::kModulusBits);
    size_t k = basis.k();
    ChunkedFor(len, workers, [&](size_t i) {
      // One canonical conversion per coefficient, hoisted out of the
      // per-prime loop (satellite fix: the old MulCrt redid it per prime).
      typename F::Repr rep = c[i].ToCanonical();
      uint64_t res[kNumNttPrimes];
      basis.ReduceLimbs(rep.limbs.data(), F::kLimbs, res);
      for (size_t pi = 0; pi < k; pi++) {
        out.r_[pi][i] = res[pi];
      }
    });
    return out;
  }

  std::vector<F> ToCoefficients(size_t workers) const {
    assert(basis_ != nullptr && bound_bits_ <= basis_->capacity_bits());
    std::vector<F> out(len_);
    ChunkedFor(len_, workers, [&](size_t i) {
      uint64_t res[kNumNttPrimes];
      for (size_t pi = 0; pi < basis_->k(); pi++) {
        res[pi] = r_[pi][i];
      }
      out[i] = basis_->Fold(res, 1);
    });
    return out;
  }

  F Coefficient(size_t i) const {
    assert(i < len_ && bound_bits_ <= basis_->capacity_bits());
    uint64_t res[kNumNttPrimes];
    for (size_t pi = 0; pi < basis_->k(); pi++) {
      res[pi] = r_[pi][i];
    }
    return basis_->Fold(res, 1);
  }

  static ResiduePoly Mul(const ResiduePoly& a, const ResiduePoly& b,
                         size_t workers) {
    assert(a.basis_ == b.basis_ && a.len_ > 0 && b.len_ > 0);
    const CrtBasis<F>& basis = *a.basis_;
    size_t out_len = a.len_ + b.len_ - 1;
    size_t log_n = CeilLog2(out_len);
    size_t n = size_t{1} << log_n;
    size_t bound =
        a.bound_bits_ + b.bound_bits_ + CeilLog2(std::min(a.len_, b.len_));
    assert(bound <= basis.capacity_bits());
    ResiduePoly out = Make(basis, out_len, bound);
    obs::MetricAdd("ntt.forward", 2 * basis.k());
    obs::MetricAdd("ntt.inverse", basis.k());
    obs::MetricObserve("ntt.points", n);
    ParallelFor(basis.k(), workers, [&](size_t pi) {
      const MontField64& f = basis.field(pi);
      std::vector<uint64_t> fa(n, 0), fb(n, 0);
      std::copy(a.r_[pi].begin(), a.r_[pi].end(), fa.begin());
      std::copy(b.r_[pi].begin(), b.r_[pi].end(), fb.begin());
      NttForward(pi, fa.data(), log_n);
      NttForward(pi, fb.data(), log_n);
      for (size_t i = 0; i < n; i++) {
        fa[i] = f.Mul(fa[i], fb[i]);
      }
      NttInverse(pi, fa.data(), log_n);
      std::copy(fa.begin(), fa.begin() + out_len, out.r_[pi].begin());
    });
    return out;
  }

  // Forward images at a fixed size, for reuse across many products.
  NttImages ForwardImages(size_t log_n, size_t workers) const {
    size_t n = size_t{1} << log_n;
    assert(len_ <= n);
    NttImages im;
    im.log_n = log_n;
    im.src_len = len_;
    im.src_bound_bits = bound_bits_;
    im.img.resize(basis_->k());
    obs::MetricAdd("ntt.forward", basis_->k());
    ParallelFor(basis_->k(), workers, [&](size_t pi) {
      im.img[pi].assign(n, 0);
      std::copy(r_[pi].begin(), r_[pi].end(), im.img[pi].begin());
      NttForward(pi, im.img[pi].data(), log_n);
    });
    return im;
  }

  // Coefficients lo..lo+count-1 of a ⊛ img. The transform may be shorter
  // than the full product: a cyclic convolution of size n folds product
  // index i + n onto i, which only touches indices below lo as long as the
  // full product length is at most n + lo (a middle product when lo > 0).
  static ResiduePoly MulImages(const ResiduePoly& a, const NttImages& bimg,
                               size_t lo, size_t count, size_t workers) {
    const CrtBasis<F>& basis = *a.basis_;
    size_t log_n = bimg.log_n;
    size_t n = size_t{1} << log_n;
    assert(a.len_ + bimg.src_len - 1 <= n + lo && lo + count <= n);
    size_t bound = a.bound_bits_ + bimg.src_bound_bits +
                   CeilLog2(std::min(a.len_, bimg.src_len));
    assert(bound <= basis.capacity_bits());
    ResiduePoly out = Make(basis, count, bound);
    obs::MetricAdd("ntt.forward", basis.k());
    obs::MetricAdd("ntt.inverse", basis.k());
    obs::MetricObserve("ntt.points", n);
    ParallelFor(basis.k(), workers, [&](size_t pi) {
      const MontField64& f = basis.field(pi);
      std::vector<uint64_t> fa(n, 0);
      std::copy(a.r_[pi].begin(), a.r_[pi].end(), fa.begin());
      NttForward(pi, fa.data(), log_n);
      const uint64_t* bi = bimg.img[pi].data();
      for (size_t i = 0; i < n; i++) {
        fa[i] = f.Mul(fa[i], bi[i]);
      }
      NttInverse(pi, fa.data(), log_n);
      std::copy(fa.begin() + lo, fa.begin() + lo + count,
                out.r_[pi].begin());
    });
    return out;
  }

 private:
  static ResiduePoly Make(const CrtBasis<F>& basis, size_t len, size_t bound) {
    ResiduePoly out;
    out.basis_ = &basis;
    out.len_ = len;
    out.bound_bits_ = bound;
    out.r_.resize(basis.k());
    for (auto& v : out.r_) {
      v.assign(len, 0);
    }
    return out;
  }

  // Per-coefficient work parallelized in contiguous chunks: fold/reduce of
  // coefficient i touches every prime row at index i, so the grain is the
  // coefficient, not the prime.
  template <typename Fn>
  static void ChunkedFor(size_t len, size_t workers, const Fn& fn) {
    constexpr size_t kChunk = 512;
    size_t chunks = (len + kChunk - 1) / kChunk;
    ParallelFor(chunks, workers, [&](size_t c) {
      size_t end = std::min(len, (c + 1) * kChunk);
      for (size_t i = c * kChunk; i < end; i++) {
        fn(i);
      }
    });
  }

  const CrtBasis<F>* basis_ = nullptr;
  size_t len_ = 0;
  size_t bound_bits_ = 0;
  std::vector<std::vector<uint64_t>> r_;  // [prime][coeff], Montgomery form
};

}  // namespace zaatar

#endif  // SRC_POLY_RESIDUE_H_
