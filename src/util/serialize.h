// Byte-level serialization for protocol messages.
//
// The paper's network accounting (§A.1: "a full query sent from V to P, and
// a random seed from which V and P derive the PCP queries pseudorandomly")
// needs concrete wire formats. This module provides bounds-checked
// little-endian encoding for field elements, big integers, ciphertexts, and
// the two protocol messages:
//   - SetupMessage (V -> P, once per batch): a 32-byte query seed, the
//     encrypted commitment vectors Enc(r), and the consistency vectors t.
//     The queries themselves are never shipped — P re-derives them from the
//     seed (they are public coin); r and the alphas stay verifier-secret.
//   - InstanceProofMessage (P -> V, per instance): the two commitments and
//     all oracle responses.
//
// Decoding is hardened against a malicious peer: every read returns a typed
// Status instead of throwing, length prefixes are validated against both the
// bytes actually present and a hard element cap before any allocation, and
// every field/group element is checked to be in canonical range (< modulus)
// rather than silently reduced.

#ifndef SRC_UTIL_SERIALIZE_H_
#define SRC_UTIL_SERIALIZE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/field/bigint.h"
#include "src/util/status.h"

namespace zaatar {

// Hard cap on elements per wire vector, independent of the claimed message
// size: the largest honest oracle is |u| elements, far below this, while a
// hostile 0xFFFFFFFF length prefix would otherwise request a multi-GB
// reserve() before the per-element reads could fail.
inline constexpr uint32_t kMaxWireVectorElements = 1u << 24;

// Integers travel little-endian (limbs low first, each limb's low byte
// first): their memory layout on a little-endian host, so the codec copies
// them as they are.
static_assert(std::endian::native == std::endian::little,
              "the wire codec copies integers in host byte order");

class ByteWriter {
 public:
  ByteWriter() = default;
  // Reserves `expected_bytes` up front, so a message whose size is known
  // from its shapes is written without regrowing the buffer.
  explicit ByteWriter(size_t expected_bytes) { buf_.reserve(expected_bytes); }

  void PutU32(uint32_t v) { std::memcpy(Extend(4), &v, 4); }

  void PutU64(uint64_t v) { std::memcpy(Extend(8), &v, 8); }

  template <size_t N>
  void PutBigInt(const BigInt<N>& v) {
    std::memcpy(Extend(N * 8), v.limbs.data(), N * 8);
  }

  void PutBytes(const uint8_t* data, size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }

  // Appends n bytes and returns where they start, for the caller to fill
  // before the next write.
  uint8_t* Extend(size_t n) {
    const size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  size_t size() const { return buf_.size(); }

  // Hands over the buffer without copying it; the writer is left empty.
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& bytes) : bytes_(&bytes) {}

  StatusOr<uint32_t> GetU32() {
    ZAATAR_ASSIGN_OR_RETURN(const uint8_t* in, GetSpan(4));
    uint32_t v = 0;
    std::memcpy(&v, in, 4);
    return v;
  }

  StatusOr<uint64_t> GetU64() {
    ZAATAR_ASSIGN_OR_RETURN(const uint8_t* in, GetSpan(8));
    uint64_t v = 0;
    std::memcpy(&v, in, 8);
    return v;
  }

  template <size_t N>
  StatusOr<BigInt<N>> GetBigInt() {
    ZAATAR_ASSIGN_OR_RETURN(const uint8_t* in, GetSpan(N * 8));
    BigInt<N> v;
    std::memcpy(v.limbs.data(), in, N * 8);
    return v;
  }

  Status GetBytes(uint8_t* out, size_t n) {
    ZAATAR_ASSIGN_OR_RETURN(const uint8_t* in, GetSpan(n));
    std::memcpy(out, in, n);
    return Status::Ok();
  }

  // Consumes the next n bytes and returns where they start.
  StatusOr<const uint8_t*> GetSpan(size_t n) {
    ZAATAR_RETURN_IF_ERROR(Require(n));
    const uint8_t* at = bytes_->data() + pos_;
    pos_ += n;
    return at;
  }

  // Reads a u32 element count and validates it against the cap and the bytes
  // actually remaining (`elem_bytes` per element), so a hostile length prefix
  // fails here — before any allocation proportional to it.
  StatusOr<uint32_t> GetLength(size_t elem_bytes,
                               uint32_t max_elements = kMaxWireVectorElements) {
    ZAATAR_ASSIGN_OR_RETURN(uint32_t n, GetU32());
    if (n > max_elements) {
      return LengthOverflowError("vector length exceeds element cap");
    }
    if (static_cast<uint64_t>(n) * elem_bytes > remaining()) {
      return LengthOverflowError("vector length exceeds message size");
    }
    return n;
  }

  // Decoders call this last: trailing bytes mean the peer sent a different
  // structure than claimed, which is rejected rather than ignored.
  Status ExpectEnd() const {
    if (!AtEnd()) {
      return MalformedError("trailing bytes after message");
    }
    return Status::Ok();
  }

  bool AtEnd() const { return pos_ == bytes_->size(); }
  size_t remaining() const { return bytes_->size() - pos_; }
  size_t position() const { return pos_; }

 private:
  Status Require(size_t n) const {
    if (n > remaining()) {
      return TruncatedError("serialized message truncated");
    }
    return Status::Ok();
  }

  const std::vector<uint8_t>* bytes_;
  size_t pos_ = 0;
};

// Field and group elements travel in canonical (non-Montgomery) form and are
// validated against the modulus on decode — a malformed message cannot
// smuggle an out-of-range residue into the protocol, and non-canonical
// encodings of a valid residue are rejected rather than silently reduced.
// P is any PrimeField instantiation (a verified-computation field F or an
// ElGamal group Zp).
template <typename P>
void PutField(ByteWriter* w, const P& v) {
  w->PutBigInt(v.ToCanonical());
}

template <typename P>
StatusOr<P> GetField(ByteReader* r) {
  ZAATAR_ASSIGN_OR_RETURN(typename P::Repr canonical,
                          r->template GetBigInt<P::kLimbs>());
  if (!(canonical < P::kModulus)) {
    return OutOfRangeError("element not in canonical range");
  }
  return P::FromCanonical(canonical);
}

// n consecutive elements with no length prefix, written in one piece.
template <typename P>
void PutFieldRow(ByteWriter* w, const P* x, size_t n) {
  constexpr size_t kBytes = P::kLimbs * 8;
  uint8_t* out = w->Extend(n * kBytes);
  for (size_t i = 0; i < n; i++) {
    const typename P::Repr canonical = x[i].ToCanonical();
    std::memcpy(out + i * kBytes, canonical.limbs.data(), kBytes);
  }
}

// Reads n consecutive elements into out[0, n): the same checks, in the same
// order, as n GetField calls, with one bounds check for the whole row.
template <typename P>
Status GetFieldRow(ByteReader* r, P* out, size_t n) {
  constexpr size_t kBytes = P::kLimbs * 8;
  const size_t whole = std::min(n, r->remaining() / kBytes);
  ZAATAR_ASSIGN_OR_RETURN(const uint8_t* in, r->GetSpan(whole * kBytes));
  for (size_t i = 0; i < whole; i++) {
    typename P::Repr canonical;
    std::memcpy(canonical.limbs.data(), in + i * kBytes, kBytes);
    if (!(canonical < P::kModulus)) {
      return OutOfRangeError("element not in canonical range");
    }
    out[i] = P::FromCanonical(canonical);
  }
  if (whole < n) {
    return TruncatedError("serialized message truncated");
  }
  return Status::Ok();
}

template <typename P>
void PutFieldVector(ByteWriter* w, const std::vector<P>& v) {
  w->PutU32(static_cast<uint32_t>(v.size()));
  PutFieldRow(w, v.data(), v.size());
}

template <typename P>
StatusOr<std::vector<P>> GetFieldVector(ByteReader* r) {
  ZAATAR_ASSIGN_OR_RETURN(uint32_t n, r->GetLength(P::kLimbs * 8));
  std::vector<P> v(n);
  ZAATAR_RETURN_IF_ERROR(GetFieldRow(r, v.data(), n));
  return v;
}

}  // namespace zaatar

#endif  // SRC_UTIL_SERIALIZE_H_
