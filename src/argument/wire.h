// Concrete wire formats for the two protocol messages, realizing the
// network-cost structure of Appendix A.1 / the paper's cost discussion:
// the verifier ships a query *seed* (public coin) plus the encrypted
// commitment material; the prover ships commitments and responses.
//
// Deserialize() is the trust boundary: bytes from the peer are arbitrary.
// Both decoders return StatusOr instead of throwing, validate every length
// prefix before allocating (a hostile 0xFFFFFFFF element count fails as
// LENGTH_OVERFLOW, it cannot OOM the verifier), and range-check every field
// element and ElGamal ciphertext component against its modulus (OUT_OF_RANGE
// rather than silent reduction). Trailing bytes are MALFORMED.

#ifndef SRC_ARGUMENT_WIRE_H_
#define SRC_ARGUMENT_WIRE_H_

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "src/argument/argument.h"
#include "src/util/serialize.h"
#include "src/util/status.h"

namespace zaatar {

// V -> P, once per (computation, batch). The PCP queries are derived from
// `query_seed` by both parties (GenerateQueries is deterministic in the
// Prg); Enc(r) and t are the commitment phase-1/3 material. The verifier's
// secrets (r, alphas, the ElGamal secret key) never leave its side.
template <typename F>
struct SetupMessage {
  uint64_t query_seed = 0;
  // Per oracle: the encrypted r vector and the consistency vector t.
  std::array<std::vector<typename ElGamal<F>::Ciphertext>, 2> enc_r;
  std::array<std::vector<F>, 2> t;

  static SetupMessage FromSetup(
      uint64_t seed, const typename Argument<F, ZaatarAdapter<F>>::
                         VerifierSetup& setup) {
    SetupMessage msg;
    msg.query_seed = seed;
    for (size_t o = 0; o < 2; o++) {
      msg.enc_r[o] = setup.shared[o].enc_r;
      msg.t[o] = setup.shared[o].t;
    }
    return msg;
  }

  std::vector<uint8_t> Serialize() const {
    ByteWriter w;
    w.PutU64(query_seed);
    for (size_t o = 0; o < 2; o++) {
      w.PutU32(static_cast<uint32_t>(enc_r[o].size()));
      for (const auto& ct : enc_r[o]) {
        w.PutBigInt(ct.c1.ToCanonical());
        w.PutBigInt(ct.c2.ToCanonical());
      }
      PutFieldVector(&w, t[o]);
    }
    return w.Take();
  }

  static StatusOr<SetupMessage> Deserialize(
      const std::vector<uint8_t>& bytes) {
    using EG = ElGamal<F>;
    using Zp = typename EG::Zp;
    SetupMessage msg;
    ByteReader r(bytes);
    ZAATAR_ASSIGN_OR_RETURN(msg.query_seed, r.GetU64());
    for (size_t o = 0; o < 2; o++) {
      // Each ciphertext is two canonical Zp elements.
      ZAATAR_ASSIGN_OR_RETURN(uint32_t n, r.GetLength(2 * Zp::kLimbs * 8));
      msg.enc_r[o].reserve(n);
      for (uint32_t i = 0; i < n; i++) {
        typename EG::Ciphertext ct;
        ZAATAR_ASSIGN_OR_RETURN(ct.c1, GetField<Zp>(&r));
        ZAATAR_ASSIGN_OR_RETURN(ct.c2, GetField<Zp>(&r));
        msg.enc_r[o].push_back(ct);
      }
      ZAATAR_ASSIGN_OR_RETURN(msg.t[o], GetFieldVector<F>(&r));
    }
    ZAATAR_RETURN_IF_ERROR(r.ExpectEnd());
    return msg;
  }
};

// P -> V, once per instance.
template <typename F>
struct InstanceProofMessage {
  std::array<typename ElGamal<F>::Ciphertext, 2> commitments;
  std::array<std::vector<F>, 2> responses;
  std::array<F, 2> t_responses;

  template <typename Adapter>
  static InstanceProofMessage FromProof(
      const typename Argument<F, Adapter>::InstanceProof& proof) {
    InstanceProofMessage msg;
    for (size_t o = 0; o < 2; o++) {
      msg.commitments[o] = proof.parts[o].commitment;
      msg.responses[o] = proof.parts[o].responses;
      msg.t_responses[o] = proof.parts[o].t_response;
    }
    return msg;
  }

  // Rebuilds the in-memory proof (costs are transport metadata, not wire
  // content, and reset to zero).
  template <typename Adapter>
  typename Argument<F, Adapter>::InstanceProof ToProof() const {
    typename Argument<F, Adapter>::InstanceProof proof;
    for (size_t o = 0; o < 2; o++) {
      proof.parts[o].commitment = commitments[o];
      proof.parts[o].responses = responses[o];
      proof.parts[o].t_response = t_responses[o];
    }
    return proof;
  }

  std::vector<uint8_t> Serialize() const {
    ByteWriter w;
    for (size_t o = 0; o < 2; o++) {
      w.PutBigInt(commitments[o].c1.ToCanonical());
      w.PutBigInt(commitments[o].c2.ToCanonical());
      PutFieldVector(&w, responses[o]);
      PutField(&w, t_responses[o]);
    }
    return w.Take();
  }

  static StatusOr<InstanceProofMessage> Deserialize(
      const std::vector<uint8_t>& bytes) {
    using EG = ElGamal<F>;
    using Zp = typename EG::Zp;
    InstanceProofMessage msg;
    ByteReader r(bytes);
    for (size_t o = 0; o < 2; o++) {
      ZAATAR_ASSIGN_OR_RETURN(msg.commitments[o].c1, GetField<Zp>(&r));
      ZAATAR_ASSIGN_OR_RETURN(msg.commitments[o].c2, GetField<Zp>(&r));
      ZAATAR_ASSIGN_OR_RETURN(msg.responses[o], GetFieldVector<F>(&r));
      ZAATAR_ASSIGN_OR_RETURN(msg.t_responses[o], GetField<F>(&r));
    }
    ZAATAR_RETURN_IF_ERROR(r.ExpectEnd());
    return msg;
  }
};

// The full hardened ingest path: untrusted bytes -> typed verdict. Decode
// failures map to kMalformed (with the decoder's detail); decoded proofs go
// through shape validation and the cryptographic checks. This is the entry
// point a network-facing verifier should use — it cannot throw on any input.
template <typename F, typename Adapter>
VerifyInstanceResult VerifyInstanceBytes(
    const typename Argument<F, Adapter>::VerifierSetup& setup,
    const std::vector<uint8_t>& proof_bytes,
    const std::vector<F>& bound_values, double* seconds = nullptr) {
  auto decoded = InstanceProofMessage<F>::Deserialize(proof_bytes);
  if (!decoded.ok()) {
    return VerifyInstanceResult::Reject(VerifyVerdict::kMalformed,
                                        decoded.status().ToString());
  }
  auto proof = decoded->template ToProof<Adapter>();
  return Argument<F, Adapter>::VerifyInstanceDetailed(setup, proof,
                                                      bound_values, seconds);
}

// Batch form of VerifyInstanceBytes: each instance's bytes are decoded and
// verified independently, so one hostile message yields one kMalformed slot
// and leaves the other beta-1 verdicts intact.
template <typename F, typename Adapter>
std::vector<VerifyInstanceResult> VerifyBatchBytes(
    const typename Argument<F, Adapter>::VerifierSetup& setup,
    const std::vector<std::vector<uint8_t>>& proof_bytes,
    const std::vector<std::vector<F>>& bound_values,
    double* seconds = nullptr) {
  std::vector<VerifyInstanceResult> results;
  results.reserve(proof_bytes.size());
  for (size_t i = 0; i < proof_bytes.size(); i++) {
    if (i < bound_values.size()) {
      results.push_back(VerifyInstanceBytes<F, Adapter>(
          setup, proof_bytes[i], bound_values[i], seconds));
    } else {
      results.push_back(VerifyInstanceResult::Reject(
          VerifyVerdict::kMalformed,
          "instance " + std::to_string(i) + ": missing bound values (batch " +
              "carries " + std::to_string(bound_values.size()) +
              " bound value vectors)"));
    }
  }
  return results;
}

}  // namespace zaatar

#endif  // SRC_ARGUMENT_WIRE_H_
