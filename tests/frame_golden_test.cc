// Golden digests of protocol frames: pins the bytes of the SetupMessage and
// of the ProofMessages for lcs m=8 under PcpParams::Light() with fixed
// seeds. The setup frame covers the public key, Enc(r), the plaintext query
// rows and the consistency vectors t; the proof frames cover the
// commitments and every query answer. A change to how the verifier builds t,
// how the prover answers, or how either frame is encoded must leave both
// values unchanged; a deliberate change to the protocol regenerates them
// (the failure message prints the new digest).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/apps/suite.h"
#include "src/compiler/compile.h"
#include "src/constraints/qap.h"
#include "src/field/fields.h"
#include "src/pcp/zaatar_pcp.h"
#include "src/protocol/session.h"

namespace zaatar {
namespace {

using F = F128;

// 64-bit FNV-1a over a byte string, chained across calls.
class ByteDigest {
 public:
  void Bytes(const std::vector<uint8_t>& bytes) {
    for (uint8_t b : bytes) {
      h_ = (h_ ^ b) * 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

TEST(FrameGoldenTest, Lcs8LightSetupAndProofFrames) {
  App<F> app = MakeLcsApp(8);
  CompiledProgram<F> program = CompileZlang<F>(app.source);
  Qap<F> qap(program.zaatar.r1cs);
  Prg prg(0x5E7F);
  protocol::VerifierSession<F, ZaatarAdapter<F>> verifier(
      ZaatarPcp<F>::GenerateQueries(qap, PcpParams::Light(), prg), prg);
  auto setup = verifier.EmitSetup();
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();

  protocol::ProverSession<F> prover;
  ASSERT_TRUE(prover.IngestSetup(*setup).ok());
  Prg input_prg(0x1A7E);
  ByteDigest proofs;
  size_t proof_bytes = 0;
  for (int i = 0; i < 2; i++) {
    AppInstance<F> inst = app.make_instance(input_prg);
    ZaatarProof<F> proof = BuildZaatarProof(
        qap, program.SolveZaatar(program.SolveGinger(inst.inputs)));
    ASSERT_TRUE(prover.Commit({&proof.z, &proof.h}).ok());
    auto frame = prover.Decommit();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    proofs.Bytes(*frame);
    proof_bytes += frame->size();
    auto result = verifier.HandleProof(
        *frame, program.BoundValues(inst.inputs, inst.expected_outputs));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->verdict, VerifyVerdict::kAccept) << result->detail;
    auto verdict = verifier.EmitVerdict();
    ASSERT_TRUE(verdict.ok());
    ASSERT_TRUE(prover.IngestVerdict(*verdict).ok());
  }

  ByteDigest setup_digest;
  setup_digest.Bytes(*setup);
  EXPECT_EQ(setup->size(), 994720u);
  EXPECT_EQ(setup_digest.value(), 0xdfb4b4d76fe12390ULL)
      << "setup digest 0x" << std::hex << setup_digest.value();
  EXPECT_EQ(proof_bytes, 2520u);
  EXPECT_EQ(proofs.value(), 0x2f1226a42f0ce50aULL)
      << "proof digest 0x" << std::hex << proofs.value();
}

}  // namespace
}  // namespace zaatar
