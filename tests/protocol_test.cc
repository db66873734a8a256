// The message-driven session layer: round trips and corruption sweeps for
// the three protocol messages, runtime phase enforcement in both state
// machines, and full prover/verifier exchanges over the loopback and
// socketpair transports (including a two-threaded batch, which is the TSan
// CI target for this layer).

#include "src/protocol/session.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "src/constraints/qap.h"
#include "src/constraints/transform.h"
#include "src/field/fields.h"
#include "src/pcp/zaatar_pcp.h"
#include "src/testing/fault_injection.h"
#include "tests/test_util.h"

namespace zaatar {
namespace {

using F = F128;
using Adapter = ZaatarAdapter<F>;
using Arg = ZaatarArgument<F>;
using protocol::ProverSession;
using protocol::SessionPhase;
using protocol::VerifierSession;

// A small honest Zaatar batch. Built in place (Qap points into
// transform.r1cs), never copied.
struct SessionFixture {
  Prg sys_prg;
  RandomSystem<F> rs;
  ZaatarTransform<F> transform;
  Qap<F> qap;
  ZaatarProof<F> proof;
  Prg setup_prg;
  VerifierSession<F, Adapter> verifier;

  explicit SessionFixture(uint64_t seed, size_t unbound = 8,
                          size_t constraints = 14)
      : sys_prg(seed),
        rs(MakeRandomSatisfiedSystem<F>(sys_prg, unbound, 2, 2, constraints)),
        transform(GingerToZaatar(rs.system)),
        qap(transform.r1cs),
        proof(BuildZaatarProof(qap, transform.ExtendAssignment(rs.assignment))),
        setup_prg(seed + 1),
        verifier(ZaatarPcp<F>::GenerateQueries(qap, PcpParams::Light(),
                                               setup_prg),
                 setup_prg) {}

  SessionFixture(const SessionFixture&) = delete;
  SessionFixture& operator=(const SessionFixture&) = delete;

  std::array<const std::vector<F>*, 2> Vectors() const {
    return {&proof.z, &proof.h};
  }
};

// ----- message round trips and corruption sweeps -----

// Every truncation point must yield a typed error.
template <typename Decode>
void ExpectTruncationSweepRejects(const std::vector<uint8_t>& bytes,
                                  Decode decode) {
  for (size_t len = 0; len < bytes.size(); len++) {
    auto corrupted = Corruptor::Truncate(bytes, len);
    auto result = decode(corrupted);
    ASSERT_FALSE(result.ok()) << "prefix of " << len << " bytes decoded";
    ASSERT_NE(result.status().code(), StatusCode::kOk);
  }
}

// Every single-bit flip must either fail with a typed error or decode to a
// message whose canonical re-encoding is exactly the corrupted bytes (the
// wire format carries no redundancy, so decode ∘ encode must be the
// identity on every accepted byte string) — and never crash.
template <typename Decode, typename Reencode>
void ExpectBitFlipSweepIsClean(const std::vector<uint8_t>& bytes,
                               Decode decode, Reencode reencode) {
  for (size_t bit = 0; bit < bytes.size() * 8; bit++) {
    auto corrupted = Corruptor::FlipBit(bytes, bit);
    auto result = decode(corrupted);
    if (result.ok()) {
      ASSERT_EQ(reencode(*result), corrupted)
          << "bit " << bit << " decoded non-canonically";
    } else {
      ASSERT_NE(result.status().code(), StatusCode::kOk);
    }
  }
}

TEST(ProtocolMessageTest, SetupMessageRoundTripAndSweeps) {
  // Tiny system: the sweeps decode the message once per byte/bit.
  SessionFixture f(500, /*unbound=*/4, /*constraints=*/6);
  const auto& setup = f.verifier.setup();
  auto bytes = setup.SetupFrame();

  auto decoded = protocol::SetupMessage<F>::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->Serialize(), bytes);
  EXPECT_EQ(decoded->pk.g, setup.pk.g);
  EXPECT_EQ(decoded->pk.h, setup.pk.h);
  for (size_t o = 0; o < 2; o++) {
    EXPECT_EQ(decoded->oracles[o].queries,
              Adapter::OracleQueries(setup.queries, o));
    EXPECT_EQ(decoded->oracles[o].t, setup.shared[o].t);
    ASSERT_EQ(decoded->oracles[o].enc_r.size(), setup.shared[o].enc_r.size());
    for (size_t i = 0; i < setup.shared[o].enc_r.size(); i++) {
      EXPECT_EQ(decoded->oracles[o].enc_r[i].c1, setup.shared[o].enc_r[i].c1);
      EXPECT_EQ(decoded->oracles[o].enc_r[i].c2, setup.shared[o].enc_r[i].c2);
    }
  }

  ExpectTruncationSweepRejects(bytes, [](const std::vector<uint8_t>& b) {
    return protocol::SetupMessage<F>::Deserialize(b);
  });
  ExpectBitFlipSweepIsClean(
      bytes,
      [](const std::vector<uint8_t>& b) {
        return protocol::SetupMessage<F>::Deserialize(b);
      },
      [](const protocol::SetupMessage<F>& m) { return m.Serialize(); });
}

TEST(ProtocolMessageTest, ProofMessageRoundTripAndSweeps) {
  SessionFixture f(501, /*unbound=*/4, /*constraints=*/6);
  auto ip = Arg::Prove(f.Vectors(), f.verifier.setup());
  protocol::ProofMessage<F> msg;
  msg.instance_index = 7;
  for (size_t o = 0; o < 2; o++) {
    msg.commitments[o] = ip.parts[o].commitment;
    msg.responses[o] = ip.parts[o].responses;
    msg.t_responses[o] = ip.parts[o].t_response;
  }
  auto bytes = msg.Serialize();

  auto decoded = protocol::ProofMessage<F>::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->instance_index, 7u);
  for (size_t o = 0; o < 2; o++) {
    EXPECT_EQ(decoded->commitments[o].c1, msg.commitments[o].c1);
    EXPECT_EQ(decoded->commitments[o].c2, msg.commitments[o].c2);
    EXPECT_EQ(decoded->responses[o], msg.responses[o]);
    EXPECT_EQ(decoded->t_responses[o], msg.t_responses[o]);
  }

  ExpectTruncationSweepRejects(bytes, [](const std::vector<uint8_t>& b) {
    return protocol::ProofMessage<F>::Deserialize(b);
  });
  ExpectBitFlipSweepIsClean(
      bytes,
      [](const std::vector<uint8_t>& b) {
        return protocol::ProofMessage<F>::Deserialize(b);
      },
      [](const protocol::ProofMessage<F>& m) { return m.Serialize(); });
}

TEST(ProtocolMessageTest, VerdictMessageRoundTripAndSweeps) {
  protocol::VerdictMessage msg = protocol::VerdictMessage::FromResult(
      3, VerifyInstanceResult::Reject(VerifyVerdict::kRejectCommit,
                                      "oracle 1 commitment inconsistent"));
  auto bytes = msg.Serialize();

  auto decoded = protocol::VerdictMessage::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->instance_index, 3u);
  EXPECT_EQ(decoded->verdict, VerifyVerdict::kRejectCommit);
  EXPECT_EQ(decoded->detail, "oracle 1 commitment inconsistent");

  ExpectTruncationSweepRejects(bytes, [](const std::vector<uint8_t>& b) {
    return protocol::VerdictMessage::Deserialize(b);
  });
  ExpectBitFlipSweepIsClean(
      bytes,
      [](const std::vector<uint8_t>& b) {
        return protocol::VerdictMessage::Deserialize(b);
      },
      [](const protocol::VerdictMessage& m) { return m.Serialize(); });

  // An out-of-taxonomy verdict value is typed, not UB.
  auto hostile = Corruptor::PatchU32(bytes, 4, 0xFFFFFFFFu);
  auto bad = protocol::VerdictMessage::Deserialize(hostile);
  ASSERT_FALSE(bad.ok());
}

TEST(ProtocolMessageTest, VerdictDetailIsBounded) {
  protocol::VerdictMessage msg;
  msg.verdict = VerifyVerdict::kMalformed;
  msg.detail.assign(protocol::kMaxVerdictDetailBytes + 1, 'x');
  auto bytes = msg.Serialize();
  auto decoded = protocol::VerdictMessage::Deserialize(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kLengthOverflow);

  // FromResult truncates instead of producing an unencodable message.
  VerifyInstanceResult r = VerifyInstanceResult::Reject(
      VerifyVerdict::kMalformed,
      std::string(2 * protocol::kMaxVerdictDetailBytes, 'y'));
  auto bounded = protocol::VerdictMessage::FromResult(0, r);
  EXPECT_EQ(bounded.detail.size(), protocol::kMaxVerdictDetailBytes);
  EXPECT_TRUE(protocol::VerdictMessage::Deserialize(bounded.Serialize()).ok());
}

// The prover's context reconstructed from bytes must equal the verifier's
// in-process ProverView — serialization loses nothing the prover needs.
TEST(ProtocolMessageTest, ProverContextFromBytesMatchesProverView) {
  SessionFixture f(502, /*unbound=*/4, /*constraints=*/6);
  auto view = f.verifier.setup().ProverView();
  auto from_bytes =
      ProverContext<F>::FromBytes(f.verifier.setup().SetupFrame());
  ASSERT_TRUE(from_bytes.ok()) << from_bytes.status().ToString();
  EXPECT_EQ(from_bytes->pk.g, view.pk.g);
  EXPECT_EQ(from_bytes->pk.h, view.pk.h);
  for (size_t o = 0; o < 2; o++) {
    EXPECT_EQ(from_bytes->oracles[o].queries, view.oracles[o].queries);
    EXPECT_EQ(from_bytes->oracles[o].t, view.oracles[o].t);
    ASSERT_EQ(from_bytes->oracles[o].enc_r.size(),
              view.oracles[o].enc_r.size());
    for (size_t i = 0; i < view.oracles[o].enc_r.size(); i++) {
      EXPECT_EQ(from_bytes->oracles[o].enc_r[i].c1,
                view.oracles[o].enc_r[i].c1);
      EXPECT_EQ(from_bytes->oracles[o].enc_r[i].c2,
                view.oracles[o].enc_r[i].c2);
    }
  }

  // And a proof generated from the byte-derived context is accepted by the
  // real verifier: the two-party path proves against the same material.
  auto ip = Arg::Prove(f.Vectors(), *from_bytes);
  EXPECT_TRUE(
      Arg::VerifyInstance(f.verifier.setup(), ip, f.rs.BoundValues()));
}

// Cross-field invariants the structural decoder cannot see are enforced in
// ProverContext::FromMessage.
TEST(ProtocolMessageTest, ProverContextRejectsInconsistentMessage) {
  SessionFixture f(503, /*unbound=*/4, /*constraints=*/6);
  {
    auto msg = *protocol::SetupMessage<F>::Deserialize(
        f.verifier.setup().SetupFrame());
    msg.oracles[0].t.pop_back();
    auto ctx = ProverContext<F>::FromMessage(std::move(msg));
    ASSERT_FALSE(ctx.ok());
    EXPECT_EQ(ctx.status().code(), StatusCode::kMalformed);
  }
  {
    auto msg = *protocol::SetupMessage<F>::Deserialize(
        f.verifier.setup().SetupFrame());
    if (!msg.oracles[1].queries.empty()) {
      msg.oracles[1].queries[0].push_back(F::One());
    }
    auto ctx = ProverContext<F>::FromMessage(std::move(msg));
    ASSERT_FALSE(ctx.ok());
    EXPECT_EQ(ctx.status().code(), StatusCode::kMalformed);
  }
}

// ----- phase enforcement -----

TEST(ProtocolPhaseTest, VerifierSessionEnforcesPhases) {
  SessionFixture f(504);
  auto& v = f.verifier;

  // Commit/Decide operations before setup was emitted.
  auto early = v.HandleProof({}, {});
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), StatusCode::kPhaseViolation);
  auto early_verdict = v.EmitVerdict();
  ASSERT_FALSE(early_verdict.ok());
  EXPECT_EQ(early_verdict.status().code(), StatusCode::kPhaseViolation);

  ASSERT_TRUE(v.EmitSetup().ok());
  EXPECT_EQ(v.phase(), SessionPhase::kCommit);

  // Setup is once per batch.
  auto again = v.EmitSetup();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kPhaseViolation);

  // A verdict can only follow a handled proof.
  auto no_proof = v.EmitVerdict();
  ASSERT_FALSE(no_proof.ok());
  EXPECT_EQ(no_proof.status().code(), StatusCode::kPhaseViolation);

  auto ip = Arg::Prove(f.Vectors(), v.setup());
  protocol::ProofMessage<F> msg;
  msg.instance_index = 0;
  for (size_t o = 0; o < 2; o++) {
    msg.commitments[o] = ip.parts[o].commitment;
    msg.responses[o] = ip.parts[o].responses;
    msg.t_responses[o] = ip.parts[o].t_response;
  }
  auto result = v.HandleProof(msg.Serialize(), f.rs.BoundValues());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->accepted()) << result->detail;
  EXPECT_EQ(v.phase(), SessionPhase::kDecide);

  // Two proofs without an intervening verdict violate the cycle.
  auto second = v.HandleProof(msg.Serialize(), f.rs.BoundValues());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kPhaseViolation);

  ASSERT_TRUE(v.EmitVerdict().ok());
  EXPECT_EQ(v.phase(), SessionPhase::kCommit);
}

TEST(ProtocolPhaseTest, ProverSessionEnforcesPhases) {
  SessionFixture f(505);
  ProverSession<F> p;

  // Everything but setup is out of phase initially.
  auto early_commit = p.Commit(f.Vectors());
  EXPECT_EQ(early_commit.code(), StatusCode::kPhaseViolation);
  auto early_decommit = p.Decommit();
  ASSERT_FALSE(early_decommit.ok());
  EXPECT_EQ(early_decommit.status().code(), StatusCode::kPhaseViolation);
  auto early_verdict = p.IngestVerdict({});
  ASSERT_FALSE(early_verdict.ok());
  EXPECT_EQ(early_verdict.status().code(), StatusCode::kPhaseViolation);

  auto setup_bytes = f.verifier.EmitSetup();
  ASSERT_TRUE(setup_bytes.ok());
  ASSERT_TRUE(p.IngestSetup(*setup_bytes).ok());
  EXPECT_EQ(p.phase(), SessionPhase::kCommit);

  // Setup is once per batch; Decommit needs a commitment first.
  EXPECT_EQ(p.IngestSetup(*setup_bytes).code(),
            StatusCode::kPhaseViolation);
  auto no_commit = p.Decommit();
  ASSERT_FALSE(no_commit.ok());
  EXPECT_EQ(no_commit.status().code(), StatusCode::kPhaseViolation);

  ASSERT_TRUE(p.Commit(f.Vectors()).ok());
  EXPECT_EQ(p.phase(), SessionPhase::kDecommit);
  EXPECT_EQ(p.Commit(f.Vectors()).code(), StatusCode::kPhaseViolation);

  auto proof_bytes = p.Decommit();
  ASSERT_TRUE(proof_bytes.ok());
  EXPECT_EQ(p.phase(), SessionPhase::kDecide);

  // The verdict must be for the in-flight instance.
  auto result = f.verifier.HandleProof(*proof_bytes, f.rs.BoundValues());
  ASSERT_TRUE(result.ok());
  auto verdict_bytes = f.verifier.EmitVerdict();
  ASSERT_TRUE(verdict_bytes.ok());
  auto ingested = p.IngestVerdict(*verdict_bytes);
  ASSERT_TRUE(ingested.ok());
  EXPECT_TRUE(ingested->accepted());
  EXPECT_EQ(p.phase(), SessionPhase::kCommit);
  EXPECT_EQ(p.next_instance(), 1u);

  // Replaying instance 0's verdict against instance 1 is malformed.
  ASSERT_TRUE(p.Commit(f.Vectors()).ok());
  ASSERT_TRUE(p.Decommit().ok());
  auto replay = p.IngestVerdict(*verdict_bytes);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kMalformed);
}

// The prover rejects vectors whose shape disagrees with the ingested setup
// before any cryptography runs.
TEST(ProtocolPhaseTest, ProverValidatesVectorShapes) {
  SessionFixture f(506);
  ProverSession<F> p;
  auto setup_bytes = f.verifier.EmitSetup();
  ASSERT_TRUE(setup_bytes.ok());
  ASSERT_TRUE(p.IngestSetup(*setup_bytes).ok());

  std::vector<F> short_z(f.proof.z.begin(), f.proof.z.end() - 1);
  auto bad = p.Commit({&short_z, &f.proof.h});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kMalformed);
  EXPECT_EQ(p.phase(), SessionPhase::kCommit);  // still usable

  ASSERT_TRUE(p.Commit(f.Vectors()).ok());
}

// ----- hostile bytes into a live verifier session -----

// Undecodable or replayed proof frames consume the instance slot with a
// kMalformed verdict and leave the session able to verify the next honest
// instance — the PR-1 batch isolation contract at the session layer.
TEST(ProtocolSessionTest, HostileProofBytesAreIsolatedPerInstance) {
  SessionFixture f(507);
  auto& v = f.verifier;
  ASSERT_TRUE(v.EmitSetup().ok());

  auto hostile = v.HandleProof({0xFF, 0x00, 0xBA, 0xAD}, f.rs.BoundValues());
  ASSERT_TRUE(hostile.ok());
  EXPECT_EQ(hostile->verdict, VerifyVerdict::kMalformed);
  ASSERT_TRUE(v.EmitVerdict().ok());

  // Instance 1: an honest proof mislabeled as instance 0 (a replay).
  auto ip = Arg::Prove(f.Vectors(), v.setup());
  protocol::ProofMessage<F> msg;
  msg.instance_index = 0;
  for (size_t o = 0; o < 2; o++) {
    msg.commitments[o] = ip.parts[o].commitment;
    msg.responses[o] = ip.parts[o].responses;
    msg.t_responses[o] = ip.parts[o].t_response;
  }
  auto replay = v.HandleProof(msg.Serialize(), f.rs.BoundValues());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->verdict, VerifyVerdict::kMalformed);
  ASSERT_TRUE(v.EmitVerdict().ok());

  // Instance 2: honest and correctly labeled — accepted.
  msg.instance_index = 2;
  auto honest = v.HandleProof(msg.Serialize(), f.rs.BoundValues());
  ASSERT_TRUE(honest.ok());
  EXPECT_TRUE(honest->accepted()) << honest->detail;

  ASSERT_EQ(v.results().size(), 3u);
  EXPECT_FALSE(v.results()[0].accepted());
  EXPECT_FALSE(v.results()[1].accepted());
  EXPECT_TRUE(v.results()[2].accepted());
}

// ----- transports -----

TEST(ProtocolTransportTest, LoopbackPreservesFramesAndSignalsClose) {
  auto pair = protocol::MakeLoopbackPair();
  std::vector<uint8_t> frame = {1, 2, 3, 4, 5};
  ASSERT_TRUE(pair.left->Send(frame).ok());
  ASSERT_TRUE(pair.left->Send({}).ok());  // empty frames are legal
  auto got = pair.right->Receive();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, frame);
  auto empty = pair.right->Receive();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  pair.left->Close();
  auto closed = pair.right->Receive();
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().code(), StatusCode::kTruncated);
  auto send_after = pair.right->Send(frame);
  ASSERT_FALSE(send_after.ok());
}

TEST(ProtocolTransportTest, PipePreservesFramesAcrossThreads) {
  auto pair_or = protocol::PipeTransport::CreatePair();
  ASSERT_TRUE(pair_or.ok()) << pair_or.status().ToString();
  auto pair = std::move(*pair_or);

  // A frame larger than a socket buffer forces partial writes/reads, so the
  // sender must run concurrently with the receiver.
  std::vector<uint8_t> big(1 << 21);
  for (size_t i = 0; i < big.size(); i++) {
    big[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  std::thread sender([&] {
    ASSERT_TRUE(pair.left->Send(big).ok());
    ASSERT_TRUE(pair.left->Send({9, 9, 9}).ok());
    pair.left->Close();
  });
  auto got = pair.right->Receive();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, big);
  auto small = pair.right->Receive();
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(*small, (std::vector<uint8_t>{9, 9, 9}));
  auto eof = pair.right->Receive();
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kTruncated);
  sender.join();
}

// A hostile peer writing a raw length prefix over the cap must get a typed
// overflow before the receiver allocates anything. The public Send() always
// writes honest prefixes, so the hostile side writes to the socket directly.
TEST(ProtocolTransportTest, PipeRejectsHostileLengthPrefix) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  protocol::PipeTransport receiver(fds[0]);
  const uint8_t evil[4] = {0xFF, 0xFF, 0xFF, 0xFF};  // ~4 GiB claim
  ASSERT_EQ(::send(fds[1], evil, 4, 0), 4);
  auto got = receiver.Receive();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kLengthOverflow);
  ::close(fds[1]);
}

// A truncated frame (honest prefix, missing body) is a typed truncation.
TEST(ProtocolTransportTest, PipeRejectsTruncatedFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  protocol::PipeTransport receiver(fds[0]);
  const uint8_t header[4] = {16, 0, 0, 0};  // claims 16 bytes
  ASSERT_EQ(::send(fds[1], header, 4, 0), 4);
  const uint8_t body[8] = {1, 2, 3, 4, 5, 6, 7, 8};  // only 8 arrive
  ASSERT_EQ(::send(fds[1], body, 8, 0), 8);
  ::shutdown(fds[1], SHUT_WR);
  auto got = receiver.Receive();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kTruncated);
  ::close(fds[1]);
}

// ----- full exchanges -----

// Drives a beta-instance batch with the prover on its own thread over the
// given transport pair; asserts both sides agree and everything accepts.
void RunTwoThreadedBatch(SessionFixture& f, protocol::TransportPair pair,
                         size_t beta) {
  std::vector<VerifyInstanceResult> prover_seen;
  std::thread prover_thread([&] {
    ProverSession<F> session;
    ASSERT_TRUE(session.ReceiveSetup(*pair.right).ok());
    for (size_t i = 0; i < beta; i++) {
      auto sent = session.ProveInstance(*pair.right, f.Vectors());
      ASSERT_TRUE(sent.ok()) << sent.status().ToString();
      auto verdict = session.ReceiveVerdict(*pair.right);
      ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
      prover_seen.push_back(*verdict);
    }
  });

  ASSERT_TRUE(f.verifier.SendSetup(*pair.left).ok());
  for (size_t i = 0; i < beta; i++) {
    auto result = f.verifier.DecideNext(*pair.left, f.rs.BoundValues());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->accepted()) << "instance " << i << ": "
                                    << result->detail;
  }
  prover_thread.join();

  ASSERT_EQ(prover_seen.size(), beta);
  ASSERT_EQ(f.verifier.results().size(), beta);
  for (size_t i = 0; i < beta; i++) {
    EXPECT_EQ(prover_seen[i].verdict, f.verifier.results()[i].verdict);
    EXPECT_TRUE(prover_seen[i].accepted());
  }
  EXPECT_GT(f.verifier.setup_bytes_sent(), 0u);
  EXPECT_GT(f.verifier.proof_bytes_received(), 0u);
}

TEST(ProtocolSessionTest, TwoThreadedBatchOverLoopback) {
  SessionFixture f(508);
  RunTwoThreadedBatch(f, protocol::MakeLoopbackPair(), 3);
}

TEST(ProtocolSessionTest, TwoThreadedBatchOverSocketpair) {
  SessionFixture f(509);
  auto pair = protocol::PipeTransport::CreatePair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  RunTwoThreadedBatch(f, std::move(*pair), 3);
}

// A cheating prover over the real transport: the tampered instance gets its
// typed reject delivered as a VerdictMessage, honest neighbors accept.
TEST(ProtocolSessionTest, CheatingInstanceGetsTypedVerdictOverTransport) {
  SessionFixture f(510);
  auto pair = protocol::MakeLoopbackPair();

  std::vector<VerifyInstanceResult> prover_seen;
  std::thread prover_thread([&] {
    ProverSession<F> session;
    ASSERT_TRUE(session.ReceiveSetup(*pair.right).ok());
    for (size_t i = 0; i < 3; i++) {
      if (i == 1) {
        // Commit honestly, then tamper with a response after the fact.
        ASSERT_TRUE(session.Commit(f.Vectors()).ok());
        auto frame = session.Decommit();
        ASSERT_TRUE(frame.ok());
        auto msg = protocol::ProofMessage<F>::Deserialize(*frame);
        ASSERT_TRUE(msg.ok());
        msg->responses[0][0] += F::One();
        ASSERT_TRUE(pair.right->Send(msg->Serialize()).ok());
      } else {
        ASSERT_TRUE(session.ProveInstance(*pair.right, f.Vectors()).ok());
      }
      auto verdict = session.ReceiveVerdict(*pair.right);
      ASSERT_TRUE(verdict.ok());
      prover_seen.push_back(*verdict);
    }
  });

  ASSERT_TRUE(f.verifier.SendSetup(*pair.left).ok());
  for (size_t i = 0; i < 3; i++) {
    auto result = f.verifier.DecideNext(*pair.left, f.rs.BoundValues());
    ASSERT_TRUE(result.ok());
  }
  prover_thread.join();

  ASSERT_EQ(prover_seen.size(), 3u);
  EXPECT_EQ(prover_seen[0].verdict, VerifyVerdict::kAccept);
  EXPECT_EQ(prover_seen[1].verdict, VerifyVerdict::kRejectCommit);
  EXPECT_EQ(prover_seen[2].verdict, VerifyVerdict::kAccept);
}

}  // namespace
}  // namespace zaatar
