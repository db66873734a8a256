// The public calls the benchmark times, one "bench.<layer>" span each, shared
// by the batch and serve workloads so that a layer means the same calls on
// every workload. With no tracer installed on the thread a span is one
// thread-local read, which is how the untraced (end-to-end) runs use them.

#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "src/argument/argument.h"
#include "src/compiler/compile.h"
#include "src/constraints/qap.h"
#include "src/crypto/prg.h"
#include "src/obs/trace.h"
#include "src/pcp/params.h"
#include "src/pcp/zaatar_pcp.h"
#include "src/protocol/prover_session.h"
#include "src/protocol/verifier_session.h"
#include "src/util/status.h"

namespace perfbench {

using zaatar::CompiledProgram;
using zaatar::F128;
using zaatar::PcpParams;
using zaatar::Prg;
using zaatar::Qap;

template <typename F>
using Verifier = zaatar::protocol::VerifierSession<F, zaatar::ZaatarAdapter<F>>;

template <typename T>
T Unwrap(zaatar::StatusOr<T> v, const char* what) {
  if (!v.ok()) {
    throw std::runtime_error(std::string(what) + ": " + v.status().ToString());
  }
  return std::move(*v);
}

inline void Check(const zaatar::Status& st, const char* what) {
  if (!st.ok()) {
    throw std::runtime_error(std::string(what) + ": " + st.ToString());
  }
}

template <typename F>
CompiledProgram<F> Compile(const std::string& source) {
  obs::Span span("bench.compiler.compile");
  return zaatar::CompileZlang<F>(source);
}

// Qap::WarmProver: the prover's one-time per-Ψ set-up.
template <typename F>
void Warm(const Qap<F>& qap) {
  obs::Span span("bench.qap.warm");
  qap.WarmProver();
}

// The verifier's per-batch set-up: query generation, then the commitment
// set-up (keys, Enc(r), t) in the VerifierSession constructor.
template <typename F>
struct VerifierSetup {
  Verifier<F> session;
  size_t queries = 0;
  double query_gen_s = 0;
  double commit_setup_s = 0;
};

template <typename F>
VerifierSetup<F> SetUpVerifier(const Qap<F>& qap, const PcpParams& params,
                               Prg& prg) {
  const Clock::time_point t0 = Clock::now();
  typename zaatar::ZaatarPcp<F>::Queries queries = [&] {
    obs::Span span("bench.pcp.query_gen");
    return zaatar::ZaatarPcp<F>::GenerateQueries(qap, params, prg);
  }();
  const double query_gen_s = SecondsSince(t0);
  const size_t count = queries.TotalQueryCount();
  const Clock::time_point t1 = Clock::now();
  Verifier<F> session = [&] {
    obs::Span span("bench.commit.setup");
    return Verifier<F>(std::move(queries), prg, query_gen_s);
  }();
  return {std::move(session), count, query_gen_s, SecondsSince(t1)};
}

template <typename F>
std::vector<uint8_t> EncodeSetup(Verifier<F>& verifier) {
  obs::Span span("bench.protocol.setup_encode");
  return Unwrap(verifier.EmitSetup(), "EmitSetup");
}

template <typename F>
void IngestSetup(zaatar::protocol::ProverSession<F>& session,
                 const std::vector<uint8_t>& frame) {
  obs::Span span("bench.protocol.setup_ingest");
  Check(session.IngestSetup(frame), "IngestSetup");
}

// The four per-instance prover layers. Callers open a "bench.prove" span
// around ProveOne plus the hand-off of its frame; what these children do
// not cover of it is the blocking path's unaccounted time.
inline const std::vector<std::string>& ProveLayers() {
  static const std::vector<std::string> kLayers = {
      "bench.compiler.solve", "bench.qap.compute_h", "bench.commit.commit",
      "bench.commit.answer"};
  return kLayers;
}

// One instance on the prover's blocking path, from the witness solve to the
// framed ProofMessage. `outputs` gets the compiled program's outputs.
template <typename F>
std::vector<uint8_t> ProveOne(const CompiledProgram<F>& program,
                              const Qap<F>& qap,
                              zaatar::protocol::ProverSession<F>& session,
                              const std::vector<F>& inputs,
                              std::vector<F>* outputs) {
  std::vector<F> gw;
  std::vector<F> w;
  {
    obs::Span span("bench.compiler.solve");
    gw = program.SolveGinger(inputs);
    w = program.SolveZaatar(gw);
  }
  *outputs = program.ExtractOutputs(gw);
  zaatar::ZaatarProof<F> proof;
  {
    obs::Span span("bench.qap.compute_h");
    proof = zaatar::BuildZaatarProof(qap, w);
  }
  {
    obs::Span span("bench.commit.commit");
    Check(session.Commit({&proof.z, &proof.h}), "Commit");
  }
  obs::Span span("bench.commit.answer");
  return Unwrap(session.Decommit(), "Decommit");
}

// A Prg draw of `elements` field elements, the count query generation
// samples: the PRG's share of query generation, as its own layer.
template <typename F>
void DrawPrg(uint64_t seed, size_t elements) {
  Prg prg(seed);
  F acc = F::Zero();
  {
    obs::Span span("bench.crypto.prg");
    for (size_t i = 0; i < elements; i++) {
      acc = acc + prg.NextField<F>();
    }
  }
  if (acc.IsZero()) {  // keeps the draw live
    std::fputs("prg draw summed to zero\n", stderr);
  }
}

// Terms one instance's answers cost: every query row plus the consistency
// vector t of each oracle, one multiply-add per element.
template <typename F>
size_t AnswerTerms(const Verifier<F>& verifier) {
  const auto& q = verifier.setup().queries;
  return verifier.setup().TotalQueryElements() + q.z_len + q.h_len;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
