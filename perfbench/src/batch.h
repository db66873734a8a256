// Batch workloads: one Ψ proven in batches of β instances by an in-process
// two-party exchange. The verifier runs on the calling thread, the prover on
// its own thread, and only serialized protocol frames cross between them
// over a loopback transport. Every batch does its own set-up (compile,
// Qap::WarmProver, query generation, commitment set-up, setup frame
// transfer and ingest), so the set-up is amortized over exactly β instances
// as in the paper's batching model.

#ifndef PERFBENCH_SRC_BATCH_H_
#define PERFBENCH_SRC_BATCH_H_

#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "src/apps/suite.h"
#include "src/protocol/transport.h"

namespace perfbench {

struct BatchSample {
  double wall_s = 0;      // the whole batch, set-up included
  double setup_s = 0;     // start until the prover holds a ready context
  double handoff_s = 0;   // setup frame encode, transfer and ingest
  double verifier_s = 0;  // query gen + commit set-up + every verify
  size_t accepted = 0;
  std::vector<double> prove_s;     // solve until the proof frame is sent
  std::vector<double> verified_s;  // solve until the verdict is in
  std::vector<double> rtt_s;       // proof frame sent until verdict in
  size_t setup_bytes = 0;
  std::vector<size_t> proof_bytes;
  size_t queries = 0;
  size_t constraints = 0;
  size_t query_elements = 0;
  size_t answer_terms = 0;
};

// One batch. Instance inputs and the protocol's randomness both derive from
// (seed, index). With `probe_reject`, instance 0's proof frame is replayed
// afterwards to a fresh verifier session with a perturbed output, which
// must reject. Failures are recorded in `report`; a broken exchange throws.
template <typename F>
BatchSample RunBatch(const zaatar::App<F>& app, const PcpParams& params,
                     size_t beta, uint64_t seed, uint64_t index,
                     obs::Tracer* tracer, bool probe_reject, Report* report) {
  namespace protocol = zaatar::protocol;
  Prg input_prg(SubSeed(seed, 1, index));
  std::vector<zaatar::AppInstance<F>> instances;
  for (size_t i = 0; i < beta; i++) {
    instances.push_back(app.make_instance(input_prg));
  }
  Prg prg(SubSeed(seed, 2, index));

  obs::ScopedThreadTracer install(tracer);
  BatchSample out;
  const Clock::time_point t0 = Clock::now();
  const CompiledProgram<F> program = Compile<F>(app.source);
  const Qap<F> qap(program.zaatar.r1cs);
  Warm(qap);
  VerifierSetup<F> vs = SetUpVerifier(qap, params, prg);
  Verifier<F>& verifier = vs.session;
  out.verifier_s = vs.query_gen_s + vs.commit_setup_s;
  out.queries = vs.queries;
  out.constraints = program.CZaatar();
  out.query_elements = verifier.setup().TotalQueryElements();
  out.answer_terms = AnswerTerms(verifier);

  const Clock::time_point t_handoff = Clock::now();
  protocol::TransportPair link = protocol::MakeLoopbackPair();
  {
    const std::vector<uint8_t> frame = EncodeSetup(verifier);
    out.setup_bytes = frame.size();
    Check(link.left->Send(frame), "send setup");
  }

  // Prover thread: everything it learns arrives as frames on link.right.
  Clock::time_point t_ready;
  std::vector<uint8_t> first_proof;
  std::vector<bool> outputs_ok(beta, false);
  std::vector<std::string> verdicts(beta);  // empty for ACCEPT
  std::string prover_error;
  std::thread prover([&] {
    obs::ScopedThreadTracer stitch(tracer);
    try {
      protocol::ProverSession<F> session;
      IngestSetup(session, Unwrap(link.right->Receive(), "receive setup"));
      t_ready = Clock::now();
      for (size_t i = 0; i < beta; i++) {
        const Clock::time_point ts = Clock::now();
        std::vector<F> outputs;
        std::vector<uint8_t> proof;
        {
          obs::Span span("bench.prove");
          proof = ProveOne(program, qap, session, instances[i].inputs,
                           &outputs);
          Check(link.right->Send(proof), "send proof");
        }
        const Clock::time_point sent = Clock::now();
        Unwrap(session.ReceiveVerdict(*link.right), "receive verdict");
        out.prove_s.push_back(std::chrono::duration<double>(sent - ts).count());
        out.verified_s.push_back(SecondsSince(ts));
        out.rtt_s.push_back(SecondsSince(sent));
        out.proof_bytes.push_back(proof.size());
        outputs_ok[i] = outputs == instances[i].expected_outputs;
        if (i == 0) {
          first_proof = std::move(proof);
        }
      }
    } catch (const std::exception& e) {
      prover_error = e.what();
      link.right->Close();
    }
  });

  try {
    for (size_t i = 0; i < beta; i++) {
      const std::vector<uint8_t> proof =
          Unwrap(link.left->Receive(), "receive proof");
      const std::vector<F> bound = program.BoundValues(
          instances[i].inputs, instances[i].expected_outputs);
      const Clock::time_point tv = Clock::now();
      zaatar::VerifyInstanceResult result;
      {
        obs::Span span("bench.argument.verify");
        result = Unwrap(verifier.HandleProof(proof, bound), "HandleProof");
      }
      out.verifier_s += SecondsSince(tv);
      Check(verifier.SendVerdict(*link.left), "send verdict");
      if (!result.accepted()) {
        verdicts[i] = std::string(zaatar::VerifyVerdictName(result.verdict)) +
                      " " + result.detail;
      }
    }
  } catch (const std::exception& e) {
    link.left->Close();
    prover.join();
    throw std::runtime_error(prover_error.empty() ? e.what() : prover_error);
  }
  prover.join();
  if (!prover_error.empty()) {
    throw std::runtime_error(prover_error);
  }
  out.wall_s = SecondsSince(t0);
  out.setup_s = std::chrono::duration<double>(t_ready - t0).count();
  out.handoff_s = std::chrono::duration<double>(t_ready - t_handoff).count();
  report->attempted += beta;
  for (size_t i = 0; i < beta; i++) {
    const std::string what = app.name + " instance " + std::to_string(i);
    if (!outputs_ok[i]) {
      report->Fail(what + ": outputs differ from the native reference");
    } else if (!verdicts[i].empty()) {
      report->Fail(what + ": " + verdicts[i]);
    } else {
      out.accepted++;
    }
  }

  if (probe_reject) {
    // The soundness probe: a true proof bound to a false output.
    Verifier<F> probe(verifier.shared_setup());
    std::vector<F> wrong = instances[0].expected_outputs;
    wrong[0] = wrong[0] + F::One();
    const auto result = Unwrap(
        probe.HandleProof(first_proof,
                          program.BoundValues(instances[0].inputs, wrong)),
        "HandleProof (perturbed output)");
    report->attempted++;
    if (result.accepted()) {
      report->Fail(app.name + ": a perturbed output was ACCEPTED");
    }
  }
  if (tracer != nullptr) {
    DrawPrg<F>(SubSeed(seed, 3, index), out.query_elements);
  }
  return out;
}

template <typename T>
bool AllEqual(const std::vector<T>& v) {
  for (const T& x : v) {
    if (x != v.front()) {
      return false;
    }
  }
  return true;
}

// Runs whole batches for about `args.seconds` (never fewer than two) and
// reports the end-to-end metrics, or with args.trace the per-layer ones: odd
// batches are then traced and even ones not, which gives the tracing
// overhead from the same run.
template <typename F>
Report RunBatchWorkload(const zaatar::App<F>& app, const PcpParams& params,
                        size_t beta, const RunArgs& args) {
  Report report;
  obs::Tracer tracer;
  std::vector<BatchSample> plain;
  std::vector<BatchSample> traced;
  const Clock::time_point start = Clock::now();
  double last_wall = 0;
  // Later batches reuse a heap the earlier ones fragmented, so only the
  // first batch's high-water mark repeats from run to run.
  double first_batch_rss_mb = 0;
  for (uint64_t b = 0;
       b < 2 || SecondsSince(start) + last_wall <= args.seconds; b++) {
    const bool trace_this = args.trace && b % 2 == 1;
    BatchSample s = RunBatch(app, params, beta, args.seed, b,
                             trace_this ? &tracer : nullptr, b == 0, &report);
    if (b == 0) {
      first_batch_rss_mb = PeakRssMb(false);
    }
    last_wall = s.wall_s;
    std::fprintf(stderr,
                 "batch %llu%s: wall %.3f s, setup %.3f s, prove p50 %.3f s\n",
                 static_cast<unsigned long long>(b),
                 trace_this ? " traced" : "",
                 s.wall_s, s.setup_s, Median(s.prove_s));
    (trace_this ? traced : plain).push_back(std::move(s));
  }

  std::vector<size_t> setup_bytes, proof_bytes, queries, constraints;
  for (const std::vector<BatchSample>* group : {&plain, &traced}) {
    for (const BatchSample& s : *group) {
      setup_bytes.push_back(s.setup_bytes);
      proof_bytes.insert(proof_bytes.end(), s.proof_bytes.begin(),
                         s.proof_bytes.end());
      queries.push_back(s.queries);
      constraints.push_back(s.constraints);
    }
  }
  if (!AllEqual(setup_bytes) || !AllEqual(proof_bytes) || !AllEqual(queries) ||
      !AllEqual(constraints)) {
    report.Fail(app.name + ": byte or query counts differ between instances");
  }
  const double b = static_cast<double>(beta);

  if (!args.trace) {
    // Rates and per-instance shares are totals over the run, not medians of
    // per-batch figures: a run holds few batches, and on a shared host each
    // may run in a fast or a slow stretch, so the median of a handful jumps
    // between the two where the total moves with the mix.
    std::vector<double> setup, handoff, prove, verified;
    double accepted = 0, wall = 0, verifier = 0;
    for (const BatchSample& s : plain) {
      setup.push_back(s.setup_s);
      accepted += static_cast<double>(s.accepted);
      wall += s.wall_s;
      verifier += s.verifier_s;
      handoff.push_back(s.handoff_s);
      prove.insert(prove.end(), s.prove_s.begin(), s.prove_s.end());
      verified.insert(verified.end(), s.verified_s.begin(),
                      s.verified_s.end());
    }
    report.Put("setup_s", Median(setup), "s");
    report.Put("instances_per_s", accepted / wall, "1/s");
    report.Put("prove_s_p50", Median(prove), "s");
    report.Put("verifier_s_per_instance",
               verifier / (b * static_cast<double>(plain.size())), "s");
    report.Put("verified_s_p50", Median(verified), "s");
    report.Put("verified_s_p90", Quantile(verified, 0.9), "s");
    report.Put("hello_s_p50", Median(handoff), "s");
    report.Put("setup_bytes", static_cast<double>(setup_bytes.front()), "B");
    report.Put("proof_bytes_per_instance",
               static_cast<double>(proof_bytes.front()), "B");
    report.Put("peak_rss_mb", first_batch_rss_mb, "MB");
    report.samples = {{"batches", plain.size()}, {"instances", prove.size()}};
    return report;
  }

  const std::vector<obs::Tracer::Node> spans = tracer.Snapshot();
  const BatchSample& first = traced.front();
  report.samples = {{"traced_batches", traced.size()},
                    {"untraced_batches", plain.size()}};
  report.Put("compiler.compile_s", LayerSeconds(spans, "compiler.compile"),
             "s");
  report.Put("compiler.solve_s", LayerSeconds(spans, "compiler.solve"), "s");
  report.Put("compiler.constraints", static_cast<double>(first.constraints),
             "count");
  report.Put("qap.warm_s", LayerSeconds(spans, "qap.warm"), "s");
  report.Put("qap.compute_h_s", LayerSeconds(spans, "qap.compute_h"), "s");
  report.Put("pcp.query_gen_s", LayerSeconds(spans, "pcp.query_gen"), "s");
  report.Put("pcp.queries", static_cast<double>(first.queries), "count");
  report.Put("crypto.prg_s", LayerSeconds(spans, "crypto.prg"), "s");
  report.Put("commit.setup_s", LayerSeconds(spans, "commit.setup"), "s");
  report.Put("commit.commit_s", LayerSeconds(spans, "commit.commit"), "s");
  const double answer_s = LayerSeconds(spans, "commit.answer");
  report.Put("commit.answer_s", answer_s, "s");
  report.Put("commit.answer_ns_per_term",
             answer_s * 1e9 / static_cast<double>(first.answer_terms), "ns");
  report.Put("protocol.setup_encode_s",
             LayerSeconds(spans, "protocol.setup_encode"), "s");
  report.Put("protocol.setup_ingest_s",
             LayerSeconds(spans, "protocol.setup_ingest"), "s");
  report.Put("protocol.setup_bytes", static_cast<double>(first.setup_bytes),
             "B");
  report.Put("argument.verify_s", LayerSeconds(spans, "argument.verify"), "s");
  report.Put("prove.unaccounted_s",
             Median(UnaccountedSeconds(spans, "bench.prove", ProveLayers())),
             "s");

  // No daemon here: the serve.* layers read their two-party analogues (the
  // prove round trip is proof frame sent to verdict in, the cold hello is
  // the setup frame's hand-off, the client's preparation is compile plus
  // Qap::WarmProver); nothing is cached or shed.
  std::vector<double> rtt, handoff, prepare;
  for (const BatchSample& s : traced) {
    rtt.insert(rtt.end(), s.rtt_s.begin(), s.rtt_s.end());
    handoff.push_back(s.handoff_s);
  }
  const std::vector<double> compile =
      SpanSeconds(spans, "bench.compiler.compile");
  const std::vector<double> warm = SpanSeconds(spans, "bench.qap.warm");
  for (size_t i = 0; i < compile.size() && i < warm.size(); i++) {
    prepare.push_back(compile[i] + warm[i]);
  }
  report.Put("serve.prove_rtt_s_p50", Median(rtt), "s");
  report.Put("serve.hello_cold_s", Median(handoff), "s");
  report.Put("serve.client_prepare_s", Median(prepare), "s");
  report.Put("serve.cache_hits", 0, "count");
  report.Put("serve.cache_misses", 0, "count");
  report.Put("serve.shed", 0, "count");

  std::vector<double> plain_wall, traced_wall;
  for (const BatchSample& s : plain) {
    plain_wall.push_back(s.wall_s);
  }
  for (const BatchSample& s : traced) {
    traced_wall.push_back(s.wall_s);
  }
  report.Put("trace.overhead_s_per_instance",
             (Median(traced_wall) - Median(plain_wall)) / b, "s");
  return report;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BATCH_H_
