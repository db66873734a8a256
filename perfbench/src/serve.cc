// serve-lcs8: a zaatar-serve daemon, launched as its own process with its
// default light parameters, proving Ψ = lcs/8 for two tenants. Each tenant
// is a closed loop: it sends its next instance only after the verdict for
// the previous one, and reconnects (a warm hello) every kReconnectEvery
// instances. The per-Ψ setup is built once, on the first (cold) hello, and
// then served from the daemon's amortization cache.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "src/serve/app_registry.h"
#include "src/serve/client.h"
#include "src/util/serialize.h"
#include "workloads.h"

namespace perfbench {
namespace {

using zaatar::serve::ServeClient;

constexpr char kPsi[] = "lcs/8";
constexpr size_t kTenants = kServeTenants;
constexpr size_t kReconnectEvery = 16;
constexpr size_t kSetupReps = 15;  // daemon starts + cold hellos per run

// The daemon under test as a child process. It dies with this process
// (PR_SET_PDEATHSIG) and is always reaped: by Shutdown(), or by the
// destructor's SIGTERM on an error path.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket, uint64_t seed)
      : socket_(socket) {
    ::unlink(socket.c_str());
    const std::string seed_arg = std::to_string(seed);
    pid_ = ::fork();
    if (pid_ < 0) {
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(STDERR_FILENO, STDOUT_FILENO);  // keep the result stream clean
      ::execl(binary.c_str(), binary.c_str(), "--mode", "serve", "--socket",
              socket.c_str(), "--seed", seed_arg.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Connects, retrying until the daemon listens (10 s at most).
  ServeClient Connect() const {
    ServeClient::Options opt;
    opt.backoff.max_retries = 8;
    const Clock::time_point t0 = Clock::now();
    for (;;) {
      auto client = ServeClient::Connect(socket_, opt);
      if (client.ok()) {
        return std::move(*client);
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("zaatar-serve exited before listening");
      }
      if (SecondsSince(t0) > 10) {
        throw std::runtime_error("zaatar-serve did not listen: " +
                                 client.status().ToString());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  void Shutdown() {
    ServeClient client = Connect();
    Check(client.Shutdown(), "daemon shutdown");
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("zaatar-serve did not exit cleanly");
    }
  }

 private:
  std::string socket_;
  mutable pid_t pid_ = -1;
};

// One tenant's prover: its own compiled Ψ and warmed Qap, as a separate
// client machine would have.
struct Tenant {
  std::string name;
  std::unique_ptr<const CompiledProgram<F128>> program;
  std::unique_ptr<const Qap<F128>> qap;

  size_t attempted = 0;
  size_t accepted = 0;
  std::vector<std::string> failures;
  std::string error;
  std::vector<double> prove_s, verified_s, hello_s;
  std::vector<double> verified_traced_s;
  std::vector<size_t> proof_bytes;
};

// Encodes one kProve payload: [inputs][claimed outputs][ProofMessage].
std::vector<uint8_t> ProvePayload(const std::vector<F128>& inputs,
                                  const std::vector<F128>& outputs,
                                  const std::vector<uint8_t>& proof) {
  zaatar::ByteWriter w;
  zaatar::PutFieldVector(&w, inputs);
  zaatar::PutFieldVector(&w, outputs);
  w.PutBytes(proof.data(), proof.size());
  return w.bytes();
}

// The closed loop of one tenant until `deadline`. Tenant 0 first sends the
// soundness probe: a true proof claiming a perturbed output, which the
// daemon must reject.
void TenantLoop(const zaatar::App<F128>& app, const Daemon& daemon,
                Clock::time_point deadline, uint64_t seed, size_t index,
                bool trace, obs::Tracer* tracer, Tenant* t) {
  namespace protocol = zaatar::protocol;
  Prg prg(SubSeed(seed, 10, index));
  bool probe = index == 0;
  for (size_t conn = 0; Clock::now() < deadline; conn++) {
    const bool traced = trace && conn % 2 == 1;
    obs::ScopedThreadTracer install(traced ? tracer : nullptr);
    const Clock::time_point th = Clock::now();
    std::optional<ServeClient> client;
    protocol::ProverSession<F128> session;
    client.emplace(daemon.Connect());
    IngestSetup(session,
                Unwrap(client->Hello(zaatar::serve::kFieldTagF128, kPsi,
                                     t->name),
                       "hello"));
    t->hello_s.push_back(SecondsSince(th));
    for (size_t k = 0; k < kReconnectEvery && Clock::now() < deadline; k++) {
      const zaatar::AppInstance<F128> inst = app.make_instance(prg);
      const Clock::time_point ts = Clock::now();
      std::vector<F128> outputs;
      std::vector<uint8_t> proof;
      std::vector<uint8_t> payload;
      {
        obs::Span span("bench.prove");
        proof = ProveOne(*t->program, *t->qap, session, inst.inputs, &outputs);
        std::vector<F128> claimed = outputs;
        if (probe) {
          claimed[0] = claimed[0] + F128::One();
        }
        payload = ProvePayload(inst.inputs, claimed, proof);
      }
      const double prove_s = SecondsSince(ts);
      std::vector<uint8_t> verdict_bytes;
      {
        obs::Span span("bench.serve.prove_rtt");
        verdict_bytes = Unwrap(client->Prove(payload), "prove");
      }
      const auto verdict =
          Unwrap(session.IngestVerdict(verdict_bytes), "verdict");
      t->attempted++;
      if (probe) {
        probe = false;
        if (verdict.accepted()) {
          t->failures.push_back("serve: a perturbed output was ACCEPTED");
        }
        continue;
      }
      (traced ? t->verified_traced_s : t->verified_s)
          .push_back(SecondsSince(ts));
      t->prove_s.push_back(prove_s);
      t->proof_bytes.push_back(proof.size());
      if (outputs != inst.expected_outputs) {
        t->failures.push_back(t->name +
                              ": outputs differ from the native reference");
      } else if (!verdict.accepted()) {
        t->failures.push_back(t->name + ": " +
                              zaatar::VerifyVerdictName(verdict.verdict) +
                              " " + verdict.detail);
      } else {
        t->accepted++;
      }
    }
  }
}

// The first number after `"key": ` at or after `from`, and its end offset.
std::pair<double, size_t> JsonNumber(const std::string& doc,
                                     const std::string& key, size_t from) {
  const size_t at = doc.find("\"" + key + "\": ", from);
  if (at == std::string::npos) {
    return {0, std::string::npos};
  }
  const size_t begin = at + key.size() + 4;
  char* end = nullptr;
  const double v = std::strtod(doc.c_str() + begin, &end);
  return {v, static_cast<size_t>(end - doc.c_str())};
}

double JsonSum(const std::string& doc, const std::string& key) {
  double sum = 0;
  for (size_t pos = 0;;) {
    auto [v, end] = JsonNumber(doc, key, pos);
    if (end == std::string::npos) {
      return sum;
    }
    sum += v;
    pos = end;
  }
}

}  // namespace

Report RunServeLcs8(const RunArgs& args, const std::string& binary,
                    const std::string& socket) {
  const Clock::time_point start = Clock::now();
  Report report;
  obs::Tracer tracer;
  const zaatar::App<F128> app =
      Unwrap(zaatar::serve::MakeRegisteredAppF128(kPsi), "psi");

  // Client preparation, once per tenant, before any daemon exists.
  std::vector<Tenant> tenants(kTenants);
  {
    obs::ScopedThreadTracer install(args.trace ? &tracer : nullptr);
    for (size_t i = 0; i < kTenants; i++) {
      Tenant& t = tenants[i];
      t.name = "tenant" + std::to_string(i);
      obs::Span span("bench.serve.client_prepare");
      t.program = std::make_unique<const CompiledProgram<F128>>(
          Compile<F128>(app.source));
      t.qap = std::make_unique<const Qap<F128>>(t.program->zaatar.r1cs);
      Warm(*t.qap);
    }
  }

  // Set-up, several times: daemon start until the first cold hello's setup
  // frame is ingested. The last daemon stays up for the measured window.
  std::vector<double> setup_s;
  size_t setup_bytes = 0;
  std::unique_ptr<Daemon> daemon;
  for (size_t rep = 0; rep < kSetupReps; rep++) {
    obs::ScopedThreadTracer install(args.trace ? &tracer : nullptr);
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>(binary, socket, args.seed);
    ServeClient client = daemon->Connect();
    std::vector<uint8_t> frame;
    {
      obs::Span span("bench.serve.hello_cold");
      frame = Unwrap(client.Hello(zaatar::serve::kFieldTagF128, kPsi, "cold"),
                     "cold hello");
    }
    zaatar::protocol::ProverSession<F128> session;
    IngestSetup(session, frame);
    setup_s.push_back(SecondsSince(t0));
    if (setup_bytes != 0 && frame.size() != setup_bytes) {
      report.Fail("serve: setup frame size differs between daemon starts");
    }
    setup_bytes = frame.size();
    if (rep + 1 < kSetupReps) {
      daemon->Shutdown();
    }
  }

  // The measured window: the rest of the run, and at least half of it.
  const double window =
      std::max(args.seconds - SecondsSince(start), args.seconds / 2);
  const Clock::time_point w0 = Clock::now();
  const Clock::time_point deadline =
      w0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(window));
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kTenants; i++) {
      threads.emplace_back([&, i] {
        try {
          TenantLoop(app, *daemon, deadline, args.seed, i, args.trace,
                     &tracer, &tenants[i]);
        } catch (const std::exception& e) {
          tenants[i].error = e.what();
        }
      });
    }
    for (std::thread& th : threads) {
      th.join();
    }
  }
  const double wall = SecondsSince(w0);

  std::vector<double> prove, verified, verified_traced, hello;
  std::vector<size_t> proof_bytes;
  size_t accepted = 0;
  for (Tenant& t : tenants) {
    if (!t.error.empty()) {
      throw std::runtime_error(t.name + ": " + t.error);
    }
    report.attempted += t.attempted;
    for (std::string& f : t.failures) {
      report.Fail(std::move(f));
    }
    accepted += t.accepted;
    prove.insert(prove.end(), t.prove_s.begin(), t.prove_s.end());
    verified.insert(verified.end(), t.verified_s.begin(), t.verified_s.end());
    verified_traced.insert(verified_traced.end(), t.verified_traced_s.begin(),
                           t.verified_traced_s.end());
    hello.insert(hello.end(), t.hello_s.begin(), t.hello_s.end());
    proof_bytes.insert(proof_bytes.end(), t.proof_bytes.begin(),
                       t.proof_bytes.end());
  }
  if (proof_bytes.empty()) {
    throw std::runtime_error("serve: no instance completed in the window");
  }
  for (size_t b : proof_bytes) {
    if (b != proof_bytes.front()) {
      report.Fail("serve: proof frame size differs between instances");
      break;
    }
  }

  const std::string stats =
      Unwrap(daemon->Connect().Stats(), "daemon stats");
  daemon->Shutdown();
  daemon.reset();
  const double verify_s =
      JsonSum(stats, "verify_us_sum") * 1e-6 / JsonSum(stats, "proofs");

  if (!args.trace) {
    report.Put("setup_s", Median(setup_s), "s");
    report.Put("instances_per_s", static_cast<double>(accepted) / wall, "1/s");
    report.Put("prove_s_p50", Median(prove), "s");
    // The daemon's setup is built once and amortized over every instance it
    // ever serves, so its per-instance share is its verify time.
    report.Put("verifier_s_per_instance", verify_s, "s");
    report.Put("verified_s_p50", Median(verified), "s");
    report.Put("verified_s_p90", Quantile(verified, 0.9), "s");
    report.Put("hello_s_p50", Median(hello), "s");
    report.Put("setup_bytes", static_cast<double>(setup_bytes), "B");
    report.Put("proof_bytes_per_instance",
               static_cast<double>(proof_bytes.front()), "B");
    report.Put("peak_rss_mb", PeakRssMb(true), "MB");
    report.samples = {{"setups", setup_s.size()},
                      {"instances", verified.size()},
                      {"hellos", hello.size()}};
    return report;
  }

  // The daemon's per-Ψ build runs in another process; replay its public
  // calls here, with the daemon's parameters, to time those layers.
  size_t queries = 0;
  size_t answer_terms = 0;
  {
    obs::ScopedThreadTracer install(&tracer);
    Prg prg(args.seed);
    VerifierSetup<F128> vs =
        SetUpVerifier(*tenants[0].qap, PcpParams::Light(), prg);
    queries = vs.queries;
    answer_terms = AnswerTerms(vs.session);
    EncodeSetup(vs.session);
    DrawPrg<F128>(SubSeed(args.seed, 3, 0),
                  vs.session.setup().TotalQueryElements());
  }

  const std::vector<obs::Tracer::Node> spans = tracer.Snapshot();
  report.samples = {{"traced_instances", verified_traced.size()},
                    {"untraced_instances", verified.size()}};
  report.Put("compiler.compile_s", LayerSeconds(spans, "compiler.compile"),
             "s");
  report.Put("compiler.solve_s", LayerSeconds(spans, "compiler.solve"), "s");
  report.Put("compiler.constraints",
             static_cast<double>(tenants[0].program->CZaatar()), "count");
  report.Put("qap.warm_s", LayerSeconds(spans, "qap.warm"), "s");
  report.Put("qap.compute_h_s", LayerSeconds(spans, "qap.compute_h"), "s");
  report.Put("pcp.query_gen_s", LayerSeconds(spans, "pcp.query_gen"), "s");
  report.Put("pcp.queries", static_cast<double>(queries), "count");
  report.Put("crypto.prg_s", LayerSeconds(spans, "crypto.prg"), "s");
  report.Put("commit.setup_s", LayerSeconds(spans, "commit.setup"), "s");
  report.Put("commit.commit_s", LayerSeconds(spans, "commit.commit"), "s");
  const double answer_s = LayerSeconds(spans, "commit.answer");
  report.Put("commit.answer_s", answer_s, "s");
  report.Put("commit.answer_ns_per_term",
             answer_s * 1e9 / static_cast<double>(answer_terms), "ns");
  report.Put("protocol.setup_encode_s",
             LayerSeconds(spans, "protocol.setup_encode"), "s");
  report.Put("protocol.setup_ingest_s",
             LayerSeconds(spans, "protocol.setup_ingest"), "s");
  report.Put("protocol.setup_bytes", static_cast<double>(setup_bytes), "B");
  report.Put("argument.verify_s", verify_s, "s");
  report.Put("prove.unaccounted_s",
             Median(UnaccountedSeconds(spans, "bench.prove", ProveLayers())),
             "s");
  report.Put("serve.prove_rtt_s_p50", LayerSeconds(spans, "serve.prove_rtt"),
             "s");
  report.Put("serve.hello_cold_s", LayerSeconds(spans, "serve.hello_cold"),
             "s");
  report.Put("serve.client_prepare_s",
             LayerSeconds(spans, "serve.client_prepare"), "s");
  report.Put("serve.cache_hits", JsonNumber(stats, "hits", 0).first, "count");
  report.Put("serve.cache_misses", JsonNumber(stats, "misses", 0).first,
             "count");
  report.Put("serve.shed", JsonNumber(stats, "shed", 0).first, "count");
  report.Put("trace.overhead_s_per_instance",
             Median(verified_traced) - Median(verified), "s");
  return report;
}

}  // namespace perfbench
