// Golden digests of compiled programs: pins the compiler's output bit for
// bit. Each digest is a 64-bit FNV-1a hash over everything CompileZlang
// produces — the Ginger constraints, the Zaatar R1CS (with its auxiliary
// product bookkeeping), the witness-solver ops, the IO slot specs, and the
// per-constraint source-line tags — so any change to variable numbering,
// gadget choice, constraint order or metadata shows up here.
//
// Covered: every suite app at the sizes `zaatar-lint --suite` uses (F128,
// root_finding over F220), the lcs sizes the benchmark workloads compile,
// and the example programs under examples/zlang. A refactor of the lowering
// must leave every value unchanged; a deliberate change to the compiled form
// regenerates them (the failure message prints the new digest).

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "src/apps/suite.h"
#include "src/compiler/compile.h"
#include "src/field/fields.h"
#include "src/testing/zlang_fuzz.h"

namespace zaatar {
namespace {

class Digest {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; i++) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void Str(const std::string& s) {
    U64(s.size());
    for (char c : s) {
      U64(static_cast<unsigned char>(c));
    }
  }
  template <typename F>
  void Field(const F& x) {
    for (uint64_t limb : x.ToCanonical().limbs) {
      U64(limb);
    }
  }
  template <typename F>
  void Lc(const LinearCombination<F>& lc) {
    Field(lc.constant());
    U64(lc.terms().size());
    for (const auto& [var, coeff] : lc.terms()) {
      U64(var);
      Field(coeff);
    }
  }
  void Layout(const VariableLayout& l) {
    U64(l.num_unbound);
    U64(l.num_inputs);
    U64(l.num_outputs);
  }
  void Lines(const std::vector<uint32_t>& lines) {
    U64(lines.size());
    for (uint32_t line : lines) {
      U64(line);
    }
  }
  void Slots(const std::vector<IoSlotSpec>& slots) {
    U64(slots.size());
    for (const auto& s : slots) {
      Str(s.name);
      U64(static_cast<uint64_t>(s.kind));
      U64(s.width);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

template <typename F>
uint64_t DigestOf(const CompiledProgram<F>& p) {
  Digest d;
  d.Str(p.name);
  d.Layout(p.ginger.layout);
  d.U64(p.ginger.constraints.size());
  for (const auto& c : p.ginger.constraints) {
    d.Lc(c.linear);
    d.U64(c.quad.size());
    for (const auto& q : c.quad) {
      d.U64(q.a);
      d.U64(q.b);
      d.Field(q.coeff);
    }
  }
  d.Lines(p.ginger.source_lines);
  const R1cs<F>& r = p.zaatar.r1cs;
  d.Layout(r.layout);
  d.U64(r.constraints.size());
  for (const auto& c : r.constraints) {
    d.Lc(c.a);
    d.Lc(c.b);
    d.Lc(c.c);
  }
  d.Lines(r.source_lines);
  d.U64(p.zaatar.ginger_num_unbound);
  d.U64(p.zaatar.products.size());
  for (const auto& [a, b] : p.zaatar.products) {
    d.U64(a);
    d.U64(b);
  }
  d.U64(p.solver.size());
  for (const auto& op : p.solver) {
    d.U64(static_cast<uint64_t>(op.kind));
    d.U64(op.dst);
    d.U64(op.dst2);
    d.Lc(op.a);
    d.Lc(op.b);
    d.Field(op.c0);
    d.Field(op.c1);
    d.U64(op.bit_dsts.size());
    for (uint32_t v : op.bit_dsts) {
      d.U64(v);
    }
  }
  d.Slots(p.inputs);
  d.Slots(p.outputs);
  return d.value();
}

template <typename F>
void ExpectDigest(const std::string& name, const std::string& source,
                  uint64_t expected) {
  SCOPED_TRACE(name);
  CompiledProgram<F> p = CompileZlang<F>(source);
  uint64_t got = DigestOf(p);
  EXPECT_EQ(got, expected) << name << ": digest 0x" << std::hex << got
                           << " (" << std::dec << p.CZaatar()
                           << " Zaatar constraints)";
}

std::string ReadExample(const std::string& file) {
  std::ifstream in(std::string(ZAATAR_SOURCE_DIR) + "/examples/zlang/" +
                   file);
  EXPECT_TRUE(in.good()) << "cannot read examples/zlang/" << file;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(CompilerGoldenTest, SuiteAppsAtLintSizes) {
  auto pam = MakePamApp(4, 3);
  auto apsp = MakeApspApp(3);
  auto fannkuch = MakeFannkuchApp(3, 4, 8);
  auto lcs = MakeLcsApp(6);
  auto matmul = MakeMatMulApp(3);
  auto rootfind = MakeRootFindApp(2, 4);
  ExpectDigest<F128>(pam.name, pam.source, 0x3310ca067389a0e2ULL);
  ExpectDigest<F128>(apsp.name, apsp.source, 0x4e2f1a440d9117eULL);
  ExpectDigest<F128>(fannkuch.name, fannkuch.source,
                     0xa3291a048cf91043ULL);
  ExpectDigest<F128>(lcs.name, lcs.source, 0x570bd61c42c8d3c1ULL);
  ExpectDigest<F128>(matmul.name, matmul.source, 0xf83e008ad8d33eaeULL);
  ExpectDigest<F220>(rootfind.name, rootfind.source,
                     0x24e76d090a5987ffULL);
}

// The sizes the benchmark workloads compile (batch at m=16, the serve
// daemon's lcs/8 on a cold hello).
TEST(CompilerGoldenTest, LcsAtBenchmarkSizes) {
  auto lcs8 = MakeLcsApp(8);
  auto lcs16 = MakeLcsApp(16);
  ExpectDigest<F128>(lcs8.name, lcs8.source, 0x3a7b69661d21a92bULL);
  ExpectDigest<F128>(lcs16.name, lcs16.source, 0x3aa5377001e6ea30ULL);
}

TEST(CompilerGoldenTest, ExamplePrograms) {
  const std::pair<const char*, uint64_t> examples[] = {
      {"bitops.zl", 0xe52e68953daaf9f8ULL},
      {"division.zl", 0x5788eff5f51bcd8eULL},
      {"matmul.zl", 0xa31c24fbc6213491ULL},
      {"polyeval.zl", 0x41b226a3868354b3ULL},
      {"quickstart.zl", 0x5e1f535dd1a34972ULL},
  };
  for (const auto& [file, digest] : examples) {
    ExpectDigest<F128>(file, ReadExample(file), digest);
  }
}

// One program touching every lowering path the suite apps leave out:
// function inlining with rational parameters, `var` re-initialisation in a
// loop, runtime-indexed reads of int/bool/rational arrays and a runtime-
// indexed write, array merges after a runtime `if`, all three fixed-point
// rounding paths, static and dynamic shifts, isqrt, bitwise ops, asserts.
TEST(CompilerGoldenTest, KitchenSinkProgram) {
  ExpectDigest<F128>("kitchen_sink", R"(
program kitchen_sink;
const N = 3;
const W = 2 * 8;
input int<W> a[N];
input int16 i;
input bool flag[2];
input rational<16,4> p;
input rational<16,4> r[N];
output int<80> y[2][2];
output rational<48,8> z;
output bool b;
output rational<48,8> pick;
var int<80> m[2][2];
var rational<48,8> acc;
var bool seen;
var rational<48,8> q4;
func int32 sq(int32 x) { var int32 t; t = x * x; return t; }
func rational<40,8> mid(rational<16,4> u, rational<16,4> v) {
  return (u + v) / 2;
}
acc = p;
for k in 0..N-1 {
  var int32 s;
  s = sq(a[k]) + (a[k] >> 1) + (a[k] << 2);
  m[k % 2][1] = m[k % 2][1] + s;
  if (a[k] < a[i]) {
    m[0][0] = m[0][0] + idiv(s, 1 + abs(a[k]));
    acc = acc + r[k];
  } else {
    m[1][0] = max(m[1][0], isqrt(abs(s)));
    acc = acc / 2;
  }
  m[1][1] = (abs(a[k]) & 255) ^ (abs(a[k]) | 3);
}
q4 = a[0] / 4;
m[1][i] = m[1][i] + 1;
seen = flag[i] == flag[0] && !(a[0] == a[1]) || a[2] != 7;
assert a[0] < 40000;
y = m;
z = acc / 3 + mid(p, r[0]) + q4;
pick = r[i] + p * p;
b = seen ? z < pick : p == r[1];
)", 0x8dbae50d327015d0ULL);
}

// The differential fuzzer's generator, at a fixed seed: random mixes of
// comparisons, muxes, gadgets and loops, digested as one corpus. Every case
// must compile; one that did not would contribute its error message.
TEST(CompilerGoldenTest, FuzzCorpus) {
  Prg prg(0x601D);
  Digest corpus;
  size_t compiled = 0;
  for (size_t i = 0; i < 32; i++) {
    std::string source = GenerateZlangCase(prg, i).Source();
    try {
      corpus.U64(DigestOf(CompileZlang<F128>(source)));
      compiled++;
    } catch (const CompileError& e) {
      corpus.Str(e.what());  // the rejection is pinned too
    }
  }
  EXPECT_GE(compiled, 32u);
  EXPECT_EQ(corpus.value(), 0x9aca1b4b732ce818ULL)
      << "corpus digest 0x" << std::hex << corpus.value();
}

}  // namespace
}  // namespace zaatar
