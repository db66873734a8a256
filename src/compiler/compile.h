// Public compiler API: zlang source -> constraints + witness solver + IO
// metadata, in both encodings (Ginger degree-2 and Zaatar quadratic form).

#ifndef SRC_COMPILER_COMPILE_H_
#define SRC_COMPILER_COMPILE_H_

#include <string>
#include <utility>
#include <vector>

#include "src/compiler/evaluator.h"
#include "src/compiler/parser.h"
#include "src/constraints/transform.h"
#include "src/obs/trace.h"

namespace zaatar {

template <typename F>
struct CompiledProgram {
  std::string name;
  GingerSystem<F> ginger;
  ZaatarTransform<F> zaatar;  // r1cs + auxiliary-product bookkeeping
  std::vector<SolverOp<F>> solver;
  std::vector<IoSlotSpec> inputs;
  std::vector<IoSlotSpec> outputs;

  // ----- encoding statistics (Figure 9 columns) -----
  size_t ZGinger() const { return ginger.layout.num_unbound; }
  size_t CGinger() const { return ginger.NumConstraints(); }
  size_t ZZaatar() const { return zaatar.r1cs.layout.num_unbound; }
  size_t CZaatar() const { return zaatar.r1cs.NumConstraints(); }
  size_t UGinger() const { return ZGinger() + ZGinger() * ZGinger(); }
  size_t UZaatar() const { return ZZaatar() + CZaatar() + 1; }

  // ----- witness generation (the prover's "solve constraints" phase) -----

  // Given the input field elements (one per input slot, see `inputs`),
  // produces the full Ginger assignment: unbound variables, then inputs,
  // then the computed outputs.
  std::vector<F> SolveGinger(const std::vector<F>& input_values) const {
    if (input_values.size() != ginger.layout.num_inputs) {
      throw std::runtime_error("wrong number of input values");
    }
    std::vector<F> w(ginger.layout.Total(), F::Zero());
    for (size_t i = 0; i < input_values.size(); i++) {
      w[ginger.layout.FirstInput() + i] = input_values[i];
    }
    RunSolver(solver, &w);
    return w;
  }

  // The corresponding Zaatar (quadratic-form) assignment.
  std::vector<F> SolveZaatar(const std::vector<F>& ginger_assignment) const {
    return zaatar.ExtendAssignment(ginger_assignment);
  }

  std::vector<F> ExtractOutputs(const std::vector<F>& ginger_assignment)
      const {
    return std::vector<F>(
        ginger_assignment.begin() + ginger.layout.FirstOutput(),
        ginger_assignment.end());
  }

  // Bound values (inputs then outputs) as the verifier consumes them.
  std::vector<F> BoundValues(const std::vector<F>& input_values,
                             const std::vector<F>& output_values) const {
    std::vector<F> b = input_values;
    b.insert(b.end(), output_values.begin(), output_values.end());
    return b;
  }
};

// Field-element encoding of typed runtime values.
template <typename F>
F EncodeSignedInt(int64_t v) {
  return F::FromInt(v);
}

// Decodes assuming |value| < 2^62 (true for all benchmark outputs).
template <typename F>
int64_t DecodeSignedInt(const F& v) {
  typename F::Repr c = v.ToCanonical();
  typename F::Repr half = F::kModulus;
  half.Shr1InPlace();
  if (c > half) {  // negative: value - p
    typename F::Repr neg = F::kModulus;
    neg.SubInPlace(c);
    return -static_cast<int64_t>(neg.limbs[0]);
  }
  return static_cast<int64_t>(c.limbs[0]);
}

// Compiles zlang source. Throws CompileError with position info on invalid
// programs.
template <typename F>
CompiledProgram<F> CompileZlang(const std::string& source,
                                const TransformOptions& options = {}) {
  obs::Span span("compiler.compile");
  ProgramAst ast = [&] {
    obs::Span parse("compiler.parse");
    return Parse(source);
  }();
  CompiledProgram<F> p;
  {
    obs::Span lower("compiler.lower");
    EvaluationResult<F> result = LowerToConstraints<F>(ast);
    p.name = ast.name;
    p.ginger = std::move(result.system);
    p.solver = std::move(result.solver);
    p.inputs = std::move(result.inputs);
    p.outputs = std::move(result.outputs);
  }
  {
    obs::Span transform("compiler.to_zaatar");
    p.zaatar = GingerToZaatar(p.ginger, options);
  }
  return p;
}

}  // namespace zaatar

#endif  // SRC_COMPILER_COMPILE_H_
