// Frozen reference implementations that the tuned kernels are tested
// against. They stay as plain as the day they were replaced; do not optimize
// them.

#ifndef TESTS_REFERENCE_KERNELS_H_
#define TESTS_REFERENCE_KERNELS_H_

#include <cstddef>

namespace zaatar {

// Σ a[i]·b[i] with a full Montgomery multiply and a modular add per term:
// the oracle for F::DotProduct.
template <typename F>
F InnerProductPerTerm(const F* a, const F* b, size_t n) {
  F acc = F::Zero();
  for (size_t i = 0; i < n; i++) {
    acc += a[i] * b[i];
  }
  return acc;
}

}  // namespace zaatar

#endif  // TESTS_REFERENCE_KERNELS_H_
