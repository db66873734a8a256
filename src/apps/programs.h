// zlang sources for the paper's five benchmark computations (§5.1):
//   (a) PAM clustering          (b) root finding by bisection
//   (c) Floyd-Warshall APSP     (d) Fannkuch                (e) LCS
//
// Each generator is parameterized by the input-size knobs the paper sweeps
// (m, d, L, ...). Width choices mirror §5.1: integer benchmarks use 32-bit
// inputs over the 128-bit field; root finding's interval arithmetic grows
// ~2 bits per iteration and needs the 220-bit field (exactly the paper's
// field-size split). Floyd-Warshall uses rational weights with fixed-point
// (2^-16) rounding on assignment — zlang's realization of Ginger's primitive
// floating-point (see FixRational in src/compiler/walker.h).

#ifndef SRC_APPS_PROGRAMS_H_
#define SRC_APPS_PROGRAMS_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace zaatar {

namespace apps_internal {

// Replaces each "$KEY" in tmpl using the (key, value) list.
std::string Subst(
    const char* tmpl,
    const std::vector<std::pair<std::string, size_t>>& subs);

}  // namespace apps_internal

// (a) Partitioning Around Medoids, k = 2 clusters, `iters` swap iterations.
// O(m^2 d) work dominated by the pairwise distance matrix.
std::string PamSource(size_t m, size_t d, size_t iters = 2);

// (b) Root finding by bisection over a dense m-variable quadratic form
// f(t) = sum_ij a_ij u_i(t) u_j(t), u_i(t) = b_i + t c_i, L iterations.
// Interval state is kept as exact dyadic rationals (n_lo/den, n_hi/den), so
// widths grow ~2 bits per iteration: the O(m^2 L) benchmark that needs the
// 220-bit field.
std::string RootFindSource(size_t m, size_t l);

// (c) Floyd-Warshall all-pairs shortest paths on a complete graph with
// rational edge weights; distances are fixed-point rational<48,16>. O(m^3).
std::string ApspSource(size_t m);

// (d) Fannkuch: for each of m permutations of {1..n}, count prefix
// reversals until a 1 leads, bounded by max_steps. Exercises data-dependent
// array reads and writes (mux chains).
std::string FannkuchSource(size_t m, size_t n, size_t max_steps);

// (e) Longest common subsequence length between two strings of length m,
// classic O(m^2) DP with per-cell equality + max gadgets.
std::string LcsSource(size_t m);

// (f, extension) m x m integer matrix multiplication — the computation
// Ginger hand-tailored a protocol for; here it goes through the general
// compiler like everything else. O(m^3) multiplications, m^2 outputs.
std::string MatMulSource(size_t m);

}  // namespace zaatar

#endif  // SRC_APPS_PROGRAMS_H_
