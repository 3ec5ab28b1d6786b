#include "rl/lstm_kernels.h"

#include <cmath>
#include <cstddef>
#include <cstring>

// One kernel body, two engines.  Each body below is an always-inline
// template over a GCC vector type V: the generic wrappers instantiate it
// with v2d (two doubles, one xmm register of the baseline ISA) and the
// AVX2 wrappers with v4d (four doubles, one ymm register) under
// __attribute__((target("avx2"))).  Never add "fma" there: GCC fuses
// a * b + c into one rounding whenever FMA is enabled, even under
// -std=c++20, and that moves every bit.  yoso_rl also builds with
// -ffp-contract=off, so -march=native cannot fuse them either.
//
// No function passes or returns a vector by value: v4d's ABI differs
// between the two ISAs and GCC's -Wpsabi rejects it, so the helpers take
// references and the bodies are inlined into their wrappers.
//
// Every wrapper starts on a 64-byte boundary: the controller's speed
// swings by ~25% with where its inner loops fall, and an edit elsewhere in
// this file must not move them.

#if defined(__x86_64__)
#define YOSO_LSTM_X86 1
#endif

// The register-block loops must unroll completely, or the accumulator
// arrays stay on the stack instead of in registers.
#if defined(__clang__)
#define YOSO_LSTM_UNROLL _Pragma("unroll")
#else
#define YOSO_LSTM_UNROLL _Pragma("GCC unroll 8")
#endif

namespace yoso::lstm {
namespace {

typedef double v2d __attribute__((vector_size(16)));
typedef double v4d __attribute__((vector_size(32)));

/// Doubles per register of vector type V.
template <class V>
constexpr std::size_t kWidth = sizeof(V) / sizeof(double);

template <class V>
[[gnu::always_inline]] inline void load(V& v, const double* p) {
  std::memcpy(&v, p, sizeof v);
}
template <class V>
[[gnu::always_inline]] inline void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

// --- forward: y[r] += (sum over c of m[r][c] * x[c]) -----------------------

/// R rows of the lockstep product; a row's kLanes lanes fill L registers.
template <class V, std::size_t R>
[[gnu::always_inline]] inline void lanes_rows(const double* m,
                                              const double* x, double* y,
                                              std::size_t cols) {
  constexpr std::size_t N = kWidth<V>;
  constexpr std::size_t L = kLanes / N;
  V acc[R][L];
  YOSO_LSTM_UNROLL
  for (std::size_t j = 0; j < R; ++j)
    YOSO_LSTM_UNROLL
    for (std::size_t l = 0; l < L; ++l) acc[j][l] = V{};
  for (std::size_t c = 0; c < cols; ++c) {
    V xc[L];
    YOSO_LSTM_UNROLL
    for (std::size_t l = 0; l < L; ++l) load(xc[l], x + c * kLanes + l * N);
    YOSO_LSTM_UNROLL
    for (std::size_t j = 0; j < R; ++j) {
      const double w = m[j * cols + c];
      YOSO_LSTM_UNROLL
      for (std::size_t l = 0; l < L; ++l) acc[j][l] += xc[l] * w;
    }
  }
  YOSO_LSTM_UNROLL
  for (std::size_t j = 0; j < R; ++j)
    YOSO_LSTM_UNROLL
    for (std::size_t l = 0; l < L; ++l) {
      V out;
      load(out, y + j * kLanes + l * N);
      out += acc[j][l];
      store(y + j * kLanes + l * N, out);
    }
}

template <class V, std::size_t R>
[[gnu::always_inline]] inline void matvec_lanes_body(const double* m,
                                                     const double* x,
                                                     double* y,
                                                     std::size_t rows,
                                                     std::size_t cols) {
  std::size_t r = 0;
  for (; r + R <= rows; r += R)
    lanes_rows<V, R>(m + r * cols, x, y + r * kLanes, cols);
  for (; r < rows; ++r)
    lanes_rows<V, 1>(m + r * cols, x, y + r * kLanes, cols);
}

/// The one-lane form: 4 rows per pass, so 4 add chains are in flight.
template <std::size_t R>
[[gnu::always_inline]] inline void scalar_rows(const double* m,
                                               const double* x, double* y,
                                               std::size_t cols) {
  double acc[R] = {};
  for (std::size_t c = 0; c < cols; ++c) {
    const double xc = x[c];
    YOSO_LSTM_UNROLL
    for (std::size_t j = 0; j < R; ++j) acc[j] += m[j * cols + c] * xc;
  }
  YOSO_LSTM_UNROLL
  for (std::size_t j = 0; j < R; ++j) y[j] += acc[j];
}

[[gnu::always_inline]] inline void matvec_body(const double* m,
                                               const double* x, double* y,
                                               std::size_t rows,
                                               std::size_t cols) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) scalar_rows<4>(m + r * cols, x, y + r, cols);
  for (; r < rows; ++r) scalar_rows<1>(m + r * cols, x, y + r, cols);
}

// --- column sums: y[c] += m_i[c] * x_i over i in order, x_i != 0 ------------
// Row i of m starts at m + i * ms and x_i = x[i * xs]; negative strides walk
// backwards.  A pass holds W registers of y across all of i.

template <class V, std::size_t W>
[[gnu::always_inline]] inline void column_block(double* y, const double* m,
                                                std::ptrdiff_t ms,
                                                const double* x,
                                                std::ptrdiff_t xs,
                                                std::size_t n) {
  constexpr std::size_t N = kWidth<V>;
  V acc[W];
  YOSO_LSTM_UNROLL
  for (std::size_t j = 0; j < W; ++j) load(acc[j], y + j * N);
  for (std::size_t i = 0; i < n; ++i) {
    const auto si = static_cast<std::ptrdiff_t>(i);
    const double xi = x[si * xs];
    if (xi == 0.0) continue;
    const double* row = m + si * ms;
    YOSO_LSTM_UNROLL
    for (std::size_t j = 0; j < W; ++j) {
      V w;
      load(w, row + j * N);
      acc[j] += w * xi;
    }
  }
  YOSO_LSTM_UNROLL
  for (std::size_t j = 0; j < W; ++j) store(y + j * N, acc[j]);
}

/// The pass for the `vecs` < W registers left after the full passes.
template <class V, std::size_t W>
[[gnu::always_inline]] inline void column_tail(std::size_t vecs, double* y,
                                               const double* m,
                                               std::ptrdiff_t ms,
                                               const double* x,
                                               std::ptrdiff_t xs,
                                               std::size_t n) {
  if constexpr (W > 0) {
    if (vecs == W)
      column_block<V, W>(y, m, ms, x, xs, n);
    else
      column_tail<V, W - 1>(vecs, y, m, ms, x, xs, n);
  }
}

[[gnu::always_inline]] inline void column_one(double* y, const double* m,
                                              std::ptrdiff_t ms,
                                              const double* x,
                                              std::ptrdiff_t xs,
                                              std::size_t n) {
  double acc = *y;
  for (std::size_t i = 0; i < n; ++i) {
    const auto si = static_cast<std::ptrdiff_t>(i);
    const double xi = x[si * xs];
    if (xi == 0.0) continue;
    acc += m[si * ms] * xi;
  }
  *y = acc;
}

/// All `cols` columns of y: passes of 8 registers, one pass over the
/// registers left, then single columns.
template <class V>
[[gnu::always_inline]] inline void column_sweep(double* y, const double* m,
                                                std::ptrdiff_t ms,
                                                const double* x,
                                                std::ptrdiff_t xs,
                                                std::size_t n,
                                                std::size_t cols) {
  constexpr std::size_t N = kWidth<V>;
  constexpr std::size_t W = 8;
  std::size_t c = 0;
  for (; c + W * N <= cols; c += W * N)
    column_block<V, W>(y + c, m + c, ms, x, xs, n);
  const std::size_t vecs = (cols - c) / N;
  column_tail<V, W - 1>(vecs, y + c, m + c, ms, x, xs, n);
  for (c += vecs * N; c < cols; ++c) column_one(y + c, m + c, ms, x, xs, n);
}

template <class V>
[[gnu::always_inline]] inline void matvec_t_body(const double* m,
                                                 const double* x, double* y,
                                                 std::size_t rows,
                                                 std::size_t cols) {
  column_sweep<V>(y, m, static_cast<std::ptrdiff_t>(cols), x, 1, rows, cols);
}

/// Row r of g is a column sum over v's rows, walked from s = n - 1 down.
template <class V>
[[gnu::always_inline]] inline void outer_sum_body(double* g, const double* a,
                                                  std::size_t lda,
                                                  const double* v,
                                                  std::size_t n,
                                                  std::size_t rows,
                                                  std::size_t cols) {
  if (n == 0) return;
  const double* v_last = v + (n - 1) * cols;
  const double* a_last = a + (n - 1) * lda;
  const auto ms = -static_cast<std::ptrdiff_t>(cols);
  const auto xs = -static_cast<std::ptrdiff_t>(lda);
  for (std::size_t r = 0; r < rows; ++r)
    column_sweep<V>(g + r * cols, v_last, ms, a_last + r, xs, n, cols);
}

// --- Adam ------------------------------------------------------------------

[[gnu::always_inline]] inline void adam_body(double* value, const double* grad,
                                             double* m, double* v,
                                             std::size_t n,
                                             const AdamStep& s) {
  const double beta1 = s.beta1, beta2 = s.beta2;
  const double one_minus_beta1 = 1.0 - s.beta1;
  const double one_minus_beta2 = 1.0 - s.beta2;
  const double lr = s.lr, eps = s.eps, bc1 = s.bc1, bc2 = s.bc2;
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    const double g = grad[i];
    m[i] = beta1 * m[i] + one_minus_beta1 * g;
    v[i] = beta2 * v[i] + one_minus_beta2 * g * g;
    const double mhat = m[i] / bc1;
    const double vhat = v[i] / bc2;
    value[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

// --- the generic engine ----------------------------------------------------

__attribute__((aligned(64))) void matvec_lanes_generic(const double* m,
                                                       const double* x,
                                                       double* y,
                                                       std::size_t rows,
                                                       std::size_t cols) {
  matvec_lanes_body<v2d, 2>(m, x, y, rows, cols);
}

__attribute__((aligned(64))) void matvec_generic(const double* m,
                                                 const double* x, double* y,
                                                 std::size_t rows,
                                                 std::size_t cols) {
  matvec_body(m, x, y, rows, cols);
}

__attribute__((aligned(64))) void matvec_t_generic(const double* m,
                                                   const double* x,
                                                   double* y,
                                                   std::size_t rows,
                                                   std::size_t cols) {
  matvec_t_body<v2d>(m, x, y, rows, cols);
}

__attribute__((aligned(64))) void outer_sum_generic(
    double* g, const double* a, std::size_t lda, const double* v,
    std::size_t n, std::size_t rows, std::size_t cols) {
  outer_sum_body<v2d>(g, a, lda, v, n, rows, cols);
}

__attribute__((aligned(64))) void adam_generic(double* value,
                                               const double* grad, double* m,
                                               double* v, std::size_t n,
                                               const AdamStep& step) {
  adam_body(value, grad, m, v, n, step);
}

constexpr Kernels kGeneric{"generic",         matvec_lanes_generic,
                           matvec_generic,    matvec_t_generic,
                           outer_sum_generic, adam_generic};

// --- the AVX2 engine -------------------------------------------------------

#if YOSO_LSTM_X86

#define YOSO_LSTM_AVX2 __attribute__((target("avx2"), aligned(64)))

YOSO_LSTM_AVX2 void matvec_lanes_avx2(const double* m, const double* x,
                                      double* y, std::size_t rows,
                                      std::size_t cols) {
  matvec_lanes_body<v4d, 4>(m, x, y, rows, cols);
}

YOSO_LSTM_AVX2 void matvec_avx2(const double* m, const double* x, double* y,
                                std::size_t rows, std::size_t cols) {
  matvec_body(m, x, y, rows, cols);
}

YOSO_LSTM_AVX2 void matvec_t_avx2(const double* m, const double* x,
                                  double* y, std::size_t rows,
                                  std::size_t cols) {
  matvec_t_body<v4d>(m, x, y, rows, cols);
}

YOSO_LSTM_AVX2 void outer_sum_avx2(double* g, const double* a,
                                   std::size_t lda, const double* v,
                                   std::size_t n, std::size_t rows,
                                   std::size_t cols) {
  outer_sum_body<v4d>(g, a, lda, v, n, rows, cols);
}

YOSO_LSTM_AVX2 void adam_avx2(double* value, const double* grad, double* m,
                              double* v, std::size_t n,
                              const AdamStep& step) {
  adam_body(value, grad, m, v, n, step);
}

constexpr Kernels kAvx2{"avx2",         matvec_lanes_avx2, matvec_avx2,
                        matvec_t_avx2,  outer_sum_avx2,    adam_avx2};

#endif  // YOSO_LSTM_X86

}  // namespace

const Kernels& generic_kernels() { return kGeneric; }

const Kernels* avx2_kernels() {
#if YOSO_LSTM_X86
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported ? &kAvx2 : nullptr;
#else
  return nullptr;
#endif
}

const Kernels& kernels() {
  static const Kernels& picked =
      avx2_kernels() != nullptr ? *avx2_kernels() : kGeneric;
  return picked;
}

}  // namespace yoso::lstm
