#include "linalg/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "base/contract.h"

#if defined(__x86_64__)
#include <immintrin.h>
#define YOSO_KERNELS_X86 1
#endif

// Engine layout: every kernel has a generic scalar body plus (on x86-64) an
// AVX2+FMA body carrying __attribute__((target("avx2,fma"))), all in this
// one TU so there is no cross-TU ODR hazard from mixed -m flags.  The
// engine is picked once per process by use_avx2().  The AVX2 GEMMs and
// distances run on one register-tile template, and their 4-, 2- and 1-row
// sweeps are instantiations of it, so a row's result never depends on how
// the surrounding rows were grouped.

namespace yoso::kernels {
namespace {

// Rows of A and B per sgemm_atb_acc pass, so a pass's slices stay cache
// resident across C's tiles.
constexpr std::size_t kAccIBlock = 128;
// Rows of the two panels per gram_panels pass: 64 rows of two 32-wide
// double panels are 32 KB, inside a 48 KB L1.
constexpr std::size_t kGramSteps = 64;

bool use_avx2() {
#if YOSO_KERNELS_X86
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return false;
#endif
}

// --- exp: range-reduced polynomial shared by both engines ------------------
// exp(x) = 2^k * exp(r), k = round(x / ln 2), r = x - k ln2_hi - k ln2_lo,
// exp(r) by a degree-12 Taylor/Horner polynomial on |r| <= ln2/2 (max
// relative error ~3e-16 vs std::exp).  The scalar core below is the exact
// operation sequence of the vector body, so the vector remainder lanes can
// call it and still satisfy "element i depends only on in[i]".

constexpr double kExpLo = -708.0;
constexpr double kExpHi = 708.0;
constexpr double kLog2E = 1.4426950408889634074;
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kExpC[13] = {1.0,
                              1.0,
                              1.0 / 2,
                              1.0 / 6,
                              1.0 / 24,
                              1.0 / 120,
                              1.0 / 720,
                              1.0 / 5040,
                              1.0 / 40320,
                              1.0 / 362880,
                              1.0 / 3628800,
                              1.0 / 39916800,
                              1.0 / 479001600};

double exp_core(double x) {
  x = std::min(kExpHi, std::max(kExpLo, x));
  const double kd = static_cast<double>(std::lrint(x * kLog2E));
  double r = std::fma(-kd, kLn2Hi, x);
  r = std::fma(-kd, kLn2Lo, r);
  double p = kExpC[12];
  for (int ci = 11; ci >= 0; --ci) p = std::fma(p, r, kExpC[ci]);
  const std::uint64_t bits =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(kd) + 1023) << 52;
  return p * std::bit_cast<double>(bits);
}

// --- generic engine --------------------------------------------------------

double dot_generic(const double* a, const double* b, std::size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += a[i] * b[i];
    l1 += a[i + 1] * b[i + 1];
    l2 += a[i + 2] * b[i + 2];
    l3 += a[i + 3] * b[i + 3];
  }
  double acc = (l0 + l1) + (l2 + l3);
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

/// Operand layout of one GEMM, C (rows x n) = A (rows x kk) B (kk x n) on
/// either engine: A's element (i, t) sits at a[i * ars + t * ats], B and C
/// are row-major with row strides ldb and ldc.  A plain row-major A has
/// ars = kk, ats = 1; a column panel read as its own transpose has ars = 1
/// and ats = the panel's width.  With `accumulate`, each element's chain
/// continues from the partial sum C holds instead of starting from +0.0,
/// so a product split into passes over t ranges keeps its bits.
template <typename T>
struct GemmOperands {
  const T* a;
  std::size_t ars, ats;
  const T* b;
  std::size_t ldb;
  T* c;
  std::size_t ldc;
  bool accumulate;
};

/// Each element of C starts from +0.0 (or, accumulating, from its value in
/// C) and adds a * b for t ascending.
template <typename T>
void gemm_rows_generic(const GemmOperands<T>& op, std::size_t rows,
                       std::size_t kk, std::size_t n) {
  for (std::size_t i = 0; i < rows; ++i) {
    T* ci = op.c + i * op.ldc;
    if (!op.accumulate) std::fill(ci, ci + n, T{0});
    for (std::size_t t = 0; t < kk; ++t) {
      const T av = op.a[i * op.ars + t * op.ats];
      const T* bt = op.b + t * op.ldb;
      for (std::size_t j = 0; j < n; ++j) ci[j] += av * bt[j];
    }
  }
}

void pairwise_rows_generic(const double* q, std::size_t d, std::size_t rows,
                           const double* trn, const double* tn, std::size_t n,
                           double* out) {
  for (std::size_t i = 0; i < rows; ++i) {
    const double* qi = q + i * d;
    const double qn = dot_generic(qi, qi, d);
    double* oi = out + i * n;
    for (std::size_t t = 0; t < n; ++t) oi[t] = qn + tn[t];
    for (std::size_t c = 0; c < d; ++c) {
      const double qv = -2.0 * qi[c];
      const double* col = trn + c * n;
      for (std::size_t t = 0; t < n; ++t) oi[t] += qv * col[t];
    }
    for (std::size_t t = 0; t < n; ++t) oi[t] = std::max(0.0, oi[t]);
  }
}

double exp_scale_dot_generic(const double* in, double* out, const double* w,
                             std::size_t n, double scale, double mult) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = mult * exp_core(scale * in[i]);
    sum = std::fma(out[i], w[i], sum);
  }
  return sum;
}

void exp_scale_generic(const double* in, double* out, std::size_t n,
                       double scale, double mult) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = mult * exp_core(scale * in[i]);
}

// --- AVX2+FMA engine -------------------------------------------------------
// One register-tile template, tile_fma, under the GEMMs (the sparse GP's
// gram blocks included) and the distances.
// A tile holds R rows x V ymm vectors of accumulators and issues one
// broadcast-FMA per (row, vector) for each step of the shared index, in
// ascending order.  The 2- and 1-row GEMM sweeps, the 4-, 2- and 1-row
// distance sweeps and their one-vector column tails are instantiations of
// it; the scalar column tail replays the same chain with std::fma.  So each
// output element owns one accumulator lane updated in a fixed order, never
// a cross-lane reduction, and its bits do not depend on how rows or columns
// were grouped.

#if YOSO_KERNELS_X86

#define YOSO_AVX2_INLINE \
  __attribute__((target("avx2,fma"), always_inline)) inline

// A tile's R and V loops must unroll completely, or gcc keeps the
// accumulator arrays on the stack instead of in ymm registers.
#if defined(__clang__)
#define YOSO_UNROLL _Pragma("unroll")
#else
#define YOSO_UNROLL _Pragma("GCC unroll 8")
#endif

// Elements per ymm register, and the ymm operations a tile needs,
// overloaded on the element type.
template <typename T>
constexpr std::size_t kLanes = 32 / sizeof(T);
YOSO_AVX2_INLINE __m256d splat(double x) { return _mm256_set1_pd(x); }
YOSO_AVX2_INLINE __m256 splat(float x) { return _mm256_set1_ps(x); }
YOSO_AVX2_INLINE __m256d load(const double* p) { return _mm256_loadu_pd(p); }
YOSO_AVX2_INLINE __m256 load(const float* p) { return _mm256_loadu_ps(p); }
YOSO_AVX2_INLINE void store(double* p, __m256d v) { _mm256_storeu_pd(p, v); }
YOSO_AVX2_INLINE void store(float* p, __m256 v) { _mm256_storeu_ps(p, v); }
YOSO_AVX2_INLINE __m256d fmadd(__m256d a, __m256d b, __m256d c) {
  return _mm256_fmadd_pd(a, b, c);
}
YOSO_AVX2_INLINE __m256 fmadd(__m256 a, __m256 b, __m256 c) {
  return _mm256_fmadd_ps(a, b, c);
}

__attribute__((target("avx2,fma"))) double dot_avx2(const double* a,
                                                    const double* b,
                                                    std::size_t n) {
  __m256d l0 = _mm256_setzero_pd();
  __m256d l1 = _mm256_setzero_pd();
  __m256d l2 = _mm256_setzero_pd();
  __m256d l3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    l0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), l0);
    l1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                         _mm256_loadu_pd(b + i + 4), l1);
    l2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8),
                         _mm256_loadu_pd(b + i + 8), l2);
    l3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12),
                         _mm256_loadu_pd(b + i + 12), l3);
  }
  for (; i + 4 <= n; i += 4)
    l0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), l0);
  const __m256d s =
      _mm256_add_pd(_mm256_add_pd(l0, l1), _mm256_add_pd(l2, l3));
  double tmp[4];
  _mm256_storeu_pd(tmp, s);
  double acc = (tmp[0] + tmp[1]) + (tmp[2] + tmp[3]);
  for (; i < n; ++i) acc = std::fma(a[i], b[i], acc);
  return acc;
}

/// Seeds a tile's accumulators: +0.0, or (accumulate) the partial chains
/// an earlier pass stored at c, row stride ldc.
template <typename T, typename Vec, std::size_t R, std::size_t V>
YOSO_AVX2_INLINE void tile_seed(Vec (&s)[R][V], const T* c, std::size_t ldc,
                                bool accumulate) {
  YOSO_UNROLL
  for (std::size_t r = 0; r < R; ++r) {
    YOSO_UNROLL
    for (std::size_t v = 0; v < V; ++v)
      s[r][v] = accumulate ? load(c + r * ldc + v * kLanes<T>) : splat(T{0});
  }
}

/// The register tile under every AVX2 GEMM, gram and distance block: for
/// t ascending in [0, kk) adds a[r * ars + t * ats] times the vector at
/// b + t * ldb + v * kLanes into s[r][v], one broadcast-FMA per row r < R
/// and vector v < V.  The caller seeds s (tile_seed).
template <typename T, typename Vec, std::size_t R, std::size_t V>
YOSO_AVX2_INLINE void tile_fma(Vec (&s)[R][V], const T* a, std::size_t ars,
                               std::size_t ats, const T* b, std::size_t ldb,
                               std::size_t kk) {
  for (std::size_t t = 0; t < kk; ++t) {
    Vec bv[V];
    YOSO_UNROLL
    for (std::size_t v = 0; v < V; ++v)
      bv[v] = load(b + t * ldb + v * kLanes<T>);
    YOSO_UNROLL
    for (std::size_t r = 0; r < R; ++r) {
      const Vec av = splat(a[r * ars + t * ats]);
      YOSO_UNROLL
      for (std::size_t v = 0; v < V; ++v) s[r][v] = fmadd(av, bv[v], s[r][v]);
    }
  }
}

/// C[r][j, j + V vectors) = (A B)[r][...] for r < R.
template <typename T, std::size_t R, std::size_t V>
YOSO_AVX2_INLINE void gemm_tile(const GemmOperands<T>& op, std::size_t kk,
                                std::size_t j) {
  decltype(splat(T{})) s[R][V];
  constexpr std::size_t w = kLanes<T>;
  tile_seed(s, op.c + j, op.ldc, op.accumulate);
  tile_fma(s, op.a, op.ars, op.ats, op.b + j, op.ldb, kk);
  YOSO_UNROLL
  for (std::size_t r = 0; r < R; ++r) {
    YOSO_UNROLL
    for (std::size_t v = 0; v < V; ++v)
      store(op.c + r * op.ldc + j + v * w, s[r][v]);
  }
}

/// Rows [0, R) of C (R x n) = A B: 4-vector tiles, then one-vector tiles,
/// then a scalar std::fma tail.
template <typename T, std::size_t R>
__attribute__((target("avx2,fma"))) void gemm_row_group(
    const GemmOperands<T>& op, std::size_t kk, std::size_t n) {
  constexpr std::size_t w = kLanes<T>;
  std::size_t j = 0;
  for (; j + 4 * w <= n; j += 4 * w) gemm_tile<T, R, 4>(op, kk, j);
  for (; j + w <= n; j += w) gemm_tile<T, R, 1>(op, kk, j);
  for (; j < n; ++j) {
    T s[R];
    for (std::size_t r = 0; r < R; ++r)
      s[r] = op.accumulate ? op.c[r * op.ldc + j] : T{0};
    for (std::size_t t = 0; t < kk; ++t) {
      YOSO_UNROLL
      for (std::size_t r = 0; r < R; ++r)
        s[r] = std::fma(op.a[r * op.ars + t * op.ats], op.b[t * op.ldb + j],
                        s[r]);
    }
    for (std::size_t r = 0; r < R; ++r) op.c[r * op.ldc + j] = s[r];
  }
}

/// C (rows x n) = A (rows x kk) * B (kk x n) in row pairs, then one row.
template <typename T>
__attribute__((target("avx2,fma"))) void gemm_avx2(GemmOperands<T> op,
                                                   std::size_t rows,
                                                   std::size_t kk,
                                                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= rows; i += 2) {
    gemm_row_group<T, 2>(op, kk, n);
    op.a += 2 * op.ars;
    op.c += 2 * op.ldc;
  }
  if (i < rows) gemm_row_group<T, 1>(op, kk, n);
}

/// out[r][t, t + 4V) for R query rows: the tile's cross products with the
/// packed panel (dimension c ascending), stored through the fused epilogue
/// max(0, (qn + tn) - 2 cross).
template <std::size_t R, std::size_t V>
YOSO_AVX2_INLINE void pairwise_tile(const double* q, std::size_t d,
                                    const double* trn, const double* tn,
                                    std::size_t n, const double* qn,
                                    double* out, std::size_t t) {
  __m256d s[R][V];
  tile_seed(s, out, n, /*accumulate=*/false);
  tile_fma(s, q, d, 1, trn + t, n, d);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d two = _mm256_set1_pd(2.0);
  YOSO_UNROLL
  for (std::size_t v = 0; v < V; ++v) {
    const __m256d nv = load(tn + t + 4 * v);
    YOSO_UNROLL
    for (std::size_t r = 0; r < R; ++r) {
      const __m256d sum = _mm256_add_pd(splat(qn[r]), nv);
      store(out + r * n + t + 4 * v,
            _mm256_max_pd(zero, _mm256_fnmadd_pd(two, s[r][v], sum)));
    }
  }
}

/// Distance rows for R query rows: V-vector tiles, then one-vector tiles,
/// then a scalar std::fma tail with the same epilogue.
template <std::size_t R, std::size_t V>
__attribute__((target("avx2,fma"))) void pairwise_row_group(
    const double* q, std::size_t d, const double* trn, const double* tn,
    std::size_t n, double* out) {
  double qn[R];
  for (std::size_t r = 0; r < R; ++r) qn[r] = dot(q + r * d, q + r * d, d);
  std::size_t t = 0;
  for (; t + 4 * V <= n; t += 4 * V)
    pairwise_tile<R, V>(q, d, trn, tn, n, qn, out, t);
  for (; t + 4 <= n; t += 4) pairwise_tile<R, 1>(q, d, trn, tn, n, qn, out, t);
  for (; t < n; ++t) {
    double s[R] = {};
    for (std::size_t c = 0; c < d; ++c) {
      YOSO_UNROLL
      for (std::size_t r = 0; r < R; ++r)
        s[r] = std::fma(q[r * d + c], trn[c * n + t], s[r]);
    }
    for (std::size_t r = 0; r < R; ++r)
      out[r * n + t] = std::max(0.0, std::fma(-2.0, s[r], qn[r] + tn[t]));
  }
}

/// Four query rows per panel sweep (4 x 2 tile: half the panel traffic of
/// row pairs), then a pair (2 x 4), then a single row (1 x 4).
__attribute__((target("avx2,fma"))) void pairwise_avx2(
    const double* q, std::size_t d, std::size_t rows, const double* trn,
    const double* tn, std::size_t n, double* out) {
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4)
    pairwise_row_group<4, 2>(q + i * d, d, trn, tn, n, out + i * n);
  if (i + 2 <= rows) {
    pairwise_row_group<2, 4>(q + i * d, d, trn, tn, n, out + i * n);
    i += 2;
  }
  if (i < rows) pairwise_row_group<1, 4>(q + i * d, d, trn, tn, n, out + i * n);
}

/// One vector of mult * exp(scale * x): the exact operation sequence of the
/// scalar exp_core, four lanes at a time.  Always inlined so every caller
/// produces bit-identical element values.
__attribute__((target("avx2,fma"), always_inline)) inline __m256d exp4(
    __m256d x, __m256d vscale, __m256d vmult) {
  x = _mm256_mul_pd(x, vscale);
  x = _mm256_min_pd(_mm256_set1_pd(kExpHi),
                    _mm256_max_pd(_mm256_set1_pd(kExpLo), x));
  // k = round-to-nearest-even(x * log2 e): matches std::lrint in the
  // scalar core under the default rounding mode.
  const __m128i k32 =
      _mm256_cvtpd_epi32(_mm256_mul_pd(x, _mm256_set1_pd(kLog2E)));
  const __m256d kd = _mm256_cvtepi32_pd(k32);
  __m256d r = _mm256_fnmadd_pd(kd, _mm256_set1_pd(kLn2Hi), x);
  r = _mm256_fnmadd_pd(kd, _mm256_set1_pd(kLn2Lo), r);
  __m256d p = _mm256_set1_pd(kExpC[12]);
  for (int ci = 11; ci >= 0; --ci)
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(kExpC[ci]));
  // 2^k via exponent-field construction; k+1023 stays in [2, 2045] after
  // the clamp, so no overflow or denormal path.
  const __m256i bits = _mm256_slli_epi64(
      _mm256_add_epi64(_mm256_cvtepi32_epi64(k32), _mm256_set1_epi64x(1023)),
      52);
  const __m256d twok = _mm256_castsi256_pd(bits);
  return _mm256_mul_pd(_mm256_mul_pd(p, twok), vmult);
}

__attribute__((target("avx2,fma"))) void exp_scale_avx2(
    const double* in, double* out, std::size_t n, double scale, double mult) {
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vmult = _mm256_set1_pd(mult);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(out + i, exp4(_mm256_loadu_pd(in + i), vscale, vmult));
  for (; i < n; ++i) out[i] = mult * exp_core(scale * in[i]);
}

__attribute__((target("avx2,fma"))) double exp_scale_dot_avx2(
    const double* in, double* out, const double* w, std::size_t n,
    double scale, double mult) {
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vmult = _mm256_set1_pd(mult);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  // Four independent exp chains per iteration keep the FMA pipes busy (a
  // single Horner chain is latency-bound); each element's value chain is
  // the same as in the 4-wide loop below, and each dot accumulator lane
  // owns a fixed (i mod 16) slice, so the sum depends only on n.
  for (; i + 16 <= n; i += 16) {
    const __m256d e0 = exp4(_mm256_loadu_pd(in + i), vscale, vmult);
    const __m256d e1 = exp4(_mm256_loadu_pd(in + i + 4), vscale, vmult);
    const __m256d e2 = exp4(_mm256_loadu_pd(in + i + 8), vscale, vmult);
    const __m256d e3 = exp4(_mm256_loadu_pd(in + i + 12), vscale, vmult);
    _mm256_storeu_pd(out + i, e0);
    _mm256_storeu_pd(out + i + 4, e1);
    _mm256_storeu_pd(out + i + 8, e2);
    _mm256_storeu_pd(out + i + 12, e3);
    acc0 = _mm256_fmadd_pd(e0, _mm256_loadu_pd(w + i), acc0);
    acc1 = _mm256_fmadd_pd(e1, _mm256_loadu_pd(w + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(e2, _mm256_loadu_pd(w + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(e3, _mm256_loadu_pd(w + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d e = exp4(_mm256_loadu_pd(in + i), vscale, vmult);
    _mm256_storeu_pd(out + i, e);
    acc0 = _mm256_fmadd_pd(e, _mm256_loadu_pd(w + i), acc0);
  }
  const __m256d t =
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, t);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    out[i] = mult * exp_core(scale * in[i]);
    sum = std::fma(out[i], w[i], sum);
  }
  return sum;
}

#endif  // YOSO_KERNELS_X86

template <typename T>
void gemm_any(const GemmOperands<T>& op, std::size_t rows, std::size_t kk,
              std::size_t n) {
#if YOSO_KERNELS_X86
  if (use_avx2()) {
    gemm_avx2(op, rows, kk, n);
    return;
  }
#endif
  gemm_rows_generic(op, rows, kk, n);
}

}  // namespace

// --- public drivers --------------------------------------------------------

std::string active_isa() { return use_avx2() ? "avx2+fma" : "generic"; }

double dot(const double* a, const double* b, std::size_t n) {
#if YOSO_KERNELS_X86
  if (use_avx2()) return dot_avx2(a, b, n);
#endif
  return dot_generic(a, b, n);
}

void gemm(const double* a, const double* b, double* c, std::size_t m,
          std::size_t k, std::size_t n) {
  if (m == 0 || n == 0) return;
  YOSO_REQUIRE(c != nullptr, "kernels::gemm: null output");
  if (k == 0) {
    std::fill(c, c + m * n, 0.0);
    return;
  }
  YOSO_REQUIRE(a != nullptr && b != nullptr, "kernels::gemm: null input");
  gemm_any(GemmOperands<double>{a, k, 1, b, n, c, n, false}, m, k, n);
}

void gram_panels(const double* pa, std::size_t wa, const double* pb,
                 std::size_t wb, std::size_t n, double* c, std::size_t ldc) {
  if (wa == 0 || wb == 0) return;
  YOSO_REQUIRE(c != nullptr && ldc >= wb,
               "kernels::gram_panels: null output or row stride ", ldc,
               " < block width ", wb);
  if (n == 0) {
    for (std::size_t i = 0; i < wa; ++i)
      std::fill(c + i * ldc, c + i * ldc + wb, 0.0);
    return;
  }
  YOSO_REQUIRE(pa != nullptr && pb != nullptr,
               "kernels::gram_panels: null panel");
  // Passes of kGramSteps rows keep both panels' slices in L1 across the
  // block's tiles; each pass continues every element's chain from the
  // partial sum the previous one stored, which is exact.
  for (std::size_t t0 = 0; t0 < n; t0 += kGramSteps)
    gemm_any(GemmOperands<double>{pa + t0 * wa, 1, wa, pb + t0 * wb, wb, c,
                                  ldc, t0 > 0},
             wa, std::min(kGramSteps, n - t0), wb);
}

void gemv(const double* a, const double* x, double* y, std::size_t m,
          std::size_t n) {
  if (m == 0) return;
  YOSO_REQUIRE(a != nullptr && x != nullptr && y != nullptr,
               "kernels::gemv: null operand");
  for (std::size_t i = 0; i < m; ++i) y[i] = dot(a + i * n, x, n);
}

void sgemm_ab(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n) {
  if (m == 0 || n == 0) return;
  YOSO_REQUIRE(c != nullptr, "kernels::sgemm_ab: null output");
  if (k == 0) {
    std::fill(c, c + m * n, 0.0f);
    return;
  }
  YOSO_REQUIRE(a != nullptr && b != nullptr, "kernels::sgemm_ab: null input");
  gemm_any(GemmOperands<float>{a, k, 1, b, n, c, n, false}, m, k, n);
}

void sgemm_abt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t n, std::size_t k) {
  if (m == 0 || n == 0) return;
  YOSO_REQUIRE(c != nullptr, "kernels::sgemm_abt: null output");
  if (k == 0) {
    std::fill(c, c + m * n, 0.0f);
    return;
  }
  YOSO_REQUIRE(a != nullptr && b != nullptr, "kernels::sgemm_abt: null input");
  YOSO_REQUIRE(k <= std::numeric_limits<std::size_t>::max() / n,
               "kernels::sgemm_abt: k*n overflows (k=", k, ", n=", n, ")");
  // Pack B (n x k) into B^T (k x n) so the product reads unit-stride
  // panels; A * B^T then runs through the same row kernel as sgemm_ab.
  std::vector<float> bt(k * n);
  for (std::size_t j = 0; j < n; ++j) {
    const float* bj = b + j * k;
    for (std::size_t t = 0; t < k; ++t) bt[t * n + j] = bj[t];
  }
  gemm_any(GemmOperands<float>{a, k, 1, bt.data(), n, c, n, false}, m, k,
           n);
}

void sgemm_atb_acc(const float* a, const float* b, float* c, std::size_t m,
                   std::size_t k, std::size_t n) {
  if (k == 0 || n == 0 || m == 0) return;
  YOSO_REQUIRE(a != nullptr && b != nullptr && c != nullptr,
               "kernels::sgemm_atb_acc: null operand");
  // C's row t reads A's column t as its row (row stride 1, step stride k);
  // each pass continues every element's chain from the sum C holds.
  for (std::size_t i0 = 0; i0 < m; i0 += kAccIBlock)
    gemm_any(GemmOperands<float>{a + i0 * k, 1, k, b + i0 * n, n, c, n, true},
             k, std::min(kAccIBlock, m - i0), n);
}

PackedRows pack_rows(const double* src, std::size_t rows, std::size_t dim) {
  YOSO_REQUIRE(src != nullptr || rows == 0, "kernels::pack_rows: null input");
  YOSO_REQUIRE(dim == 0 ||
                   rows <= std::numeric_limits<std::size_t>::max() / dim,
               "kernels::pack_rows: rows*dim overflows (rows=", rows,
               ", dim=", dim, ")");
  PackedRows p;
  p.rows = rows;
  p.dim = dim;
  p.data.resize(rows * dim);
  p.norms.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* sr = src + r * dim;
    for (std::size_t c = 0; c < dim; ++c) p.data[c * rows + r] = sr[c];
    p.norms[r] = dot(sr, sr, dim);
  }
  return p;
}

void pairwise_sq_dists(const double* queries, std::size_t q,
                       const PackedRows& packed, double* out) {
  if (q == 0 || packed.rows == 0) return;
  YOSO_REQUIRE(queries != nullptr && out != nullptr,
               "kernels::pairwise_sq_dists: null operand");
  YOSO_REQUIRE(packed.data.size() == packed.rows * packed.dim &&
                   packed.norms.size() == packed.rows,
               "kernels::pairwise_sq_dists: inconsistent PackedRows");
  const double* trn = packed.data.data();
  const double* tn = packed.norms.data();
  const std::size_t d = packed.dim;
  const std::size_t n = packed.rows;
#if YOSO_KERNELS_X86
  if (use_avx2()) {
    pairwise_avx2(queries, d, q, trn, tn, n, out);
    return;
  }
#endif
  pairwise_rows_generic(queries, d, q, trn, tn, n, out);
}

void exp_scale(const double* in, double* out, std::size_t n, double scale,
               double mult) {
  if (n == 0) return;
  YOSO_REQUIRE(in != nullptr && out != nullptr,
               "kernels::exp_scale: null operand");
#if YOSO_KERNELS_X86
  if (use_avx2()) {
    exp_scale_avx2(in, out, n, scale, mult);
    return;
  }
#endif
  exp_scale_generic(in, out, n, scale, mult);
}

double exp_scale_dot(const double* in, double* out, const double* w,
                     std::size_t n, double scale, double mult) {
  if (n == 0) return 0.0;
  YOSO_REQUIRE(in != nullptr && out != nullptr && w != nullptr,
               "kernels::exp_scale_dot: null operand");
#if YOSO_KERNELS_X86
  if (use_avx2()) return exp_scale_dot_avx2(in, out, w, n, scale, mult);
#endif
  return exp_scale_dot_generic(in, out, w, n, scale, mult);
}

}  // namespace yoso::kernels
