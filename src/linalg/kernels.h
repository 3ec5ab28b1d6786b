#pragma once
// Shared high-performance math kernels: the single substrate under
// Matrix::operator*, Cholesky, the im2col conv matmuls, the sparse GP's
// gram and the GP predict path (DESIGN.md §12).
//
// Every kernel is cache-blocked and FMA-friendly (restrict pointers,
// register-tiled multi-accumulator inner loops) with two engine variants
// selected once per process: an AVX2+FMA path (x86-64 hosts that report
// both features at runtime) and a portable generic path.  Kernels run on
// the calling thread; parallelism lives in the callers above them.
//
// Determinism contract:
//   * every output element is produced by its own accumulator chain in a
//     fixed reduction order;
//   * a kernel invoked on a sub-range of rows produces bit-identical rows
//     to the full-range call (the 4-, 2- and 1-row sweeps are
//     instantiations of one register-tile template, so they issue the same
//     per-element operation sequence), which is what makes
//     GpRegressor::predict() == predict_batch() == predict_means()
//     row-for-row, for every target.

#include <cstddef>
#include <string>
#include <vector>

namespace yoso::kernels {

/// Engine selected for this process: "avx2+fma" or "generic".
std::string active_isa();

/// C (m x n) = A (m x k) * B (k x n); all row-major, C overwritten.
void gemm(const double* a, const double* b, double* c, std::size_t m,
          std::size_t k, std::size_t n);

/// C (wa x wb, row stride ldc) = Pa^T Pb: one block of the gram A^T A of
/// an n-row matrix A stored as column panels, where Pa (n x wa) and Pb
/// (n x wb) are row-major panels of A.  Element (i, j) runs gemm's chain
/// for (A^T A)(i, j): t ascending from +0.0, one fma per step on avx2+fma
/// and s += a * b on the generic engine.  So the block equals the same
/// block of gemm(transpose(A), A) bit for bit, and since the two
/// multiplicands commute, block (I, J) equals the transpose of block
/// (J, I): the lower blocks and their mirrors give the whole gram.
void gram_panels(const double* pa, std::size_t wa, const double* pb,
                 std::size_t wb, std::size_t n, double* c, std::size_t ldc);

/// y (m) = A (m x n) * x; one fixed-order dot per output row.
void gemv(const double* a, const double* x, double* y, std::size_t m,
          std::size_t n);

/// Fixed-order dot product: four independent accumulator lanes combined as
/// ((l0+l1)+(l2+l3)) on every engine, so the reduction order never depends
/// on the caller.
double dot(const double* a, const double* b, std::size_t n);

/// C (m x n) = A (m x k) * B^T where B is (n x k): the im2col conv forward
/// product (out = cols * W^T).  B is packed to k x n internally.
void sgemm_abt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t n, std::size_t k);

/// C (m x n) = A (m x k) * B (k x n); C overwritten.
void sgemm_ab(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n);

/// C (k x n) += A^T * B where A is (m x k), B is (m x n): the conv weight
/// gradient accumulation.
void sgemm_atb_acc(const float* a, const float* b, float* c, std::size_t m,
                   std::size_t k, std::size_t n);

/// Column-major pack of a row-major (rows x dim) matrix plus per-row
/// squared norms: the GP training set is packed once at fit time so every
/// predict reads unit-stride panels.
struct PackedRows {
  std::size_t rows = 0;
  std::size_t dim = 0;
  std::vector<double> data;   ///< dim x rows: data[c * rows + r] = src(r, c)
  std::vector<double> norms;  ///< norms[r] = dot(src_r, src_r)
};
PackedRows pack_rows(const double* src, std::size_t rows, std::size_t dim);

/// out (q x packed.rows) = clamped-at-zero squared Euclidean distances
/// between every query row and every packed row, via the norm expansion
/// |a-b|^2 = |a|^2 + |b|^2 - 2 a.b with the clamp fused into the product
/// epilogue (no second pass over the q x n block).
void pairwise_sq_dists(const double* queries, std::size_t q,
                       const PackedRows& packed, double* out);

/// out[i] = mult * exp(scale * in[i]); in == out aliasing is allowed.
/// Both engines use the same range-reduced polynomial (max relative error
/// ~3e-16 vs std::exp), and the vector path's remainder lanes run a scalar
/// replica of the identical operation sequence, so the result for element
/// i depends only on in[i], scale and mult: a slice of a row starting at
/// any offset gives the whole row's bits.
void exp_scale(const double* in, double* out, std::size_t n, double scale,
               double mult);

/// Fused kernel-row evaluation: out[i] = mult * exp(scale * in[i]) and the
/// return value is sum_i out[i] * w[i], in one pass (in == out allowed).
/// The exp chains are those of exp_scale exactly (element values are
/// bit-identical); the dot accumulates in a fixed lane pattern that depends
/// only on n, so repeated calls on the same row always agree.  This is the
/// GP predictive-mean hot loop: K*(row) = exp of a distance row, mean
/// contribution = K*(row) . alpha.
double exp_scale_dot(const double* in, double* out, const double* w,
                     std::size_t n, double scale, double mult);

}  // namespace yoso::kernels
