#pragma once
// The LSTM controller's arithmetic kernels (DESIGN.md §18).  Internal to
// src/rl; the header exists so tests can run both engines side by side.
//
// Every kernel gives each output element the same floating-point operations
// in the same order as the plain scalar loop it documents: a separate
// multiply and add, never fused, and sums in the stated index order.  So the
// results do not depend on the engine, on how rows or columns are grouped
// into register blocks, or on how many episodes run in lockstep.

#include <cstddef>

namespace yoso::lstm {

/// Episodes a lockstep forward pass steps together.
inline constexpr std::size_t kLanes = 8;

/// One Adam step's constants (ParamStore::adam_step).
struct AdamStep {
  double lr = 0.0;
  double beta1 = 0.0;
  double beta2 = 0.0;
  double eps = 0.0;
  double bc1 = 0.0;  ///< bias correction 1 - beta1^t
  double bc2 = 0.0;  ///< bias correction 1 - beta2^t
};

/// One engine: the kernels compiled for one instruction set.  Matrices are
/// row-major; `m` has `rows` x `cols` entries.
struct Kernels {
  const char* name;

  /// The lockstep forward product for kLanes interleaved episodes (entry i
  /// of lane k at [i * kLanes + k]): for each row r and lane k,
  ///   acc = 0.0; for c ascending: acc += m[r][c] * x[c][k];
  ///   y[r][k] += acc.
  void (*matvec_lanes)(const double* m, const double* x, double* y,
                       std::size_t rows, std::size_t cols);

  /// The same product for one episode: y[r] += (sum over c of m[r][c] * x[c]).
  void (*matvec)(const double* m, const double* x, double* y,
                 std::size_t rows, std::size_t cols);

  /// y += m^T x: for r ascending with x[r] != 0, y[c] += m[r][c] * x[r].
  void (*matvec_t)(const double* m, const double* x, double* y,
                   std::size_t rows, std::size_t cols);

  /// The deferred outer-product sum g += sum_s a_s v_s^T: for s from n - 1
  /// down to 0, and each row r with a[s * lda + r] != 0,
  ///   g[r][c] += a[s * lda + r] * v[s * cols + c].
  void (*outer_sum)(double* g, const double* a, std::size_t lda,
                    const double* v, std::size_t n, std::size_t rows,
                    std::size_t cols);

  /// Adam over n parameters, elementwise in ParamStore::adam_step's order.
  void (*adam)(double* value, const double* grad, double* m, double* v,
               std::size_t n, const AdamStep& step);
};

/// The baseline-ISA engine; every x86-64 CPU runs it.
const Kernels& generic_kernels();

/// The AVX2 engine (no FMA), or nullptr when the CPU or the build lacks it.
const Kernels* avx2_kernels();

/// The engine this process uses, picked once: AVX2 when available.
const Kernels& kernels();

}  // namespace yoso::lstm
