// The controller's kernel engines (rl/lstm_kernels.h) against the plain
// scalar loops they replace: each output element must come out bit for bit
// the same.  The shapes reach every row pass and row tail, every full
// column pass, register tail and single-column tail of both engines, and
// the inputs hold the zeros (and a -0.0) that the sums skip.  This file
// builds with -ffp-contract=off, as yoso_rl does, so the reference loops
// are never fused either.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "rl/lstm_kernels.h"
#include "util/rng.h"

namespace yoso {
namespace {

using lstm::kLanes;

/// Uniform in [-1, 1); with `zeros`, every fifth entry is 0 and every
/// tenth -0.0.
std::vector<double> random_values(Rng& rng, std::size_t n, bool zeros) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = rng.uniform(-1.0, 1.0);
    if (zeros && i % 5 == 2) v[i] = i % 10 == 2 ? -0.0 : 0.0;
  }
  return v;
}

void expect_same_bits(const std::vector<double>& want,
                      const std::vector<double>& got, const char* kernel) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(want[i]),
              std::bit_cast<std::uint64_t>(got[i]))
        << kernel << " entry " << i;
}

// --- the reference loops ---------------------------------------------------

void ref_matvec_lanes(const std::vector<double>& m,
                      const std::vector<double>& x, std::vector<double>& y,
                      std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t k = 0; k < kLanes; ++k) {
      double acc = 0.0;
      for (std::size_t c = 0; c < cols; ++c)
        acc += m[r * cols + c] * x[c * kLanes + k];
      y[r * kLanes + k] += acc;
    }
}

void ref_matvec(const std::vector<double>& m, const std::vector<double>& x,
                std::vector<double>& y, std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols; ++c) acc += m[r * cols + c] * x[c];
    y[r] += acc;
  }
}

void ref_matvec_t(const std::vector<double>& m, const std::vector<double>& x,
                  std::vector<double>& y, std::size_t rows,
                  std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    if (x[r] == 0.0) continue;
    for (std::size_t c = 0; c < cols; ++c) y[c] += m[r * cols + c] * x[r];
  }
}

void ref_outer_sum(std::vector<double>& g, const std::vector<double>& a,
                   std::size_t lda, const std::vector<double>& v,
                   std::size_t n, std::size_t rows, std::size_t cols) {
  for (std::size_t s = n; s-- > 0;)
    for (std::size_t r = 0; r < rows; ++r) {
      const double ar = a[s * lda + r];
      if (ar == 0.0) continue;
      for (std::size_t c = 0; c < cols; ++c)
        g[r * cols + c] += ar * v[s * cols + c];
    }
}

void ref_adam(std::vector<double>& value, const std::vector<double>& grad,
              std::vector<double>& m, std::vector<double>& v,
              const lstm::AdamStep& s) {
  for (std::size_t i = 0; i < value.size(); ++i) {
    m[i] = s.beta1 * m[i] + (1.0 - s.beta1) * grad[i];
    v[i] = s.beta2 * v[i] + (1.0 - s.beta2) * grad[i] * grad[i];
    const double mhat = m[i] / s.bc1;
    const double vhat = v[i] / s.bc2;
    value[i] -= s.lr * mhat / (std::sqrt(vhat) + s.eps);
  }
}

// --- one engine against them ------------------------------------------------

void check_engine(const lstm::Kernels& k) {
  SCOPED_TRACE(k.name);
  Rng rng(17);
  // Rows: the 4- and 2-row passes and their tails.  Columns: the 32- and
  // 16-column passes, every 4-column register tail and single columns.
  for (const std::size_t rows : {1u, 2u, 3u, 4u, 7u, 9u})
    for (const std::size_t cols : {1u, 3u, 4u, 8u, 13u, 16u, 19u, 27u, 31u,
                                   32u, 36u, 55u, 67u}) {
      SCOPED_TRACE(testing::Message() << rows << " x " << cols);
      const std::vector<double> m = random_values(rng, rows * cols, false);

      const std::vector<double> xl = random_values(rng, cols * kLanes, true);
      std::vector<double> want = random_values(rng, rows * kLanes, false);
      std::vector<double> got = want;
      ref_matvec_lanes(m, xl, want, rows, cols);
      k.matvec_lanes(m.data(), xl.data(), got.data(), rows, cols);
      expect_same_bits(want, got, "matvec_lanes");

      const std::vector<double> x = random_values(rng, cols, true);
      want = random_values(rng, rows, false);
      got = want;
      ref_matvec(m, x, want, rows, cols);
      k.matvec(m.data(), x.data(), got.data(), rows, cols);
      expect_same_bits(want, got, "matvec");

      const std::vector<double> xt = random_values(rng, rows, true);
      want = random_values(rng, cols, false);
      got = want;
      ref_matvec_t(m, xt, want, rows, cols);
      k.matvec_t(m.data(), xt.data(), got.data(), rows, cols);
      expect_same_bits(want, got, "matvec_t");

      for (const std::size_t n : {0u, 1u, 5u}) {
        const std::size_t lda = rows + 2;
        const std::vector<double> a = random_values(rng, n * lda, true);
        const std::vector<double> v = random_values(rng, n * cols, false);
        want = random_values(rng, rows * cols, false);
        got = want;
        ref_outer_sum(want, a, lda, v, n, rows, cols);
        k.outer_sum(got.data(), a.data(), lda, v.data(), n, rows, cols);
        expect_same_bits(want, got, "outer_sum");
      }
    }

  for (const std::size_t n : {1u, 3u, 4u, 7u, 103u}) {
    const lstm::AdamStep step{.lr = 0.0035,
                              .beta1 = 0.9,
                              .beta2 = 0.999,
                              .eps = 1e-8,
                              .bc1 = 1.0 - std::pow(0.9, 3.0),
                              .bc2 = 1.0 - std::pow(0.999, 3.0)};
    const std::vector<double> grad = random_values(rng, n, true);
    std::vector<double> value = random_values(rng, n, false);
    std::vector<double> m = random_values(rng, n, false);
    std::vector<double> v = random_values(rng, n, false);
    for (double& vi : v) vi = std::abs(vi);
    std::vector<double> value2 = value, m2 = m, v2 = v;
    ref_adam(value, grad, m, v, step);
    k.adam(value2.data(), grad.data(), m2.data(), v2.data(), n, step);
    expect_same_bits(value, value2, "adam value");
    expect_same_bits(m, m2, "adam m");
    expect_same_bits(v, v2, "adam v");
  }
}

// Both engines against the reference, so they agree with each other.  The
// AVX2 half skips on a CPU without AVX2; CI's release job fails on that
// skip, so the agreement is proven on every merge.
TEST(LstmKernels, EnginesAgreeBitForBit) {
  check_engine(lstm::generic_kernels());
  const lstm::Kernels* avx2 = lstm::avx2_kernels();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 on this CPU";
  check_engine(*avx2);
  EXPECT_EQ(&lstm::kernels(), avx2);
}

}  // namespace
}  // namespace yoso
