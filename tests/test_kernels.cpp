// The shared blocked/SIMD kernel layer (linalg/kernels.h): correctness
// against naive references on randomized shapes — including sizes that are
// not multiples of any register-tile width — plus the determinism contract
// (sub-range calls identical to full-range calls).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/fnv1a.h"
#include "linalg/kernels.h"
#include "util/rng.h"

namespace yoso {
namespace {

std::vector<double> random_vec(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

std::vector<float> random_vecf(Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  return v;
}

std::vector<double> naive_gemm(const std::vector<double>& a,
                               const std::vector<double>& b, std::size_t m,
                               std::size_t k, std::size_t n) {
  std::vector<double> c(m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t t = 0; t < k; ++t)
      for (std::size_t j = 0; j < n; ++j)
        c[i * n + j] += a[i * k + t] * b[t * n + j];
  return c;
}

TEST(KernelsTest, ActiveIsaIsKnown) {
  const std::string isa = kernels::active_isa();
  EXPECT_TRUE(isa == "avx2+fma" || isa == "generic") << isa;
}

TEST(KernelsTest, DotMatchesNaive) {
  Rng rng(7);
  for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 15u, 16u, 17u, 64u, 301u}) {
    const auto a = random_vec(rng, n);
    const auto b = random_vec(rng, n);
    double ref = 0.0;
    for (std::size_t i = 0; i < n; ++i) ref += a[i] * b[i];
    EXPECT_NEAR(kernels::dot(a.data(), b.data(), n), ref,
                1e-12 * (1.0 + std::abs(ref)))
        << "n=" << n;
  }
}

TEST(KernelsTest, GemmMatchesNaiveOnRandomShapes) {
  Rng rng(11);
  // Shapes straddle the 2x16 double tile: odd rows, non-multiple columns.
  const std::size_t shapes[][3] = {{1, 1, 1},   {2, 3, 5},   {7, 22, 17},
                                   {8, 4, 16},  {9, 13, 33}, {16, 1, 31},
                                   {5, 40, 64}, {13, 7, 3}};
  for (const auto& s : shapes) {
    const std::size_t m = s[0], k = s[1], n = s[2];
    const auto a = random_vec(rng, m * k);
    const auto b = random_vec(rng, k * n);
    std::vector<double> c(m * n, -1.0);
    kernels::gemm(a.data(), b.data(), c.data(), m, k, n);
    const auto ref = naive_gemm(a, b, m, k, n);
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_NEAR(c[i], ref[i], 1e-11 * (1.0 + std::abs(ref[i])))
          << m << "x" << k << "x" << n << " @" << i;
  }
}

TEST(KernelsTest, GemvMatchesGemm) {
  Rng rng(13);
  const std::size_t m = 9, n = 23;
  const auto a = random_vec(rng, m * n);
  const auto x = random_vec(rng, n);
  std::vector<double> y(m, 0.0);
  kernels::gemv(a.data(), x.data(), y.data(), m, n);
  for (std::size_t i = 0; i < m; ++i)
    EXPECT_DOUBLE_EQ(y[i], kernels::dot(a.data() + i * n, x.data(), n));
}

TEST(KernelsTest, SgemmAbMatchesNaive) {
  Rng rng(17);
  const std::size_t shapes[][3] = {
      {1, 1, 1}, {2, 5, 32}, {7, 9, 33}, {5, 64, 31}, {9, 3, 100}, {4, 2, 8}};
  for (const auto& s : shapes) {
    const std::size_t m = s[0], k = s[1], n = s[2];
    const auto a = random_vecf(rng, m * k);
    const auto b = random_vecf(rng, k * n);
    std::vector<float> c(m * n, -1.0f);
    kernels::sgemm_ab(a.data(), b.data(), c.data(), m, k, n);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        float ref = 0.0f;
        for (std::size_t t = 0; t < k; ++t)
          ref += a[i * k + t] * b[t * n + j];
        ASSERT_NEAR(c[i * n + j], ref, 1e-4f * (1.0f + std::abs(ref)))
            << m << "x" << k << "x" << n;
      }
  }
}

TEST(KernelsTest, SgemmAbtMatchesNaive) {
  Rng rng(19);
  const std::size_t shapes[][3] = {
      {1, 1, 1}, {3, 7, 5}, {9, 33, 22}, {8, 32, 64}, {13, 5, 41}};
  for (const auto& s : shapes) {
    const std::size_t m = s[0], n = s[1], k = s[2];
    const auto a = random_vecf(rng, m * k);
    const auto b = random_vecf(rng, n * k);
    std::vector<float> c(m * n, -1.0f);
    kernels::sgemm_abt(a.data(), b.data(), c.data(), m, n, k);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        float ref = 0.0f;
        for (std::size_t t = 0; t < k; ++t)
          ref += a[i * k + t] * b[j * k + t];
        ASSERT_NEAR(c[i * n + j], ref, 1e-4f * (1.0f + std::abs(ref)))
            << m << "x" << n << "x" << k;
      }
  }
}

// Each element of C continues from its value in C and adds a * b for i
// ascending: one fma per step on avx2+fma, a multiply then an add on the
// generic engine.  m = 140 and 260 span several 128-row passes.
TEST(KernelsTest, SgemmAtbAccAccumulatesOnTopOfC) {
  const bool fused = kernels::active_isa() == "avx2+fma";
  Rng rng(23);
  const std::size_t shapes[][3] = {
      {1, 1, 1}, {5, 3, 9}, {140, 6, 33}, {17, 40, 32}, {260, 9, 7}};
  for (const auto& s : shapes) {
    const std::size_t m = s[0], k = s[1], n = s[2];
    const auto a = random_vecf(rng, m * k);
    const auto b = random_vecf(rng, m * n);
    std::vector<float> c = random_vecf(rng, k * n);
    const std::vector<float> c0 = c;
    kernels::sgemm_atb_acc(a.data(), b.data(), c.data(), m, k, n);
    for (std::size_t t = 0; t < k; ++t)
      for (std::size_t j = 0; j < n; ++j) {
        float ref = c0[t * n + j];
        for (std::size_t i = 0; i < m; ++i) {
          const float av = a[i * k + t];
          const float bv = b[i * n + j];
          if (fused) {
            ref = std::fma(av, bv, ref);
          } else {
            const float prod = av * bv;
            ref += prod;
          }
        }
        ASSERT_EQ(std::bit_cast<std::uint32_t>(c[t * n + j]),
                  std::bit_cast<std::uint32_t>(ref))
            << m << "x" << k << "x" << n << " @" << t << "," << j;
      }
  }
}

TEST(KernelsTest, PairwiseSqDistsMatchesNaiveAndClampsAtZero) {
  Rng rng(29);
  for (const std::size_t n : {1u, 5u, 16u, 17u, 33u, 100u}) {
    const std::size_t q = 7, d = 22;
    const auto train = random_vec(rng, n * d);
    const auto queries = random_vec(rng, q * d);
    const kernels::PackedRows packed = kernels::pack_rows(train.data(), n, d);
    std::vector<double> out(q * n, -1.0);
    kernels::pairwise_sq_dists(queries.data(), q, packed, out.data());
    for (std::size_t i = 0; i < q; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        double ref = 0.0;
        for (std::size_t c = 0; c < d; ++c) {
          const double diff = queries[i * d + c] - train[j * d + c];
          ref += diff * diff;
        }
        ASSERT_NEAR(out[i * n + j], ref, 1e-10 * (1.0 + ref))
            << "n=" << n << " (" << i << "," << j << ")";
        ASSERT_GE(out[i * n + j], 0.0);
      }
  }
  // Identical rows: the norm expansion can go slightly negative in exact
  // arithmetic order; the fused epilogue must clamp at zero.
  const std::size_t d = 9;
  const auto row = random_vec(rng, d);
  const kernels::PackedRows self = kernels::pack_rows(row.data(), 1, d);
  double out = -1.0;
  kernels::pairwise_sq_dists(row.data(), 1, self, &out);
  EXPECT_GE(out, 0.0);
  EXPECT_NEAR(out, 0.0, 1e-12);
}

TEST(KernelsTest, ExpScaleMatchesStdExp) {
  Rng rng(31);
  for (const std::size_t n : {1u, 3u, 4u, 7u, 64u, 1001u}) {
    std::vector<double> in(n);
    for (double& v : in) v = rng.uniform(0.0, 50.0);
    std::vector<double> out(n, -1.0);
    const double scale = -0.37, mult = 1.7;
    kernels::exp_scale(in.data(), out.data(), n, scale, mult);
    for (std::size_t i = 0; i < n; ++i) {
      const double ref = mult * std::exp(scale * in[i]);
      ASSERT_NEAR(out[i], ref, 1e-14 * std::abs(ref) + 1e-300) << "n=" << n;
    }
  }
  // In-place aliasing is part of the contract.
  std::vector<double> buf = {0.0, 1.0, 2.0, 3.0, 4.0};
  kernels::exp_scale(buf.data(), buf.data(), buf.size(), -1.0, 1.0);
  for (std::size_t i = 0; i < buf.size(); ++i)
    EXPECT_NEAR(buf[i], std::exp(-static_cast<double>(i)), 1e-15);
}

TEST(KernelsTest, ExpScaleDotFusesExpAndDot) {
  Rng rng(53);
  // Sizes straddle both the 16-wide interleave and the 4-wide/scalar tails.
  for (const std::size_t n : {1u, 3u, 4u, 15u, 16u, 17u, 31u, 64u, 1000u}) {
    std::vector<double> in(n), w(n);
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = rng.uniform(0.0, 40.0);
      w[i] = rng.uniform(-1.0, 1.0);
    }
    const double scale = -0.21, mult = 2.3;
    std::vector<double> ref(n);
    kernels::exp_scale(in.data(), ref.data(), n, scale, mult);
    std::vector<double> out(n, -1.0);
    const double sum =
        kernels::exp_scale_dot(in.data(), out.data(), w.data(), n, scale,
                               mult);
    double expect = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      // Element values are bit-identical to the unfused kernel.
      ASSERT_EQ(out[i], ref[i]) << "n=" << n << " i=" << i;
      expect += ref[i] * w[i];
    }
    ASSERT_NEAR(sum, expect, 1e-12 * (1.0 + std::abs(expect))) << "n=" << n;
    // Repeated calls reduce in the same order — exactly reproducible.
    std::vector<double> out2(n);
    ASSERT_EQ(sum, kernels::exp_scale_dot(in.data(), out2.data(), w.data(),
                                          n, scale, mult));
    // In-place aliasing (the GP predict path) gives the same results.
    std::vector<double> buf = in;
    ASSERT_EQ(sum, kernels::exp_scale_dot(buf.data(), buf.data(), w.data(),
                                          n, scale, mult));
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(buf[i], ref[i]);
  }
}

TEST(KernelsTest, ExpScaleExtremeArgumentsStayFinite) {
  const std::vector<double> in = {0.0, 1.0, 800.0, 5000.0};
  std::vector<double> out(in.size());
  kernels::exp_scale(in.data(), out.data(), in.size(), -1.0, 1.0);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  for (const double v : out) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
  }
  EXPECT_GT(out[1], out[2]);
  // Positive overflow direction is clamped to the largest-representable
  // range rather than producing inf from the exponent-field construction.
  kernels::exp_scale(in.data(), out.data(), in.size(), 1.0, 1.0);
  for (const double v : out) EXPECT_TRUE(std::isfinite(v));
}

/// The raw bytes of every element of `v`, in order.
template <typename T>
std::span<const std::uint8_t> bytes_of(const std::vector<T>& v) {
  return {reinterpret_cast<const std::uint8_t*>(v.data()),
          v.size() * sizeof(T)};
}

// Golden pin of the register tiles: an FNV-1a-64 over the output bits of
// the distance and GEMM kernels on shapes that reach every row group (4, 2
// and 1 query rows for pairwise_sq_dists, 2 and 1 rows for the GEMMs) and
// every column stage (the full tile, the one-vector tail and the scalar
// tail).  A change to any tile's per-element operation chain moves the
// constant.  Like GoldenTest, it holds only on the engine it was computed
// on.
TEST(KernelsTest, GoldenTileChecksum) {
  if (kernels::active_isa() != "avx2+fma")
    GTEST_SKIP() << "pin was computed on the avx2+fma engine, this process "
                    "runs "
                 << kernels::active_isa();
  Rng rng(61);
  // Starts from fnv1a64's own offset basis: the constant was computed with
  // FNV's published 0xcbf29ce484222325, so it also pins that basis.
  std::uint64_t h = fnv1a64({});
  // 7 query rows = one 4-row, one 2-row and one 1-row group; n = 31 and 45
  // leave a full tile, one-vector tails and a scalar tail in every group.
  for (const std::size_t d : {1u, 5u, 22u})
    for (const std::size_t n : {3u, 4u, 31u, 45u}) {
      const std::size_t q = 7;
      const auto train = random_vec(rng, n * d);
      const auto queries = random_vec(rng, q * d);
      const kernels::PackedRows packed =
          kernels::pack_rows(train.data(), n, d);
      std::vector<double> out(q * n);
      kernels::pairwise_sq_dists(queries.data(), q, packed, out.data());
      h = fnv1a64(bytes_of(out), h);
    }
  // 3 rows = one 2-row and one 1-row group.  Doubles tile 16 columns with
  // a 4-wide tail, floats 32 with an 8-wide tail.
  for (const std::size_t k : {1u, 7u, 22u})
    for (const std::size_t n : {3u, 23u, 45u}) {
      const std::size_t m = 3;
      const auto a = random_vec(rng, m * k);
      const auto b = random_vec(rng, k * n);
      std::vector<double> c(m * n);
      kernels::gemm(a.data(), b.data(), c.data(), m, k, n);
      h = fnv1a64(bytes_of(c), h);
      const auto af = random_vecf(rng, m * k);
      const auto bf = random_vecf(rng, k * n);
      std::vector<float> cf(m * n);
      kernels::sgemm_ab(af.data(), bf.data(), cf.data(), m, k, n);
      h = fnv1a64(bytes_of(cf), h);
      kernels::sgemm_abt(af.data(), bf.data(), cf.data(), m, n, k);
      h = fnv1a64(bytes_of(cf), h);
    }
  EXPECT_EQ(h, 0x9663d622ff5f9dc1ull);
}

// The sparse GP's gram (predictor/gp_sparse.cpp): A (n x m) stored as
// 32-wide column panels, its lower blocks from gram_panels, each mirrored.
// Every element must equal gemm(transpose(A), A) bit for bit, so the
// assembled gram is that product exactly and exactly symmetric.  m covers
// one partial panel, a full one, a full and a partial, one-vector and
// scalar column tails; n = 300 spans several L1 passes, the last partial.
TEST(KernelsTest, GramPanelsMatchGemmOfTransposeBitForBit) {
  constexpr std::size_t kPanel = 32;
  Rng rng(83);
  for (const std::size_t m : {1u, 3u, 5u, 17u, 37u, 64u})
    for (const std::size_t n : {1u, 7u, 300u}) {
      SCOPED_TRACE("m " + std::to_string(m) + ", n " + std::to_string(n));
      const auto a = random_vec(rng, n * m);
      std::vector<double> at(m * n);
      for (std::size_t t = 0; t < n; ++t)
        for (std::size_t c = 0; c < m; ++c) at[c * n + t] = a[t * m + c];
      std::vector<double> ref(m * m);
      kernels::gemm(at.data(), a.data(), ref.data(), m, n, m);
      const std::size_t panels = (m + kPanel - 1) / kPanel;
      const auto width = [&](std::size_t q) {
        return std::min(kPanel, m - q * kPanel);
      };
      std::vector<double> packed(n * m);
      for (std::size_t q = 0; q < panels; ++q)
        for (std::size_t t = 0; t < n; ++t)
          for (std::size_t c = 0; c < width(q); ++c)
            packed[q * kPanel * n + t * width(q) + c] =
                a[t * m + q * kPanel + c];
      std::vector<double> gram(m * m, -1.0);
      for (std::size_t bi = 0; bi < panels; ++bi)
        for (std::size_t bj = 0; bj <= bi; ++bj) {
          const std::size_t ilo = bi * kPanel, jlo = bj * kPanel;
          kernels::gram_panels(packed.data() + ilo * n, width(bi),
                               packed.data() + jlo * n, width(bj), n,
                               gram.data() + ilo * m + jlo, m);
          for (std::size_t r = 0; bi != bj && r < width(bi); ++r)
            for (std::size_t c = 0; c < width(bj); ++c)
              gram[(jlo + c) * m + ilo + r] = gram[(ilo + r) * m + jlo + c];
        }
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < m; ++j) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(gram[i * m + j]),
                    std::bit_cast<std::uint64_t>(ref[i * m + j]))
              << "(" << i << ", " << j << ")";
          ASSERT_EQ(std::bit_cast<std::uint64_t>(gram[i * m + j]),
                    std::bit_cast<std::uint64_t>(gram[j * m + i]))
              << "(" << i << ", " << j << ")";
        }
    }
}

// gp_sparse.cpp exponentiates each K_nm row in 32-wide panel slices, and
// the exact fit exponentiates row i of K from column i on: the slices, and
// a tail starting at any offset, must equal one exp_scale over the whole
// row, element for element.  Offsets that are not multiples of 4 move
// elements between the avx2 engine's 4-wide body and its scalar remainder.
TEST(KernelsTest, ExpScaleInPanelSlicesMatchesWholeRow) {
  constexpr std::size_t kPanel = 32;
  Rng rng(89);
  for (const std::size_t m : {1u, 3u, 5u, 9u, 37u, 64u, 70u, 500u}) {
    std::vector<double> row(m);
    for (double& v : row) v = rng.uniform(0.0, 30.0);
    std::vector<double> whole(m), sliced(m);
    kernels::exp_scale(row.data(), whole.data(), m, -0.29, 1.3);
    for (std::size_t lo = 0; lo < m; lo += kPanel)
      kernels::exp_scale(row.data() + lo, sliced.data() + lo,
                         std::min(kPanel, m - lo), -0.29, 1.3);
    for (std::size_t i = 0; i < m; ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(sliced[i]),
                std::bit_cast<std::uint64_t>(whole[i]))
          << "m " << m << " @" << i;
    for (std::size_t lo = 0; lo < m; ++lo) {
      std::vector<double> tail(m - lo);
      kernels::exp_scale(row.data() + lo, tail.data(), m - lo, -0.29, 1.3);
      for (std::size_t i = lo; i < m; ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(tail[i - lo]),
                  std::bit_cast<std::uint64_t>(whole[i]))
            << "m " << m << " from " << lo << " @" << i;
    }
  }
}

// A row computed as part of a larger batch must be bit-identical to the
// same row computed alone — the property that keeps GpRegressor::predict()
// equal to predict_batch() rows.
TEST(KernelsTest, SubRangeRowsMatchFullRange) {
  Rng rng(47);
  const std::size_t q = 9, n = 37, d = 22;
  const auto train = random_vec(rng, n * d);
  const auto queries = random_vec(rng, q * d);
  const kernels::PackedRows packed = kernels::pack_rows(train.data(), n, d);
  std::vector<double> full(q * n, 0.0);
  kernels::pairwise_sq_dists(queries.data(), q, packed, full.data());
  for (std::size_t i = 0; i < q; ++i) {
    std::vector<double> one(n, -1.0);
    kernels::pairwise_sq_dists(queries.data() + i * d, 1, packed, one.data());
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_EQ(one[j], full[i * n + j]) << "row " << i << " col " << j;
  }
}

}  // namespace
}  // namespace yoso
