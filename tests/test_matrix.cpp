#include "linalg/matrix.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "util/rng.h"

namespace yoso {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(Matrix, FromRowsRaggedThrows) {
  EXPECT_THROW(Matrix::from_rows({{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, MultiplyKnownValues) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplyShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
}

TEST(Matrix, TransposeRoundTrip) {
  Rng rng(3);
  Matrix a(4, 7);
  for (auto& v : a.data()) v = rng.normal();
  const Matrix att = a.transpose().transpose();
  for (std::size_t i = 0; i < a.data().size(); ++i)
    EXPECT_DOUBLE_EQ(a.data()[i], att.data()[i]);
}

TEST(Matrix, MatvecMatchesMultiply) {
  const Matrix a = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  const std::vector<double> x = {1.0, 0.0, -1.0};
  const auto y = a.matvec(x);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(Matrix, MatvecTransposed) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}, {5, 6}});
  const std::vector<double> x = {1.0, 1.0, 1.0};
  const auto y = a.matvec_transposed(x);
  EXPECT_DOUBLE_EQ(y[0], 9.0);
  EXPECT_DOUBLE_EQ(y[1], 12.0);
}

TEST(Matrix, AddDiagonal) {
  Matrix a(2, 2, 1.0);
  a.add_diagonal(3.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 1.0);
}

TEST(Cholesky, FactorisationRoundTrip) {
  // A = L0 L0^T for a known lower-triangular L0.
  const Matrix l0 = Matrix::from_rows({{2, 0, 0}, {1, 3, 0}, {0.5, 1, 1.5}});
  const Matrix a = l0 * l0.transpose();
  Cholesky chol(a);
  const Matrix& l = chol.lower();
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_NEAR(l(r, c), l0(r, c), 1e-9);
}

TEST(Cholesky, SolveRecoversVector) {
  Rng rng(9);
  const std::size_t n = 12;
  Matrix b(n, n);
  for (auto& v : b.data()) v = rng.normal();
  Matrix a = b * b.transpose();
  a.add_diagonal(0.5);
  std::vector<double> x_true(n);
  for (auto& v : x_true) v = rng.normal();
  const auto rhs = a.matvec(x_true);
  Cholesky chol(a);
  const auto x = chol.solve(rhs);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(Cholesky, LogDeterminant) {
  const Matrix a = Matrix::from_rows({{4, 0}, {0, 9}});
  Cholesky chol(a);
  EXPECT_NEAR(chol.log_determinant(), std::log(36.0), 1e-10);
}

TEST(Cholesky, NonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(Cholesky c(a), std::invalid_argument);
}

TEST(Cholesky, IndefiniteMatrixThrows) {
  const Matrix a = Matrix::from_rows({{1, 0}, {0, -5}});
  EXPECT_THROW(Cholesky c(a), std::runtime_error);
}

// The factor reads only the diagonal and the upper triangle: garbage below
// the diagonal gives the symmetric matrix's factor bit for bit, also
// through the jittered retry.
TEST(Cholesky, ReadsOnlyDiagonalAndUpperTriangle) {
  Rng rng(29);
  const std::size_t n = 9;
  Matrix b(n, n);
  for (auto& v : b.data()) v = rng.normal();
  Matrix spd = b * b.transpose();
  spd.add_diagonal(0.5);
  // All ones: the first attempt meets a zero pivot in row 1, so only the
  // jittered retry succeeds.
  const Matrix ones(5, 5, 1.0);
  const auto expect_same = [](const Matrix& x, const Matrix& y) {
    ASSERT_EQ(x.rows(), y.rows());
    for (std::size_t i = 0; i < x.data().size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(x.data()[i]),
                std::bit_cast<std::uint64_t>(y.data()[i]))
          << i;
  };
  const Matrix* const cases[] = {&spd, &ones};
  for (const Matrix* a : cases) {
    ASSERT_TRUE(*a == a->transpose());
    Matrix lower_noise = *a;
    for (std::size_t i = 0; i < a->rows(); ++i)
      for (std::size_t j = 0; j < i; ++j) lower_noise(i, j) = 99.0;
    expect_same(Cholesky(lower_noise).lower(), Cholesky(*a).lower());
  }
  EXPECT_GT(Cholesky(ones).lower()(0, 0), 1.0);  // the jitter was applied
  EXPECT_THROW(Cholesky(Matrix(n, n + 1)), std::invalid_argument);
}

// A default-constructed factor is empty, and release() hands the factor's
// storage over and leaves that same empty factor behind.
TEST(Cholesky, DefaultAndReleasedAreEmpty) {
  const Cholesky none;
  EXPECT_TRUE(none.lower().empty());
  EXPECT_EQ(none.lower().rows(), 0u);
  Cholesky chol(Matrix::from_rows({{4, 2}, {2, 3}}));
  const Matrix factor = chol.lower();
  const auto release = [](Cholesky* c) { return std::move(*c).release(); };
  EXPECT_TRUE(release(&chol) == factor);
  EXPECT_TRUE(chol.lower() == none.lower());
  EXPECT_TRUE(release(&chol).empty());
}

TEST(Cholesky, NearSingularRecoversWithJitter) {
  // Rank-deficient Gram matrix; progressive jitter must succeed.
  const Matrix x = Matrix::from_rows({{1, 1}, {2, 2}, {3, 3}});
  const Matrix a = x.transpose() * x;
  EXPECT_NO_THROW(Cholesky c(a));
}

TEST(RidgeSolve, RecoversLinearModel) {
  Rng rng(21);
  const std::size_t n = 50, d = 4;
  Matrix x(n, d);
  std::vector<double> w_true = {1.0, -2.0, 0.5, 3.0};
  std::vector<double> y(n);
  for (std::size_t r = 0; r < n; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      x(r, c) = rng.normal();
      acc += x(r, c) * w_true[c];
    }
    y[r] = acc;
  }
  const auto w = ridge_solve(x, y, 0.0);
  for (std::size_t c = 0; c < d; ++c) EXPECT_NEAR(w[c], w_true[c], 1e-8);
}

TEST(RidgeSolve, RegularisationShrinks) {
  Rng rng(22);
  Matrix x(30, 2);
  std::vector<double> y(30);
  for (std::size_t r = 0; r < 30; ++r) {
    x(r, 0) = rng.normal();
    x(r, 1) = rng.normal();
    y[r] = 5.0 * x(r, 0);
  }
  const auto w0 = ridge_solve(x, y, 0.0);
  const auto w1 = ridge_solve(x, y, 100.0);
  EXPECT_LT(std::abs(w1[0]), std::abs(w0[0]));
}

TEST(VectorOps, SquaredDistance) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {3.0, -1.0};
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 13.0);
  const std::vector<double> c = {1.0};
  EXPECT_THROW(squared_distance(a, c), std::invalid_argument);
}

}  // namespace
}  // namespace yoso
