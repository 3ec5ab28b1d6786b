#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "linalg/kernels.h"
#include "base/contract.h"

namespace yoso {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  YOSO_REQUIRE(cols_ == 0 ? data_.empty()
                          : data_.size() % cols_ == 0 &&
                                data_.size() / cols_ == rows_,
               "Matrix: ", data_.size(), " elements for a ", rows_, "x",
               cols_, " matrix");
}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix{};
  const std::size_t cols = rows.front().size();
  Matrix m(rows.size(), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    YOSO_REQUIRE(rows[r].size() == cols, "Matrix::from_rows: row ", r,
                 " has ", rows[r].size(), " columns, expected ", cols);
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  YOSO_REQUIRE(cols_ == rhs.rows_, "Matrix::operator*: ", rows_, "x", cols_,
               " * ", rhs.rows_, "x", rhs.cols_);
  Matrix out(rows_, rhs.cols_);
  kernels::gemm(data_.data(), rhs.data_.data(), out.data_.data(), rows_,
                cols_, rhs.cols_);
  return out;
}

std::vector<double> Matrix::matvec(std::span<const double> x) const {
  YOSO_REQUIRE(x.size() == cols_, "Matrix::matvec: x has ", x.size(),
               " entries, matrix is ", rows_, "x", cols_);
  std::vector<double> y(rows_, 0.0);
  kernels::gemv(data_.data(), x.data(), y.data(), rows_, cols_);
  return y;
}

std::vector<double> Matrix::matvec_transposed(std::span<const double> x) const {
  YOSO_REQUIRE(x.size() == rows_, "Matrix::matvec_transposed: x has ",
               x.size(), " entries, matrix is ", rows_, "x", cols_);
  std::vector<double> y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    const double* row_ptr = &data_[r * cols_];
    for (std::size_t c = 0; c < cols_; ++c) y[c] += row_ptr[c] * xr;
  }
  return y;
}

void Matrix::add_diagonal(double v) {
  const std::size_t n = std::min(rows_, cols_);
  for (std::size_t i = 0; i < n; ++i) (*this)(i, i) += v;
}

Cholesky::Cholesky(Matrix a, double jitter) : l_(std::move(a)) {
  YOSO_REQUIRE(l_.rows() == l_.cols(), "Cholesky: matrix not square (",
               l_.rows(), "x", l_.cols(), ")");
  const std::size_t n = l_.rows();
  double* ld = l_.data().data();
  // The factor overwrites the input's lower triangle, so the loop reads
  // element (i, j), j < i, from the upper triangle, which it never writes,
  // and the diagonal from this copy, so a jittered retry starts from the
  // input again.
  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = ld[i * n + i];
  // Progressive jitter: retry with 10x larger diagonal boost on failure.
  double eps = 0.0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    bool ok = true;
    for (std::size_t i = 0; i < n && ok; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        double sum = (i == j ? diag[i] : ld[j * n + i]) + (i == j ? eps : 0.0);
        sum -= kernels::dot(ld + i * n, ld + j * n, j);
        if (i == j) {
          if (sum <= 0.0) {
            ok = false;
            break;
          }
          ld[i * n + i] = std::sqrt(sum);
        } else {
          ld[i * n + j] = sum / ld[j * n + j];
        }
      }
    }
    if (ok) {
      for (std::size_t i = 0; i < n; ++i)
        std::fill(ld + i * n + i + 1, ld + (i + 1) * n, 0.0);
      return;
    }
    eps = (eps == 0.0) ? jitter : eps * 10.0;
  }
  throw std::runtime_error("Cholesky: matrix not positive definite");
}

Cholesky Cholesky::from_lower(Matrix lower) {
  YOSO_REQUIRE(!lower.empty() && lower.rows() == lower.cols(),
               "Cholesky::from_lower: factor must be square and non-empty, "
               "got ", lower.rows(), "x", lower.cols());
  for (std::size_t i = 0; i < lower.rows(); ++i)
    YOSO_REQUIRE(lower(i, i) > 0.0,
                 "Cholesky::from_lower: non-positive diagonal at row ", i);
  Cholesky c;
  c.l_ = std::move(lower);
  return c;
}

std::vector<double> Cholesky::solve_lower(std::span<const double> b) const {
  std::vector<double> y(l_.rows());
  solve_lower_into(b, y.data());
  return y;
}

void Cholesky::solve_lower_into(std::span<const double> b,
                                double* out) const {
  const std::size_t n = l_.rows();
  YOSO_REQUIRE(b.size() == n, "Cholesky::solve_lower_into: b has ", b.size(),
               " entries, factor is ", n, "x", n);
  YOSO_REQUIRE(out != nullptr, "Cholesky::solve_lower_into: null output");
  const double* ld = l_.data().data();
  for (std::size_t i = 0; i < n; ++i) {
    const double sum = b[i] - kernels::dot(ld + i * n, out, i);
    out[i] = sum / l_(i, i);
  }
}

std::vector<double> Cholesky::solve_lower_transposed(
    std::span<const double> y) const {
  const std::size_t n = l_.rows();
  YOSO_REQUIRE(y.size() == n, "Cholesky::solve_lower_transposed: y has ",
               y.size(), " entries, factor is ", n, "x", n);
  std::vector<double> x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double sum = y[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= l_(k, i) * x[k];
    x[i] = sum / l_(i, i);
  }
  return x;
}

std::vector<double> Cholesky::solve(std::span<const double> b) const {
  return solve_lower_transposed(solve_lower(b));
}

double Cholesky::log_determinant() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < l_.rows(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

void Cholesky::rank1_update(std::span<const double> v) {
  const std::size_t n = l_.rows();
  YOSO_REQUIRE(v.size() == n, "Cholesky::rank1_update: v has ", v.size(),
               " entries, factor is ", n, "x", n);
  std::vector<double> w(v.begin(), v.end());
  double* ld = l_.data().data();
  for (std::size_t j = 0; j < n; ++j) {
    const double ljj = ld[j * n + j];
    const double r = std::hypot(ljj, w[j]);
    const double c = r / ljj;
    const double s = w[j] / ljj;
    ld[j * n + j] = r;
    for (std::size_t i = j + 1; i < n; ++i) {
      double lij = ld[i * n + j];
      lij = (lij + s * w[i]) / c;
      ld[i * n + j] = lij;
      w[i] = c * w[i] - s * lij;
    }
  }
}

std::vector<double> ridge_solve(const Matrix& x, std::span<const double> y,
                                double lambda) {
  YOSO_REQUIRE(x.rows() == y.size(), "ridge_solve: x has ", x.rows(),
               " rows but y has ", y.size(), " targets");
  Matrix xtx = x.transpose() * x;
  xtx.add_diagonal(lambda);
  const std::vector<double> xty = x.matvec_transposed(y);
  // lambda == 0 may be singular; Cholesky's progressive jitter handles
  // near-singular gram matrices gracefully.  X^T X is exactly symmetric
  // (each element's products commute), so the factor reads its upper
  // triangle in place.
  return Cholesky(std::move(xtx)).solve(xty);
}

double squared_distance(std::span<const double> a, std::span<const double> b) {
  YOSO_REQUIRE(a.size() == b.size(), "squared_distance: sizes ", a.size(),
               " vs ", b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

}  // namespace yoso
