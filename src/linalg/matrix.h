#pragma once
// Minimal dense linear algebra: just enough for exact Gaussian-process
// regression (kernel matrices, Cholesky factorisation/solve) and the ridge /
// least-squares baselines of the Fig-4 predictor comparison.

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace yoso {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Adopts `data` (rows * cols elements, row-major) as the storage.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  /// Builds a matrix from nested initialiser data; all rows must match.
  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Raw storage access (row-major).
  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }
  /// View of one row.
  std::span<const double> row(std::size_t r) const {
    return std::span<const double>(data_).subspan(r * cols_, cols_);
  }

  bool operator==(const Matrix&) const = default;

  Matrix transpose() const;
  Matrix operator*(const Matrix& rhs) const;

  /// Matrix-vector product.
  std::vector<double> matvec(std::span<const double> x) const;
  /// Transposed matrix-vector product (A^T x).
  std::vector<double> matvec_transposed(std::span<const double> x) const;

  /// Adds `v` to every diagonal element (jitter / noise term).
  void add_diagonal(double v);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Cholesky factorisation A = L L^T of a symmetric positive-definite matrix.
/// Throws std::runtime_error if A is not positive definite (after exhausting
/// a small progressive jitter).  A default-constructed object is the empty
/// factor, which is also what release() leaves behind.
class Cholesky {
 public:
  Cholesky() = default;

  /// Factors `a` in its own storage, which becomes the factor, so a caller
  /// can allocate the storage on one thread and factor on another, or
  /// recycle a released factor's.  Reads only the diagonal and the upper
  /// triangle of `a`.
  explicit Cholesky(Matrix a, double jitter = 1e-10);

  /// Rebuilds a factorisation object from a previously computed lower
  /// factor (e.g. one round-tripped through the binary artifact format,
  /// core/artifact.h).  No refactorisation happens: `lower` is adopted
  /// verbatim, so solves against the restored object are bit-identical to
  /// solves against the original.  Throws ContractViolation when `lower`
  /// is empty, non-square, or has a non-positive diagonal entry.
  static Cholesky from_lower(Matrix lower);

  const Matrix& lower() const { return l_; }

  /// Gives up the factor's storage, e.g. to factor the next matrix in
  /// place; the object is left empty.
  Matrix release() && { return std::exchange(l_, Matrix{}); }

  /// Solves A x = b via the factorisation.
  std::vector<double> solve(std::span<const double> b) const;

  /// Allocation-free forward substitution L y = b: writes n values to
  /// `out`.  In-place safe (`out` may alias `b.data()`): b[i] is consumed
  /// before y[i] is written and the dot product only reads y[0..i).
  void solve_lower_into(std::span<const double> b, double* out) const;

  /// log |A| = 2 * sum_i log L_ii, used for GP marginal likelihood.
  double log_determinant() const;

  /// Rewrites the factor in place so it factors A + v v^T.  O(n^2) via the
  /// classic hyperbolic-rotation sweep; `v` is copied to a function-scope
  /// workspace and left untouched.  The sweep is a fixed serial loop, so the
  /// result is bit-identical regardless of thread count or call site.
  void rank1_update(std::span<const double> v);

 private:
  /// Solves L y = b (forward substitution).
  std::vector<double> solve_lower(std::span<const double> b) const;
  /// Solves L^T x = y (backward substitution).
  std::vector<double> solve_lower_transposed(std::span<const double> y) const;

  Matrix l_;
};

/// Solves the regularised normal equations (X^T X + lambda I) w = X^T y.
/// lambda = 0 gives ordinary least squares (requires full column rank).
std::vector<double> ridge_solve(const Matrix& x, std::span<const double> y,
                                double lambda);

double squared_distance(std::span<const double> a, std::span<const double> b);

}  // namespace yoso
