#include "predictor/gp.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "base/contract.h"
#include "base/fnv1a.h"
#include "linalg/matrix.h"
#include "obs/trace.h"
#include "predictor/regressor.h"
#include "util/stats.h"

namespace yoso {

double GpRegressor::fit_from_dists(const Matrix& d2,
                                   std::span<const double> yc) {
  const std::size_t n = d2.rows();
  const double l = hp_.lengthscale;
  Matrix k(n, n);
  const double* din = d2.data().data();
  double* kout = k.data().data();
  // K = s^2 exp(-D / (2 l^2)), exponentiated row by row so an element's
  // vector/remainder position depends only on the row length — the same
  // rule the predict path follows.
  for (std::size_t i = 0; i < n; ++i)
    kernels::exp_scale(din + i * n, kout + i * n, n, -1.0 / (2.0 * l * l),
                       hp_.signal_variance);
  k.add_diagonal(hp_.noise_variance);
  chol_ = std::make_unique<Cholesky>(k);
  alpha_ = chol_->solve(yc);
  // log p(y) = -0.5 y^T alpha - 0.5 log|K| - n/2 log(2 pi)
  const double fit_term = kernels::dot(yc.data(), alpha_.data(), n);
  return -0.5 * fit_term - 0.5 * chol_->log_determinant() -
         0.5 * static_cast<double>(n) * std::log(2.0 * std::numbers::pi);
}

void GpRegressor::stamp_train_fingerprint() {
  // FNV-1a over (n, d, first standardized row, last standardized row).
  // Cheap (O(d)) yet strong enough to catch the realistic caller bug —
  // predict_means_pair fed two models fitted on different sample sets.
  const auto bytes = [](auto values) {
    return std::span(reinterpret_cast<const std::uint8_t*>(values.data()),
                     values.size_bytes());
  };
  const std::uint64_t shape[2] = {train_x_.rows(), train_x_.cols()};
  std::uint64_t h = fnv1a64(bytes(std::span(shape)));
  if (train_x_.rows() > 0) {
    h = fnv1a64(bytes(train_x_.row(0)), h);
    h = fnv1a64(bytes(train_x_.row(train_x_.rows() - 1)), h);
  }
  train_fingerprint_ = h;
}

void GpRegressor::fit(const Matrix& x, std::span<const double> y) {
  YOSO_TRACE_SPAN("gp.fit");
  YOSO_REQUIRE(x.rows() == y.size() && x.rows() > 0,
               "GpRegressor::fit: design matrix is ", x.rows(), "x", x.cols(),
               " but y has ", y.size(), " targets");
  dist_builds_ = {};
  updates_applied_ = 0;
  chol_kmm_.reset();
  b_.clear();
  inducing_idx_.clear();
  if (backend_ == GpBackend::kSparse) {
    fit_sparse(x, y);
    stamp_train_fingerprint();
    return;
  }
  scaler_.fit(x);
  train_x_ = scaler_.transform(x);

  y_mean_ = mean(y);
  std::vector<double> yc(y.size());
  double y_var = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    yc[i] = y[i] - y_mean_;
    y_var += yc[i] * yc[i];
  }
  y_var = std::max(y_var / static_cast<double>(y.size()), 1e-12);

  // One distance-matrix build per fit: only the exponentiation depends on
  // the hyper-parameters, so the tuning grid below re-reads this matrix
  // instead of recomputing O(n^2 d) kernel dots per grid point.
  const std::size_t n = train_x_.rows();
  packed_train_ =
      kernels::pack_rows(train_x_.data().data(), n, train_x_.cols());
  Matrix d2(n, n);
  kernels::pairwise_sq_dists(train_x_.data().data(), n, packed_train_,
                             d2.data().data());
  dist_builds_.full = 1;

  if (!tune_) {
    lml_ = fit_from_dists(d2, yc);
    stamp_train_fingerprint();
    return;
  }

  // Grid search: lengthscale scaled to feature dimension, noise relative to
  // target variance.  Signal variance is tied to the target variance.
  const double d = static_cast<double>(x.cols());
  const double base_l = std::sqrt(d);
  GpHyperParams best_hp;
  double best_lml = -1e300;
  std::vector<double> best_alpha;
  std::unique_ptr<Cholesky> best_chol;
  for (double lf : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    for (double nf : {1e-4, 1e-3, 1e-2}) {
      hp_.lengthscale = base_l * lf;
      hp_.signal_variance = y_var;
      hp_.noise_variance = y_var * nf;
      const double lml = fit_from_dists(d2, yc);
      if (lml > best_lml) {
        best_lml = lml;
        best_hp = hp_;
        best_alpha = std::move(alpha_);
        best_chol = std::move(chol_);
      }
    }
  }
  // The winning grid point's factorisation is kept as the fitted state —
  // no redundant refit of the best hyper-parameters.
  hp_ = best_hp;
  alpha_ = std::move(best_alpha);
  chol_ = std::move(best_chol);
  lml_ = best_lml;
  stamp_train_fingerprint();
}

void GpRegressor::predict_rows(const double* x, std::size_t nq, double* mu,
                               double* var) const {
  YOSO_REQUIRE(nq == 0 || (x != nullptr && mu != nullptr),
               "GpRegressor::predict_rows: null input/output");
  const std::size_t n = train_x_.rows();
  const std::size_t dim = train_x_.cols();
  const double l = hp_.lengthscale;
  const double scale = -1.0 / (2.0 * l * l);
  // Queries go through in fixed-size chunks so the K* panel stays cache
  // resident; the chunk size never affects results (each row's chain is
  // self-contained).
  constexpr std::size_t kChunk = 256;
  const std::size_t buf_rows = std::min(kChunk, nq);
  const bool sparse = backend_ == GpBackend::kSparse;
  std::vector<double> xs(buf_rows * dim);
  std::vector<double> kbuf(buf_rows * n);
  // The sparse (DTC) variance needs two triangular solves against an
  // intact kernel row, so it gets a separate solve row; the exact path
  // keeps its in-place solve and allocates nothing extra.
  std::vector<double> vrow((var != nullptr && sparse) ? n : 0);
  for (std::size_t lo = 0; lo < nq; lo += kChunk) {
    const std::size_t cnt = std::min(kChunk, nq - lo);
    // Standardize with the exact per-row arithmetic single predict() uses.
    for (std::size_t r = 0; r < cnt; ++r) {
      scaler_.transform_row_into(
          std::span<const double>(x + (lo + r) * dim, dim),
          xs.data() + r * dim);
    }
    kernels::pairwise_sq_dists(xs.data(), cnt, packed_train_, kbuf.data());
    for (std::size_t r = 0; r < cnt; ++r) {
      double* krow = kbuf.data() + r * n;
      // One fused pass: krow = s^2 exp(scale * d2), mean = krow . alpha.
      mu[lo + r] = y_mean_ + kernels::exp_scale_dot(krow, krow, alpha_.data(),
                                                    n, scale,
                                                    hp_.signal_variance);
      if (var != nullptr && !sparse) {
        // var = k(x,x) - k*^T K^-1 k*; the solve overwrites krow in place
        // (safe: forward substitution consumes krow[i] before writing it),
        // which keeps the hot per-row loop allocation-free.
        chol_->solve_lower_into(std::span<const double>(krow, n), krow);
        const double reduce = kernels::dot(krow, krow, n);
        var[lo + r] = std::max(
            0.0, hp_.signal_variance + hp_.noise_variance - reduce);
      } else if (var != nullptr) {
        // DTC predictive variance:
        //   k** + nv - k^T K_mm^-1 k + nv * k^T A^-1 k
        // Both quadratic forms come from forward solves into the scratch
        // row (krow itself must stay intact between them).
        chol_kmm_->solve_lower_into(std::span<const double>(krow, n),
                                    vrow.data());
        const double prior_drop = kernels::dot(vrow.data(), vrow.data(), n);
        chol_->solve_lower_into(std::span<const double>(krow, n), vrow.data());
        const double info_gain = kernels::dot(vrow.data(), vrow.data(), n);
        var[lo + r] = std::max(
            0.0, hp_.signal_variance + hp_.noise_variance - prior_drop +
                     hp_.noise_variance * info_gain);
      }
    }
  }
}

double GpRegressor::predict(std::span<const double> x) const {
  YOSO_REQUIRE(!alpha_.empty(), "GpRegressor::predict: not fitted");
  YOSO_REQUIRE(x.size() == train_x_.cols(),
               "GpRegressor::predict: feature dimension ", x.size(),
               " != fitted dimension ", train_x_.cols());
  double mu = 0.0;
  predict_rows(x.data(), 1, &mu, nullptr);
  return mu;
}

std::vector<double> GpRegressor::predict_batch(const Matrix& queries) const {
  YOSO_TRACE_SPAN("gp.predict_batch");
  obs::counter_add("gp.predict_rows", queries.rows());
  YOSO_REQUIRE(!alpha_.empty(), "GpRegressor::predict_batch: not fitted");
  YOSO_REQUIRE(queries.cols() == train_x_.cols(),
               "GpRegressor::predict_batch: feature dimension ",
               queries.cols(), " != fitted dimension ", train_x_.cols());
  std::vector<double> mu(queries.rows());
  if (!mu.empty())
    predict_rows(queries.data().data(), queries.rows(), mu.data(), nullptr);
  return mu;
}

void GpRegressor::predict_means_pair(const GpRegressor& a,
                                     const GpRegressor& b, const double* x,
                                     std::size_t nq, double* mu_a,
                                     double* mu_b) {
  YOSO_REQUIRE(!a.alpha_.empty() && !b.alpha_.empty(),
               "GpRegressor::predict_means_pair: not fitted");
  YOSO_REQUIRE(a.train_x_.rows() == b.train_x_.rows() &&
                   a.train_x_.cols() == b.train_x_.cols(),
               "GpRegressor::predict_means_pair: models were fitted on "
               "different training sets (", a.train_x_.rows(), "x",
               a.train_x_.cols(), " vs ", b.train_x_.rows(), "x",
               b.train_x_.cols(), ")");
  // The shared-panel trick is only sound when both models standardize to
  // the *same* training rows; the fingerprint (n, d, first/last row bytes)
  // catches same-shape-different-data callers that the REQUIRE above
  // cannot.
  YOSO_DCHECK(a.train_fingerprint_ == b.train_fingerprint_,
              "GpRegressor::predict_means_pair: training-set fingerprint "
              "mismatch — the models were fitted on different inputs");
  if (nq == 0) return;
  YOSO_REQUIRE(x != nullptr && mu_a != nullptr && mu_b != nullptr,
               "GpRegressor::predict_means_pair: null input/output");
  obs::counter_add("gp.predict_rows", 2 * nq);
  const std::size_t n = a.train_x_.rows();
  const std::size_t dim = a.train_x_.cols();
  const double scale_a =
      -1.0 / (2.0 * a.hp_.lengthscale * a.hp_.lengthscale);
  const double scale_b =
      -1.0 / (2.0 * b.hp_.lengthscale * b.hp_.lengthscale);
  constexpr std::size_t kChunk = 256;
  const std::size_t buf_rows = std::min(kChunk, nq);
  std::vector<double> xs(buf_rows * dim);
  std::vector<double> d2(buf_rows * n);  // shared K* distance panel
  std::vector<double> erow(n);            // per-row exp scratch
  for (std::size_t lo = 0; lo < nq; lo += kChunk) {
    const std::size_t cnt = std::min(kChunk, nq - lo);
    // Standardize once with model a's scaler; identical training inputs
    // imply bitwise-identical scaler state, so this matches what model b's
    // own predict path would compute.
    for (std::size_t r = 0; r < cnt; ++r) {
      a.scaler_.transform_row_into(
          std::span<const double>(x + (lo + r) * dim, dim),
          xs.data() + r * dim);
    }
    kernels::pairwise_sq_dists(xs.data(), cnt, a.packed_train_, d2.data());
    for (std::size_t r = 0; r < cnt; ++r) {
      const double* drow = d2.data() + r * n;
      // The distance row is read-only here (exp output goes to the scratch
      // row), so the second model reuses it untouched.
      mu_a[lo + r] = a.y_mean_ + kernels::exp_scale_dot(
                                     drow, erow.data(), a.alpha_.data(), n,
                                     scale_a, a.hp_.signal_variance);
      mu_b[lo + r] = b.y_mean_ + kernels::exp_scale_dot(
                                     drow, erow.data(), b.alpha_.data(), n,
                                     scale_b, b.hp_.signal_variance);
    }
  }
}

std::pair<double, double> GpRegressor::predict_with_variance(
    std::span<const double> x) const {
  YOSO_REQUIRE(!alpha_.empty(),
               "GpRegressor::predict_with_variance: not fitted");
  YOSO_REQUIRE(x.size() == train_x_.cols(),
               "GpRegressor::predict_with_variance: feature dimension ",
               x.size(), " != fitted dimension ", train_x_.cols());
  double mu = 0.0;
  double var = 0.0;
  predict_rows(x.data(), 1, &mu, &var);
  return {mu, var};
}

GpRegressorState GpRegressor::export_state() const {
  YOSO_REQUIRE(!alpha_.empty(), "GpRegressor::export_state: not fitted");
  GpRegressorState s;
  s.backend = backend_;
  s.tune = tune_;
  s.inducing_target = inducing_target_;
  s.hp = hp_;
  s.scaler_mean.assign(scaler_.mean().begin(), scaler_.mean().end());
  s.scaler_std.assign(scaler_.stddev().begin(), scaler_.stddev().end());
  s.train_x = train_x_;
  s.alpha = alpha_;
  s.chol_lower = chol_->lower();
  if (chol_kmm_ != nullptr) s.chol_kmm_lower = chol_kmm_->lower();
  s.b = b_;
  s.inducing_idx = inducing_idx_;
  s.y_mean = y_mean_;
  s.lml = lml_;
  s.updates_applied = updates_applied_;
  return s;
}

GpRegressor GpRegressor::from_state(const GpRegressorState& state) {
  const std::size_t n = state.train_x.rows();
  const std::size_t d = state.train_x.cols();
  YOSO_REQUIRE(state.backend == GpBackend::kExact ||
                   state.backend == GpBackend::kSparse,
               "GpRegressor::from_state: unknown backend tag");
  YOSO_REQUIRE(n > 0 && d > 0,
               "GpRegressor::from_state: empty training panel (", n, "x", d,
               ")");
  YOSO_REQUIRE(state.scaler_mean.size() == d && state.scaler_std.size() == d,
               "GpRegressor::from_state: scaler width ",
               state.scaler_mean.size(), "/", state.scaler_std.size(),
               " != panel width ", d);
  YOSO_REQUIRE(state.alpha.size() == n, "GpRegressor::from_state: alpha has ",
               state.alpha.size(), " entries for an ", n, "-row panel");
  YOSO_REQUIRE(state.chol_lower.rows() == n && state.chol_lower.cols() == n,
               "GpRegressor::from_state: Cholesky factor is ",
               state.chol_lower.rows(), "x", state.chol_lower.cols(),
               " for an ", n, "-row panel");
  YOSO_REQUIRE(state.hp.lengthscale > 0.0 && state.hp.signal_variance > 0.0,
               "GpRegressor::from_state: non-positive hyper-parameters");
  if (state.backend == GpBackend::kSparse) {
    YOSO_REQUIRE(state.chol_kmm_lower.rows() == n &&
                     state.chol_kmm_lower.cols() == n,
                 "GpRegressor::from_state: sparse K_mm factor is ",
                 state.chol_kmm_lower.rows(), "x",
                 state.chol_kmm_lower.cols(), " for m = ", n);
    YOSO_REQUIRE(state.b.size() == n,
                 "GpRegressor::from_state: sparse b has ", state.b.size(),
                 " entries for m = ", n);
    YOSO_REQUIRE(state.inducing_idx.size() == n,
                 "GpRegressor::from_state: ", state.inducing_idx.size(),
                 " inducing indices for m = ", n);
  } else {
    YOSO_REQUIRE(state.chol_kmm_lower.empty() && state.b.empty() &&
                     state.inducing_idx.empty(),
                 "GpRegressor::from_state: exact backend carries a sparse "
                 "tail");
  }

  GpRegressor gp(state.hp, state.tune, state.backend, state.inducing_target);
  gp.scaler_ = Standardizer::from_moments(state.scaler_mean, state.scaler_std);
  gp.train_x_ = state.train_x;
  gp.packed_train_ =
      kernels::pack_rows(gp.train_x_.data().data(), n, d);
  gp.alpha_ = state.alpha;
  gp.chol_ = std::make_unique<Cholesky>(Cholesky::from_lower(state.chol_lower));
  if (state.backend == GpBackend::kSparse) {
    gp.chol_kmm_ = std::make_unique<Cholesky>(
        Cholesky::from_lower(state.chol_kmm_lower));
    gp.b_ = state.b;
    gp.inducing_idx_ = state.inducing_idx;
  }
  gp.y_mean_ = state.y_mean;
  gp.lml_ = state.lml;
  gp.updates_applied_ = state.updates_applied;
  gp.stamp_train_fingerprint();
  return gp;
}

}  // namespace yoso
