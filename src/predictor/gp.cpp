#include "predictor/gp.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "base/contract.h"
#include "linalg/matrix.h"
#include "obs/trace.h"
#include "predictor/regressor.h"
#include "util/stats.h"

namespace yoso {
namespace {

// One exact grid point: writes the diagonal and upper triangle of
// K + nv I into `k` (n x n storage, recycled from a factor no grid point
// kept), factors it in place and solves for the weights; returns the log
// marginal likelihood.  The factor reads only those elements, and d2 is
// exactly symmetric, so they are the whole of K.
double fit_from_dists(const Matrix& d2, std::span<const double> yc,
                      const GpHyperParams& hp, Matrix k, Cholesky* chol_out,
                      std::vector<double>* alpha_out) {
  const std::size_t n = d2.rows();
  const double l = hp.lengthscale;
  const double* din = d2.data().data();
  double* kout = k.data().data();
  // K = s^2 exp(-D / (2 l^2)), row i from column i on.  An element's value
  // does not depend on where its slice starts
  // (KernelsTest.ExpScaleInPanelSlicesMatchesWholeRow).
  for (std::size_t i = 0; i < n; ++i)
    kernels::exp_scale(din + i * n + i, kout + i * n + i, n - i,
                       -1.0 / (2.0 * l * l), hp.signal_variance);
  k.add_diagonal(hp.noise_variance);
  *chol_out = Cholesky(std::move(k));
  *alpha_out = chol_out->solve(yc);
  // log p(y) = -0.5 y^T alpha - 0.5 log|K| - n/2 log(2 pi)
  const double fit_term = kernels::dot(yc.data(), alpha_out->data(), n);
  return -0.5 * fit_term - 0.5 * chol_out->log_determinant() -
         0.5 * static_cast<double>(n) * std::log(2.0 * std::numbers::pi);
}

// The cross-field shapes.  Each factor and the scaler checked their own
// values where they were built (Cholesky::from_lower,
// Standardizer::from_moments).
void require_valid_state(const GpRegressorState& state) {
  const std::size_t n = state.train_x.rows();
  const std::size_t d = state.train_x.cols();
  const bool sparse = state.backend == GpBackend::kSparse;
  YOSO_REQUIRE(sparse || state.backend == GpBackend::kExact,
               "GpRegressor::from_state: unknown backend tag");
  YOSO_REQUIRE(n > 0 && d > 0,
               "GpRegressor::from_state: empty training panel (", n, "x", d,
               ")");
  YOSO_REQUIRE(state.scaler.mean().size() == d,
               "GpRegressor::from_state: scaler width ",
               state.scaler.mean().size(), " != panel width ", d);
  YOSO_REQUIRE(state.inducing_idx.size() == (sparse ? n : 0),
               "GpRegressor::from_state: ", state.inducing_idx.size(),
               " inducing indices for an ", n, "-row ",
               sparse ? "sparse" : "exact", " panel");
  YOSO_REQUIRE(!state.targets.empty(), "GpRegressor::from_state: no targets");
  for (const GpRegressorState::Target& t : state.targets) {
    YOSO_REQUIRE(t.alpha.size() == n, "GpRegressor::from_state: alpha has ",
                 t.alpha.size(), " entries for an ", n, "-row panel");
    YOSO_REQUIRE(t.chol.lower().rows() == n,
                 "GpRegressor::from_state: Cholesky factor is ",
                 t.chol.lower().rows(), "x", t.chol.lower().cols(),
                 " for an ", n, "-row panel");
    YOSO_REQUIRE(t.hp.lengthscale > 0.0 && t.hp.signal_variance > 0.0,
                 "GpRegressor::from_state: non-positive hyper-parameters");
    if (sparse) {
      YOSO_REQUIRE(t.chol_kmm.lower().rows() == n,
                   "GpRegressor::from_state: sparse K_mm factor is ",
                   t.chol_kmm.lower().rows(), "x", t.chol_kmm.lower().cols(),
                   " for m = ", n);
      YOSO_REQUIRE(t.b.size() == n, "GpRegressor::from_state: sparse b has ",
                   t.b.size(), " entries for m = ", n);
    } else {
      YOSO_REQUIRE(t.chol_kmm.lower().empty() && t.b.empty(),
                   "GpRegressor::from_state: exact backend carries a sparse "
                   "tail");
    }
  }
}

}  // namespace

const GpRegressorState::Target& GpRegressor::fitted_target(
    std::size_t t) const {
  YOSO_REQUIRE(t < targets(), "GpRegressor: no target ", t,
               " in a model with ", targets(), " fitted targets");
  return state_.targets[t];
}

void GpRegressor::fit(const Matrix& x,
                      std::span<const std::span<const double>> ys,
                      ThreadPool* pool) {
  YOSO_TRACE_SPAN("gp.fit");
  YOSO_REQUIRE(!ys.empty(), "GpRegressor::fit: no targets");
  for (const std::span<const double> y : ys)
    YOSO_REQUIRE(x.rows() == y.size() && x.rows() > 0,
                 "GpRegressor::fit: design matrix is ", x.rows(), "x",
                 x.cols(), " but y has ", y.size(), " targets");
  state_.targets.clear();
  dist_builds_ = {};
  state_.updates_applied = 0;
  state_.inducing_idx.clear();
  state_.scaler.fit(x);
  state_.targets = state_.backend == GpBackend::kSparse
                       ? fit_sparse(x, ys, pool)
                       : fit_exact(x, ys);
}

std::vector<GpRegressorState::Target> GpRegressor::fit_exact(
    const Matrix& x, std::span<const std::span<const double>> ys) {
  state_.train_x = state_.scaler.transform(x);
  const Matrix& xs = state_.train_x;
  const bool tune = state_.tune;
  // One distance-matrix build per fit: only the exponentiation depends on
  // the hyper-parameters, so every target's tuning grid re-reads this
  // matrix instead of recomputing O(n^2 d) kernel dots per grid point.
  const std::size_t n = xs.rows();
  packed_train_ = kernels::pack_rows(xs.data().data(), n, xs.cols());
  Matrix d2(n, n);
  kernels::pairwise_sq_dists(xs.data().data(), n, packed_train_,
                             d2.data().data());
  dist_builds_.full = 1;

  // Grid search: lengthscale scaled to feature dimension, noise relative to
  // target variance.  Signal variance is tied to the target variance.  An
  // untuned model is the one grid point hp_.
  const double base_l = std::sqrt(static_cast<double>(x.cols()));
  std::vector<double> yc(n);
  std::vector<GpRegressorState::Target> fitted;
  fitted.reserve(ys.size());
  // Each grid point factors its kernel matrix in the storage of the last
  // factor that lost, so the live set is d2, this spare (or the trial
  // factor), the best factor so far and the previous targets' winners.
  Matrix spare;
  Cholesky trial;
  std::vector<double> trial_alpha;
  for (const std::span<const double> y : ys) {
    GpRegressorState::Target& t = fitted.emplace_back();
    t.y_mean = mean(y);
    double y_var = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      yc[i] = y[i] - t.y_mean;
      y_var += yc[i] * yc[i];
    }
    y_var = std::max(y_var / static_cast<double>(n), 1e-12);
    const double sv = tune ? y_var : hp_.signal_variance;
    const double grid_l[] = {base_l * 0.25, base_l * 0.5, base_l * 1.0,
                             base_l * 2.0, base_l * 4.0};
    const double grid_nv[] = {y_var * 1e-4, y_var * 1e-3, y_var * 1e-2};
    const std::span<const double> lengthscales =
        tune ? std::span<const double>(grid_l)
             : std::span<const double>(&hp_.lengthscale, 1);
    const std::span<const double> nvs =
        tune ? std::span<const double>(grid_nv)
             : std::span<const double>(&hp_.noise_variance, 1);
    t.lml = -1e300;
    for (const double l : lengthscales) {
      for (const double nv : nvs) {
        const GpHyperParams hp{l, sv, nv};
        if (spare.empty()) spare = Matrix(n, n);
        const double lml =
            fit_from_dists(d2, yc, hp, std::move(spare), &trial, &trial_alpha);
        // The winning grid point's factorisation is kept as the fitted
        // state — no redundant refit of the best hyper-parameters.  An
        // untuned model keeps its one point whatever its likelihood.
        if (!tune || lml > t.lml) {
          t.lml = lml;
          t.hp = hp;
          t.alpha = std::move(trial_alpha);
          std::swap(t.chol, trial);
        }
        spare = std::move(trial).release();  // the loser's storage
      }
    }
    YOSO_REQUIRE(!t.chol.lower().empty(),
                 "GpRegressor::fit: no grid point has a finite likelihood");
  }
  return fitted;
}

void GpRegressor::predict_rows(const double* x, std::size_t nq,
                               std::span<double* const> mu) const {
  YOSO_REQUIRE(nq == 0 || x != nullptr,
               "GpRegressor::predict_rows: null input");
  const std::size_t n = state_.train_x.rows();
  const std::size_t dim = state_.train_x.cols();
  // Queries go through in fixed-size chunks so the K* panel stays cache
  // resident; the chunk size never affects results (each row's chain is
  // self-contained).
  constexpr std::size_t kChunk = 256;
  const std::size_t buf_rows = std::min(kChunk, nq);
  std::vector<double> xs(buf_rows * dim);
  std::vector<double> d2(buf_rows * n);  // K* distance panel, every target's
  std::vector<double> erow(n);            // per-row exp scratch
  for (std::size_t lo = 0; lo < nq; lo += kChunk) {
    const std::size_t cnt = std::min(kChunk, nq - lo);
    // Standardize with the exact per-row arithmetic single predict() uses.
    for (std::size_t r = 0; r < cnt; ++r) {
      state_.scaler.transform_row_into(
          std::span<const double>(x + (lo + r) * dim, dim),
          xs.data() + r * dim);
    }
    kernels::pairwise_sq_dists(xs.data(), cnt, packed_train_, d2.data());
    for (std::size_t r = 0; r < cnt; ++r) {
      const double* drow = d2.data() + r * n;
      for (std::size_t t = 0; t < mu.size(); ++t) {
        if (mu[t] == nullptr) continue;
        const GpRegressorState::Target& tg = state_.targets[t];
        const double l = tg.hp.lengthscale;
        // One fused pass: erow = s^2 exp(scale * d2), mean = erow . alpha.
        // The distance row stays intact for the next target.
        mu[t][lo + r] =
            tg.y_mean + kernels::exp_scale_dot(drow, erow.data(),
                                               tg.alpha.data(), n,
                                               -1.0 / (2.0 * l * l),
                                               tg.hp.signal_variance);
      }
    }
  }
}

double GpRegressor::predict(std::span<const double> x) const {
  YOSO_REQUIRE(fitted(), "GpRegressor::predict: not fitted");
  YOSO_REQUIRE(x.size() == state_.train_x.cols(),
               "GpRegressor::predict: feature dimension ", x.size(),
               " != fitted dimension ", state_.train_x.cols());
  double mu = 0.0;
  double* out = &mu;
  predict_rows(x.data(), 1, {&out, 1});
  return mu;
}

std::vector<double> GpRegressor::predict_batch(const Matrix& queries) const {
  YOSO_TRACE_SPAN("gp.predict_batch");
  obs::counter_add("gp.predict_rows", queries.rows());
  YOSO_REQUIRE(fitted(), "GpRegressor::predict_batch: not fitted");
  YOSO_REQUIRE(queries.cols() == state_.train_x.cols(),
               "GpRegressor::predict_batch: feature dimension ",
               queries.cols(), " != fitted dimension ",
               state_.train_x.cols());
  std::vector<double> mu(queries.rows());
  double* out = mu.data();
  predict_rows(queries.data().data(), queries.rows(), {&out, 1});
  return mu;
}

void GpRegressor::predict_means(const double* x, std::size_t nq,
                                std::span<double* const> mu) const {
  YOSO_REQUIRE(fitted(), "GpRegressor::predict_means: not fitted");
  YOSO_REQUIRE(mu.size() == targets(), "GpRegressor::predict_means: ",
               mu.size(), " outputs for a ", targets(), "-target model");
  const auto wanted = static_cast<std::size_t>(std::count_if(
      mu.begin(), mu.end(), [](const double* p) { return p != nullptr; }));
  obs::counter_add("gp.predict_rows", wanted * nq);
  predict_rows(x, nq, mu);
}

std::pair<double, double> GpRegressor::predict_with_variance(
    std::span<const double> x, std::size_t target) const {
  const GpRegressorState::Target& t = fitted_target(target);
  YOSO_REQUIRE(x.size() == state_.train_x.cols(),
               "GpRegressor::predict_with_variance: feature dimension ",
               x.size(), " != fitted dimension ", state_.train_x.cols());
  const std::size_t n = state_.train_x.rows();
  const GpHyperParams& hp = t.hp;
  std::vector<double> xs(x.size());
  std::vector<double> krow(n);
  state_.scaler.transform_row_into(x, xs.data());
  kernels::pairwise_sq_dists(xs.data(), 1, packed_train_, krow.data());
  // krow = s^2 exp(scale * d2) in place, mean = krow . alpha.
  const double mu =
      t.y_mean + kernels::exp_scale_dot(
                     krow.data(), krow.data(), t.alpha.data(), n,
                     -1.0 / (2.0 * hp.lengthscale * hp.lengthscale),
                     hp.signal_variance);
  if (state_.backend == GpBackend::kExact) {
    // var = k(x,x) - k*^T K^-1 k*; the solve overwrites krow in place
    // (safe: forward substitution consumes krow[i] before writing it).
    t.chol.solve_lower_into(krow, krow.data());
    const double reduce = kernels::dot(krow.data(), krow.data(), n);
    return {mu, std::max(0.0, hp.signal_variance + hp.noise_variance -
                                  reduce)};
  }
  // DTC predictive variance:
  //   k** + nv - k^T K_mm^-1 k + nv * k^T A^-1 k
  // Both quadratic forms come from forward solves into a scratch row
  // (krow itself must stay intact between them).
  std::vector<double> vrow(n);
  t.chol_kmm.solve_lower_into(krow, vrow.data());
  const double prior_drop = kernels::dot(vrow.data(), vrow.data(), n);
  t.chol.solve_lower_into(krow, vrow.data());
  const double info_gain = kernels::dot(vrow.data(), vrow.data(), n);
  return {mu, std::max(0.0, hp.signal_variance + hp.noise_variance -
                                prior_drop + hp.noise_variance * info_gain)};
}

const GpRegressorState& GpRegressor::state() const {
  YOSO_REQUIRE(fitted(), "GpRegressor::state: not fitted");
  return state_;
}

GpRegressor GpRegressor::from_state(GpRegressorState state) {
  require_valid_state(state);
  GpRegressor gp(state.targets.front().hp);
  gp.state_ = std::move(state);
  const Matrix& z = gp.state_.train_x;
  gp.packed_train_ = kernels::pack_rows(z.data().data(), z.rows(), z.cols());
  return gp;
}

}  // namespace yoso
