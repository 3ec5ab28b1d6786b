#pragma once
// Gaussian-process regression with an RBF kernel (paper Eq. 7-8):
//   y = f(lambda) + eps,  f ~ GP(mu, K),  K(a,b) = s^2 exp(-|a-b|^2/(2 l^2))
// Features are standardized and the target is centred; the lengthscale l,
// signal variance s^2 and noise variance are either fixed or selected from
// a small grid by maximizing the log marginal likelihood.
//
// One model carries one or more targets on one input side: the scaler and
// (inducing) panel are built once, and each target's hyper-parameters,
// weights, factors and mean come out bit-identical to a one-target fit.
// The fitted model is one GpRegressorState, and the regressor holds no
// other copy of it: fit() builds it, predict() reads it, update() folds
// into it, the artifact writer encodes it in place (state()), and
// from_state() moves a decoded one in.
//
// Two backends share the public API:
//
//  * kExact — the paper's O(n^3) GP.  fit computes the pairwise
//    squared-distance matrix once and re-exponentiates its diagonal and
//    upper triangle, all the factor reads, per hyper-parameter grid point
//    into the storage of the last factor that lost, which it factors in
//    place (the winning point's Cholesky/alpha are reused directly, no
//    final refit).
//  * kSparse — a Nystrom / deterministic-training-conditional (DTC)
//    approximation on m inducing points chosen by deterministic
//    farthest-point (k-center) selection over the standardized inputs.
//    fit is O(n m^2); predict is O(m d + m^2) per row instead of
//    O(n d + n^2); and update() folds one new observation into the fitted
//    model in O(m^2) via a rank-1 Cholesky update, with no refit.
//
// Both backends run their hot paths on the shared kernel layer
// (linalg/kernels.h), and prediction stores the (training | inducing) panel
// in the same packed layout, so predict() / predict_batch() /
// predict_means() share one per-row operation chain: batched means are
// bit-identical to per-row calls for either backend.

#include <span>
#include <utility>
#include <vector>

#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "predictor/regressor.h"

namespace yoso {

class ThreadPool;  // util/thread_pool.h

struct GpHyperParams {
  double lengthscale = 4.0;
  double signal_variance = 1.0;
  double noise_variance = 1e-3;
};

/// Which factorisation backs a GpRegressor.
enum class GpBackend {
  kExact,   ///< full n x n kernel matrix, O(n^3) fit
  kSparse,  ///< m inducing points (Nystrom/DTC), O(n m^2) fit, O(m^2) update
};

/// Distance-panel constructions during the last fit(), split by shape so
/// the sparse path's K_nm / K_mm builds are reported distinctly from the
/// exact path's one full matrix.
struct GpDistanceBuilds {
  std::size_t full = 0;      ///< n x n train-vs-train panels (exact fit)
  std::size_t cross = 0;     ///< n x m train-vs-inducing panels (sparse fit)
  std::size_t inducing = 0;  ///< m x m inducing-vs-inducing panels (sparse)
};

/// The fitted model of a GpRegressor, which holds it as this one value:
/// everything the predict/update paths read, nothing derived — the
/// settings and the input side once, then one entry per target.  This is
/// the persistence boundary the binary artifact format (core/artifact.h)
/// serializes: state() hands the live model to the writer, and the loader
/// moves the decoded one into GpRegressor::from_state(), which recomputes
/// the packed kernel panel with the same deterministic code fit() runs, so
/// a round-tripped model predicts bit-identically to the original.
struct GpRegressorState {
  /// What one target owns on top of the shared input side.
  struct Target {
    GpHyperParams hp;           ///< tuned values, not the constructor's
    std::vector<double> alpha;  ///< exact: K^-1 (y - mean); sparse: A^-1 b
    Cholesky chol;              ///< exact: K + nv I; sparse: A
    Cholesky chol_kmm;          ///< sparse only: K_mm; empty for exact
    std::vector<double> b;      ///< sparse only: K_mn (y - mean) + updates
    double y_mean = 0.0;
    double lml = 0.0;
  };

  GpBackend backend = GpBackend::kExact;
  bool tune = true;
  std::size_t inducing_target = 512;
  std::size_t updates_applied = 0;  ///< update() calls since the fit
  Standardizer scaler;              ///< input moments, d each
  Matrix train_x;  ///< standardized training (exact) / inducing (sparse)
  std::vector<std::size_t> inducing_idx;  ///< sparse only, selection order
  std::vector<Target> targets;  ///< in fit()'s target order; empty unfitted
};

class GpRegressor : public Regressor {
 public:
  /// With `tune` true, a small grid search over lengthscale / noise maximises
  /// each target's marginal likelihood during fit().  `inducing_points` caps
  /// the sparse backend's inducing-set size m (clamped to n at fit time) and
  /// is ignored by the exact backend.
  explicit GpRegressor(GpHyperParams hp = {}, bool tune = true,
                       GpBackend backend = GpBackend::kExact,
                       std::size_t inducing_points = 512)
      : hp_(hp) {
    state_.backend = backend;
    state_.tune = tune;
    state_.inducing_target = inducing_points;
  }

  void fit(const Matrix& x, std::span<const double> y) override {
    fit(x, {&y, 1});
  }
  /// Fits one target per entry of `ys` (each x.rows() long) on the shared
  /// inputs `x`.  A fit that throws leaves the model unfitted.  The sparse
  /// backend exponentiates K_nm's panels, forms each K_mn K_nm gram's
  /// blocks and factors each lengthscale's grid points across `pool` (null
  /// runs them inline); the result is bit-identical at any pool size.  The
  /// exact backend runs on the caller.
  void fit(const Matrix& x, std::span<const std::span<const double>> ys,
           ThreadPool* pool = nullptr);

  /// Target 0's mean for one input.
  double predict(std::span<const double> x) const override;
  std::string name() const override {
    return state_.backend == GpBackend::kSparse ? "sparse_gaussian_process"
                                                : "gaussian_process";
  }

  /// Target 0's means for every row of `queries` (raw feature space).
  /// Bit-identical to calling predict() per row.
  std::vector<double> predict_batch(const Matrix& queries) const;

  /// Means of every target over `nq` contiguous raw query rows: one K*
  /// distance panel feeds every target.  mu.size() must equal targets();
  /// mu[t] receives nq means, or is null to skip target t.  Bit-identical
  /// to predict() per row and target.
  void predict_means(const double* x, std::size_t nq,
                     std::span<double* const> mu) const;

  /// Predictive mean and variance of one target for one input.
  std::pair<double, double> predict_with_variance(
      std::span<const double> x, std::size_t target = 0) const;

  /// Folds one new observation (raw feature space, one raw value per
  /// target) into a fitted sparse model in O(m^2) per target: a rank-1
  /// Cholesky update of the information matrix plus one back-substitution.
  /// The inducing set, input scaler and target means stay frozen from
  /// fit().  ContractViolation on the exact backend or before fit().
  void update(std::span<const double> x, std::span<const double> ys);
  void update(std::span<const double> x, double y) { update(x, {&y, 1}); }

  bool fitted() const { return !state_.targets.empty(); }
  std::size_t targets() const { return state_.targets.size(); }  ///< 0 unfitted

  /// True when update() is available: a fitted sparse-backend model.
  bool supports_update() const {
    return state_.backend == GpBackend::kSparse && fitted();
  }

  /// The fitted model itself, every target included, for persistence
  /// (ContractViolation before fit()).
  const GpRegressorState& state() const;

  /// Adopts `state` as the fitted model.  Validates every cross-field
  /// shape (ContractViolation otherwise), then recomputes the packed panel
  /// as fit() would, so the restored model predicts and updates
  /// bit-identically to the original.
  static GpRegressor from_state(GpRegressorState state);

  GpBackend backend() const { return state_.backend; }

  /// update() calls applied since the last fit().
  std::size_t updates_applied() const { return state_.updates_applied; }

  /// Inducing rows actually selected by the last sparse fit (m <= n); the
  /// exact backend reports its full training-set size.
  std::size_t inducing_count() const { return state_.train_x.rows(); }

  /// Training-row indices of the selected inducing points, in selection
  /// order (empty for the exact backend).
  std::span<const std::size_t> inducing_indices() const {
    return state_.inducing_idx;
  }

  /// Log marginal likelihood of one fitted target on its training data
  /// (the sparse backend reports the DTC approximation's likelihood).
  double log_marginal_likelihood(std::size_t t = 0) const {
    return fitted_target(t).lml;
  }
  const GpHyperParams& hyper_params(std::size_t t = 0) const {
    return fitted_target(t).hp;
  }

  /// Total distance-panel constructions during the last fit(), any shape.
  /// The exact path builds exactly one full n x n matrix (the tuning grid
  /// shares it across all 15 grid points); the sparse path builds one
  /// n x m cross panel plus one m x m inducing panel, so this is 1 after an
  /// exact fit and 2 after a sparse fit.  update() builds none — the
  /// breakdown in distance_builds() staying flat across updates is the
  /// no-refit proof tests lean on.
  std::size_t distance_matrix_builds() const {
    return dist_builds_.full + dist_builds_.cross + dist_builds_.inducing;
  }

  /// Per-shape breakdown of the count above.
  const GpDistanceBuilds& distance_builds() const { return dist_builds_; }

  /// Fitted-state access so benches/tests can replicate the scalar
  /// per-candidate baseline against the same fitted model.  For the sparse
  /// backend train_inputs() is the standardized m-row inducing panel.
  const Matrix& train_inputs() const { return state_.train_x; }
  const Standardizer& input_scaler() const { return state_.scaler; }
  std::span<const double> alpha(std::size_t t = 0) const {
    return fitted_target(t).alpha;
  }
  double target_mean(std::size_t t = 0) const {
    return fitted_target(t).y_mean;
  }

 private:
  /// ContractViolation before fit() or for a target out of range.
  const GpRegressorState::Target& fitted_target(std::size_t t) const;
  /// Exact-backend fit body: one distance matrix, then each target's grid.
  std::vector<GpRegressorState::Target> fit_exact(
      const Matrix& x, std::span<const std::span<const double>> ys);
  /// Sparse-backend fit body (gp_sparse.cpp).
  std::vector<GpRegressorState::Target> fit_sparse(
      const Matrix& x, std::span<const std::span<const double>> ys,
      ThreadPool* pool);
  /// Deterministic farthest-point selection over standardized rows; fills
  /// the state's inducing indices and panel, and packed_train_.
  void select_inducing_rows(const Matrix& xs, std::size_t m);
  /// Means of the first mu.size() targets over `nq` contiguous raw rows;
  /// a null mu[t] skips target t.
  void predict_rows(const double* x, std::size_t nq,
                    std::span<double* const> mu) const;

  GpHyperParams hp_;  // every target's hyper-parameters when untuned
  GpRegressorState state_;            // the fitted model
  kernels::PackedRows packed_train_;  // transposed train panel + row norms
  GpDistanceBuilds dist_builds_;
  // update() scratch (standardized query, distance row, kernel row), sized
  // on first use so repeated online refinements allocate nothing.
  std::vector<double> upd_xs_;
  std::vector<double> upd_d2_;
  std::vector<double> upd_k_;
};

}  // namespace yoso
