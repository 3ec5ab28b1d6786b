#pragma once
// Gaussian-process regression with an RBF kernel (paper Eq. 7-8):
//   y = f(lambda) + eps,  f ~ GP(mu, K),  K(a,b) = s^2 exp(-|a-b|^2/(2 l^2))
// Features are standardized and the target is centred; the lengthscale l,
// signal variance s^2 and noise variance are either fixed or selected from
// a small grid by maximizing the log marginal likelihood.
//
// Two backends share the public API:
//
//  * kExact — the paper's O(n^3) GP.  fit computes the pairwise
//    squared-distance matrix once and re-exponentiates it per
//    hyper-parameter grid point (the winning point's Cholesky/alpha are
//    reused directly, no final refit).
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
// predict_means_pair() share one per-row operation chain: batched means are
// bit-identical to per-row calls for either backend.

#include <cstdint>
#include <memory>
#include <utility>

#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "predictor/regressor.h"

namespace yoso {

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

/// The complete fitted state of a GpRegressor, as plain matrices/vectors —
/// everything the predict/update paths read, nothing derived.  This is the
/// persistence boundary the binary artifact format (core/artifact.h)
/// serializes: export_state() -> save, load -> GpRegressor::from_state().
/// Derived structures (the packed kernel panel, the training fingerprint)
/// are deliberately absent — from_state() recomputes them with the same
/// deterministic code fit() runs, so a round-tripped model predicts
/// bit-identically to the original.
struct GpRegressorState {
  GpBackend backend = GpBackend::kExact;
  bool tune = true;
  std::size_t inducing_target = 512;
  GpHyperParams hp;                 ///< tuned values, not the constructor's
  std::vector<double> scaler_mean;  ///< input scaler moments, d each
  std::vector<double> scaler_std;
  Matrix train_x;     ///< standardized training (exact) / inducing (sparse)
  std::vector<double> alpha;
  Matrix chol_lower;      ///< exact: chol(K + nv I); sparse: chol(A)
  Matrix chol_kmm_lower;  ///< sparse only: chol(K_mm); empty for exact
  std::vector<double> b;  ///< sparse only: K_mn (y - mean) + updates
  std::vector<std::size_t> inducing_idx;  ///< sparse only, selection order
  double y_mean = 0.0;
  double lml = 0.0;
  std::size_t updates_applied = 0;
};

class GpRegressor : public Regressor {
 public:
  /// With `tune` true, a small grid search over lengthscale / noise maximises
  /// the marginal likelihood during fit().  `inducing_points` caps the
  /// sparse backend's inducing-set size m (clamped to n at fit time) and is
  /// ignored by the exact backend.
  explicit GpRegressor(GpHyperParams hp = {}, bool tune = true,
                       GpBackend backend = GpBackend::kExact,
                       std::size_t inducing_points = 512)
      : hp_(hp), tune_(tune), backend_(backend),
        inducing_target_(inducing_points) {}

  void fit(const Matrix& x, std::span<const double> y) override;
  double predict(std::span<const double> x) const override;
  std::string name() const override {
    return backend_ == GpBackend::kSparse ? "sparse_gaussian_process"
                                          : "gaussian_process";
  }

  /// Predictive means for every row of `queries` (raw feature space).
  /// Bit-identical to calling predict() per row.
  std::vector<double> predict_batch(const Matrix& queries) const;

  /// Fused means for two models fitted on the *same* training inputs (the
  /// performance predictor's energy/latency pair): the query rows are
  /// standardized once and one K* squared-distance panel feeds both models'
  /// kernel chains, so the shared O(n·d) work is paid once instead of
  /// twice.  Each output is bit-identical to the corresponding
  /// predict_batch() call.  The shape check is always
  /// on; debug builds additionally YOSO_DCHECK a training-set fingerprint
  /// (n, d, first/last standardized-row hash) so fitting the models on
  /// different inputs trips a ContractViolation instead of silently
  /// reusing the wrong distance panel.
  static void predict_means_pair(const GpRegressor& a, const GpRegressor& b,
                                 const double* x, std::size_t nq,
                                 double* mu_a, double* mu_b);

  /// Predictive mean and variance for one input.
  std::pair<double, double> predict_with_variance(
      std::span<const double> x) const;

  /// Folds one new observation (raw feature space, raw target) into a
  /// fitted sparse model in O(m^2): a rank-1 Cholesky update of the
  /// information matrix plus one back-substitution.  The inducing set,
  /// input scaler and target mean stay frozen from fit(), so the training
  /// fingerprint — and predict_means_pair validity for a model pair updated
  /// in lockstep — is preserved.  ContractViolation on the exact backend
  /// (which has no incremental path) or before fit().
  void update(std::span<const double> x, double y);

  /// True when update() is available: a fitted sparse-backend model.
  bool supports_update() const {
    return backend_ == GpBackend::kSparse && !alpha_.empty();
  }

  /// Copies the fitted state out for persistence (ContractViolation before
  /// fit()).  The copy is deep; later update() calls on this model leave
  /// the exported state untouched.
  GpRegressorState export_state() const;

  /// Rebuilds a fitted model from exported (or artifact-loaded) state.
  /// Validates every cross-field shape contract (scaler width vs panel
  /// width, alpha length, factor squareness, the sparse-only tail) with
  /// ContractViolation on mismatch, then recomputes the packed kernel panel
  /// and training fingerprint exactly as fit() would — predict(),
  /// predict_batch(), predict_means_pair() and update() on the restored
  /// model are bit-identical to the original.
  static GpRegressor from_state(const GpRegressorState& state);

  GpBackend backend() const { return backend_; }

  /// Rank-1 updates applied since the last fit().
  std::size_t updates_applied() const { return updates_applied_; }

  /// Inducing rows actually selected by the last sparse fit (m <= n); the
  /// exact backend reports its full training-set size.
  std::size_t inducing_count() const { return train_x_.rows(); }

  /// Training-row indices of the selected inducing points, in selection
  /// order (empty for the exact backend).
  std::span<const std::size_t> inducing_indices() const {
    return inducing_idx_;
  }

  /// Log marginal likelihood of the fitted model on its training data (the
  /// sparse backend reports the DTC approximation's likelihood).
  double log_marginal_likelihood() const { return lml_; }

  const GpHyperParams& hyper_params() const { return hp_; }

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

  /// Fingerprint of the fitted training panel (n, d, first/last
  /// standardized-row bytes) backing predict_means_pair's caller contract.
  std::uint64_t training_fingerprint() const { return train_fingerprint_; }

  /// Fitted-state access so benches/tests can replicate the scalar
  /// per-candidate baseline against the same fitted model.  For the sparse
  /// backend train_inputs() is the standardized m-row inducing panel.
  const Matrix& train_inputs() const { return train_x_; }
  std::span<const double> alpha() const { return alpha_; }
  const Standardizer& input_scaler() const { return scaler_; }
  double target_mean() const { return y_mean_; }

 private:
  double fit_from_dists(const Matrix& d2, std::span<const double> yc);
  /// Sparse-backend fit body (gp_sparse.cpp).
  void fit_sparse(const Matrix& x, std::span<const double> y);
  /// Deterministic farthest-point selection over standardized rows; fills
  /// inducing_idx_ and the train_x_ / packed_train_ inducing panel.
  void select_inducing_rows(const Matrix& xs, std::size_t m);
  /// Recomputes train_fingerprint_ from the fitted panel.
  void stamp_train_fingerprint();
  /// Shared mean(/variance) path over `nq` contiguous raw query rows;
  /// `var` may be null for mean-only prediction.
  void predict_rows(const double* x, std::size_t nq, double* mu,
                    double* var) const;

  GpHyperParams hp_;
  bool tune_;
  GpBackend backend_ = GpBackend::kExact;
  std::size_t inducing_target_ = 512;
  Standardizer scaler_;
  Matrix train_x_;                    // standardized (inducing rows if sparse)
  kernels::PackedRows packed_train_;  // transposed train panel + row norms
  std::vector<double> alpha_;         // exact: K^-1 (y - mean); sparse: A^-1 b
  std::unique_ptr<Cholesky> chol_;    // exact: K + nv I; sparse: A
  std::unique_ptr<Cholesky> chol_kmm_;  // sparse only: K_mm (DTC variance)
  std::vector<double> b_;             // sparse only: K_mn (y - mean)
  std::vector<std::size_t> inducing_idx_;
  double y_mean_ = 0.0;
  double lml_ = 0.0;
  GpDistanceBuilds dist_builds_;
  std::size_t updates_applied_ = 0;
  std::uint64_t train_fingerprint_ = 0;
  // update() scratch (standardized query + kernel row), sized on first use
  // so repeated online refinements allocate nothing.
  std::vector<double> upd_xs_;
  std::vector<double> upd_k_;
};

}  // namespace yoso
