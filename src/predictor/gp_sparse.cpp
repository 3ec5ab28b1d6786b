// Sparse (Nystrom / DTC) backend of GpRegressor: deterministic
// farthest-point inducing selection, an O(n m^2) fit over the same blocked
// distance + exp kernel layer the exact path uses, and an O(m^2) rank-1
// update path for online refinement.
//
// Model: with m inducing rows Z (a subset of the standardized training
// rows), information matrix A = nv * K_mm + K_mn K_nm and b = K_mn (y -
// mean), the predictive mean is k_m(x)^T A^-1 b — so the fitted state
// stores Z as the training panel and each target's w = A^-1 b as its
// alpha, and every predict path (predict, predict_batch, predict_means)
// runs the exact backend's per-row chain unchanged.  update(x, ys) folds
// one new observation into each target by A += k k^T (rank-1 Cholesky
// update), b += k (y - mean), and one O(m^2) re-solve; the inducing set,
// input scaler and target means stay frozen from fit().

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "base/contract.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "predictor/gp.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace yoso {
namespace {

// Per-lengthscale panels shared by the noise-grid points: the kernel
// matrices depend only on the lengthscale, so the dominant O(n m^2) gram
// product is paid once per lengthscale instead of once per grid point.
struct SparsePanels {
  Matrix kmm;                          // m x m inducing kernel
  Matrix gram;                         // K_mn K_nm
  std::vector<double> b;               // K_mn (y - mean)
  std::unique_ptr<Cholesky> chol_kmm;  // factor of kmm (DTC variance, lml)
  double kmm_logdet = 0.0;
};

// Rows of K_mn K_nm per parallel_for index.  Fixed, so the blocking never
// depends on the pool; a row block of kernels::gemm is bit-identical to the
// same rows of one full call (linalg/kernels.h), so neither does the gram.
constexpr std::size_t kGramBlock = 32;

void build_panels(const GpHyperParams& hp, const Matrix& d_mm,
                  const Matrix& d_nm, std::span<const double> yc,
                  ThreadPool& pool, SparsePanels* p) {
  const std::size_t n = d_nm.rows();
  const std::size_t m = d_mm.rows();
  const double scale = -1.0 / (2.0 * hp.lengthscale * hp.lengthscale);
  p->kmm = Matrix(m, m);
  for (std::size_t i = 0; i < m; ++i)
    kernels::exp_scale(d_mm.data().data() + i * m,
                       p->kmm.data().data() + i * m, m, scale,
                       hp.signal_variance);
  Matrix knm(n, m);
  for (std::size_t i = 0; i < n; ++i)
    kernels::exp_scale(d_nm.data().data() + i * m, knm.data().data() + i * m,
                       m, scale, hp.signal_variance);
  const Matrix kmn = knm.transpose();
  p->gram = Matrix(m, m);
  pool.parallel_for(0, (m + kGramBlock - 1) / kGramBlock, [&](std::size_t i) {
    const std::size_t lo = i * kGramBlock;
    kernels::gemm(kmn.data().data() + lo * n, knm.data().data(),
                  p->gram.data().data() + lo * m,
                  std::min(kGramBlock, m - lo), n, m);
  });
  p->b = knm.matvec_transposed(yc);
  p->chol_kmm = std::make_unique<Cholesky>(p->kmm);
  p->kmm_logdet = p->chol_kmm->log_determinant();
}

// One noise-grid point: factor A = nv * K_mm + gram, solve for the
// weights, and return the DTC log marginal likelihood via the matrix
// determinant lemma:
//   log|Q + nv I| = (n - m) log nv + log|A| - log|K_mm|
//   y^T (Q + nv I)^-1 y = (y^T y - b^T A^-1 b) / nv
double eval_noise_point(const SparsePanels& p, double nv, double y_sq,
                        std::size_t n, std::unique_ptr<Cholesky>* chol_out,
                        std::vector<double>* alpha_out) {
  const std::size_t m = p.kmm.rows();
  Matrix a = p.gram;
  const double* kd = p.kmm.data().data();
  double* ad = a.data().data();
  for (std::size_t i = 0; i < m * m; ++i) ad[i] += nv * kd[i];
  auto chol = std::make_unique<Cholesky>(a);
  std::vector<double> alpha = chol->solve(p.b);
  const double quad = (y_sq - kernels::dot(p.b.data(), alpha.data(), m)) / nv;
  const double logdet_cov = static_cast<double>(n - m) * std::log(nv) +
                            chol->log_determinant() - p.kmm_logdet;
  const double lml = -0.5 * quad - 0.5 * logdet_cov -
                     0.5 * static_cast<double>(n) *
                         std::log(2.0 * std::numbers::pi);
  *chol_out = std::move(chol);
  *alpha_out = std::move(alpha);
  return lml;
}

}  // namespace

void GpRegressor::select_inducing_rows(const Matrix& xs, std::size_t m) {
  YOSO_TRACE_SPAN("gp.sparse_select");
  YOSO_REQUIRE(m >= 1, "GpRegressor: inducing-set size m must be >= 1");
  const std::size_t n = xs.rows();
  const std::size_t d = xs.cols();
  inducing_idx_.clear();
  inducing_idx_.reserve(m);
  if (m >= n) {
    for (std::size_t i = 0; i < n; ++i) inducing_idx_.push_back(i);
  } else {
    // Greedy k-center (farthest-point) over the standardized rows: the
    // seed is the row with the largest squared norm (ties -> lowest
    // index) and every step adds the row farthest from the chosen set.
    // The sweep is serial and depends only on the input rows — never on
    // targets, hyper-parameters or thread count — so it runs once per fit
    // whatever the number of targets.  Each step costs one SIMD 1 x n
    // distance row plus an O(n) min/argmax scan.
    const kernels::PackedRows packed_all =
        kernels::pack_rows(xs.data().data(), n, d);
    std::size_t pick = 0;
    for (std::size_t i = 1; i < n; ++i)
      if (packed_all.norms[i] > packed_all.norms[pick]) pick = i;
    std::vector<double> min_d2(n, std::numeric_limits<double>::infinity());
    std::vector<double> dist_row(n);
    for (std::size_t k = 0; k < m; ++k) {
      inducing_idx_.push_back(pick);
      if (k + 1 == m) break;
      kernels::pairwise_sq_dists(xs.row(pick).data(), 1, packed_all,
                                 dist_row.data());
      std::size_t next = 0;
      double best = -1.0;
      for (std::size_t i = 0; i < n; ++i) {
        min_d2[i] = std::min(min_d2[i], dist_row[i]);
        if (min_d2[i] > best) {
          best = min_d2[i];
          next = i;
        }
      }
      pick = next;
    }
  }
  const std::size_t mm = inducing_idx_.size();
  train_x_ = Matrix(mm, d);
  double* dst = train_x_.data().data();
  for (std::size_t r = 0; r < mm; ++r) {
    const std::span<const double> src = xs.row(inducing_idx_[r]);
    std::copy(src.begin(), src.end(), dst + r * d);
  }
  packed_train_ = kernels::pack_rows(dst, mm, d);
}

std::vector<GpRegressor::Target> GpRegressor::fit_sparse(
    const Matrix& x, std::span<const std::span<const double>> ys,
    ThreadPool* pool) {
  YOSO_TRACE_SPAN("gp.sparse_fit");
  ThreadPool inline_pool(0);
  ThreadPool& gram_pool = pool != nullptr ? *pool : inline_pool;
  const Matrix xs = scaler_.transform(x);
  const std::size_t n = xs.rows();
  const std::size_t m =
      std::min(std::max<std::size_t>(inducing_target_, 1), n);
  select_inducing_rows(xs, m);
  const std::size_t mm = train_x_.rows();

  // Two distance panels per fit (vs the exact path's one full n x n
  // matrix); every target's tuning grid re-exponentiates them per grid
  // point, mirroring the exact flow's build-once discipline.
  Matrix d_nm(n, mm);
  kernels::pairwise_sq_dists(xs.data().data(), n, packed_train_,
                             d_nm.data().data());
  dist_builds_.cross = 1;
  Matrix d_mm(mm, mm);
  kernels::pairwise_sq_dists(train_x_.data().data(), mm, packed_train_,
                             d_mm.data().data());
  dist_builds_.inducing = 1;

  // Same 15-point grid as the exact backend, with the gram/b panels hoisted
  // per lengthscale (the noise term only shifts A's diagonal load).
  const double base_l = std::sqrt(static_cast<double>(x.cols()));
  std::vector<double> yc(n);
  std::vector<Target> fitted;
  fitted.reserve(ys.size());
  for (const std::span<const double> y : ys) {
    Target& t = fitted.emplace_back();
    // Per-target scratch, freed before the next target's grid allocates
    // its own, so the peak is one target's working set.
    SparsePanels panels;
    std::unique_ptr<Cholesky> trial_chol;
    std::vector<double> trial_alpha;
    t.y_mean = mean(y);
    double y_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      yc[i] = y[i] - t.y_mean;
      y_sq += yc[i] * yc[i];
    }
    const double y_var = std::max(y_sq / static_cast<double>(n), 1e-12);
    if (!tune_) {
      t.hp = hp_;
      build_panels(t.hp, d_mm, d_nm, yc, gram_pool, &panels);
      t.lml = eval_noise_point(panels, t.hp.noise_variance, y_sq, n, &t.chol,
                               &t.alpha);
      t.chol_kmm = std::move(panels.chol_kmm);
      t.b = std::move(panels.b);
      continue;
    }
    t.lml = -1e300;
    for (double lf : {0.25, 0.5, 1.0, 2.0, 4.0}) {
      GpHyperParams hp{base_l * lf, y_var, 0.0};
      build_panels(hp, d_mm, d_nm, yc, gram_pool, &panels);
      bool lf_won = false;
      for (double nf : {1e-4, 1e-3, 1e-2}) {
        hp.noise_variance = y_var * nf;
        const double lml = eval_noise_point(panels, hp.noise_variance, y_sq,
                                            n, &trial_chol, &trial_alpha);
        // As in the exact flow, the winning grid point's factorisation IS
        // the fitted state — no redundant refit.
        if (lml > t.lml) {
          t.lml = lml;
          t.hp = hp;
          t.alpha = std::move(trial_alpha);
          t.chol = std::move(trial_chol);
          lf_won = true;
        }
      }
      if (lf_won) {
        t.chol_kmm = std::move(panels.chol_kmm);
        t.b = std::move(panels.b);
      }
    }
    YOSO_REQUIRE(t.chol != nullptr,
                 "GpRegressor::fit: no grid point has a finite likelihood");
  }
  return fitted;
}

void GpRegressor::update(std::span<const double> x,
                         std::span<const double> ys) {
  YOSO_TRACE_SPAN("gp.sparse_update");
  YOSO_REQUIRE(backend_ == GpBackend::kSparse,
               "GpRegressor::update: the exact backend has no incremental "
               "path — construct with GpBackend::kSparse");
  YOSO_REQUIRE(fitted(), "GpRegressor::update: not fitted");
  YOSO_REQUIRE(ys.size() == targets_.size(), "GpRegressor::update: ",
               ys.size(), " values for a ", targets_.size(), "-target model");
  YOSO_REQUIRE(x.size() == train_x_.cols(),
               "GpRegressor::update: feature dimension ", x.size(),
               " != fitted dimension ", train_x_.cols());
  const std::size_t m = train_x_.rows();
  // Scratch is member-owned and sized once, so a refinement stream of
  // updates allocates only inside the O(m^2) solves.
  upd_xs_.resize(train_x_.cols());
  upd_d2_.resize(m);
  upd_k_.resize(m);
  scaler_.transform_row_into(x, upd_xs_.data());
  kernels::pairwise_sq_dists(upd_xs_.data(), 1, packed_train_,
                             upd_d2_.data());
  // Per target: A += k k^T (rank-1, O(m^2)), b += k (y - mean), one
  // re-solve.  No distance panel is rebuilt — distance_builds() stays
  // flat, which is the counter-based no-refit proof the tests assert.
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    Target& t = targets_[i];
    const double l = t.hp.lengthscale;
    kernels::exp_scale(upd_d2_.data(), upd_k_.data(), m, -1.0 / (2.0 * l * l),
                       t.hp.signal_variance);
    t.chol->rank1_update(upd_k_);
    const double r = ys[i] - t.y_mean;
    for (std::size_t j = 0; j < m; ++j) t.b[j] += upd_k_[j] * r;
    t.alpha = t.chol->solve(t.b);
  }
  ++updates_applied_;
  obs::counter_add("gp.sparse_updates", 1);
}

}  // namespace yoso
