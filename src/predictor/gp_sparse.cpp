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
#include <span>
#include <utility>
#include <vector>

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

// Per-lengthscale panels shared by the noise-grid points, and their
// factors: the kernel matrices depend only on the lengthscale, so the
// dominant O(n m^2) gram product is paid once per lengthscale instead of
// once per grid point.
struct SparsePanels {
  Matrix kmm;              // m x m inducing kernel
  std::vector<double> knm; // K_nm in kGramBlock-wide column panels
  Matrix gram;             // K_mn K_nm
  std::vector<double> b;   // K_mn (y - mean)
  std::vector<Matrix> spare;  // storage of factors no grid point kept
  // factors[0] factors K_mm and moves to chol_kmm; factors[k + 1] factors
  // A = nv * K_mm + gram for the k-th noise value.
  std::vector<Cholesky> factors;
  Cholesky chol_kmm;  // factor of kmm (DTC variance, lml)
  double kmm_logdet = 0.0;
};

// Width of K_nm's column panels and edge of the gram's blocks.  Fixed, so
// the blocking never depends on the pool, and each gram element runs
// kernels::gemm's chain whatever its block (linalg/kernels.h).
constexpr std::size_t kGramBlock = 32;

// K_mm; K_nm written once, panel-major (panel q holds columns [q P,
// q P + w) as an n x w row-major block at offset q P n, P = kGramBlock);
// b from the panels; and the gram's lower blocks, one parallel_for index
// per block pair, each mirrored into the upper triangle by its own task.
// Every parallel_for index writes its own panel or block pair, so the
// bits do not depend on the pool.
void build_panels(const GpHyperParams& hp, const Matrix& d_mm,
                  const Matrix& d_nm, std::span<const double> yc,
                  ThreadPool& pool, SparsePanels* p) {
  YOSO_TRACE_SPAN("gp.sparse_panels");
  const std::size_t n = d_nm.rows();
  const std::size_t m = d_mm.rows();
  const std::size_t panels = (m + kGramBlock - 1) / kGramBlock;
  const auto width = [&](std::size_t q) {
    return std::min(kGramBlock, m - q * kGramBlock);
  };
  const double scale = -1.0 / (2.0 * hp.lengthscale * hp.lengthscale);
  // Every element of kmm, knm, b and gram is rewritten below, so the
  // buffers carry over from the previous lengthscale and target.
  if (p->kmm.rows() != m) p->kmm = Matrix(m, m);
  for (std::size_t i = 0; i < m; ++i)
    kernels::exp_scale(d_mm.data().data() + i * m,
                       p->kmm.data().data() + i * m, m, scale,
                       hp.signal_variance);
  // One panel per parallel_for index.  exp_scale's vector body and scalar
  // remainder run one operation sequence, so a row exponentiated in panel
  // slices keeps its bits.
  p->knm.resize(n * m);
  double* knm = p->knm.data();
  pool.parallel_for(0, panels, [&](std::size_t q) {
    const std::size_t lo = q * kGramBlock;
    const std::size_t w = width(q);
    for (std::size_t t = 0; t < n; ++t)
      kernels::exp_scale(d_nm.data().data() + t * m + lo,
                         knm + lo * n + t * w, w, scale, hp.signal_variance);
  });
  // b = K_mn (y - mean) in Matrix::matvec_transposed's order: each element
  // sums rows ascending and skips a zero weight.
  p->b.assign(m, 0.0);
  for (std::size_t t = 0; t < n; ++t) {
    const double yt = yc[t];
    if (yt == 0.0) continue;
    for (std::size_t q = 0; q < panels; ++q) {
      const std::size_t lo = q * kGramBlock;
      const std::size_t w = width(q);
      const double* row = knm + lo * n + t * w;
      for (std::size_t c = 0; c < w; ++c) p->b[lo + c] += row[c] * yt;
    }
  }
  if (p->gram.rows() != m) p->gram = Matrix(m, m);
  double* g = p->gram.data().data();
  pool.parallel_for(0, panels * (panels + 1) / 2, [&](std::size_t pair) {
    // Block pairs in row-major lower-triangle order: (0,0), (1,0), (1,1),
    // (2,0), ...
    std::size_t bi = 0;
    while (pair > bi) pair -= ++bi;
    const std::size_t bj = pair;
    const std::size_t ilo = bi * kGramBlock;
    const std::size_t jlo = bj * kGramBlock;
    const std::size_t wi = width(bi);
    const std::size_t wj = width(bj);
    kernels::gram_panels(knm + ilo * n, wi, knm + jlo * n, wj, n,
                         g + ilo * m + jlo, m);
    if (bi == bj) return;
    for (std::size_t r = 0; r < wi; ++r)
      for (std::size_t c = 0; c < wj; ++c)
        g[(jlo + c) * m + ilo + r] = g[(ilo + r) * m + jlo + c];
  });
}

// Hands a factor's storage to the next lengthscale's factorizations, so a
// fit allocates factor storage only as its live set grows.
void recycle(Cholesky* chol, SparsePanels* p) {
  Matrix storage = std::move(*chol).release();
  if (!storage.empty()) p->spare.push_back(std::move(storage));
}

// One lengthscale's factorizations as one parallel_for: K_mm at index 0,
// so the pool rethrows the exception the serial order would have thrown
// first, then A = nv * K_mm + gram for each noise value nvs[k] at k + 1.
// Each task writes its matrix into its storage and factors it in place,
// reading the upper triangle; K_mm, the gram and A are exactly symmetric.
// The coordinator hands out every buffer a worker writes: buffers a worker
// allocates itself stay cached in glibc's per-thread arenas after free.
void factor_lengthscale(std::span<const double> nvs, ThreadPool& pool,
                        SparsePanels* p) {
  const std::size_t m = p->kmm.rows();
  recycle(&p->chol_kmm, p);  // a losing lengthscale's, or a displaced winner
  std::vector<Matrix> storage(nvs.size() + 1);
  for (Matrix& f : storage) {
    if (p->spare.empty()) {
      f = Matrix(m, m);
      continue;
    }
    f = std::move(p->spare.back());
    p->spare.pop_back();
  }
  p->factors.resize(nvs.size() + 1);
  pool.parallel_for(0, p->factors.size(), [&](std::size_t k) {
    const double* kd = p->kmm.data().data();
    double* ad = storage[k].data().data();
    if (k == 0) {
      std::copy(kd, kd + m * m, ad);
    } else {
      const double nv = nvs[k - 1];
      const double* gd = p->gram.data().data();
      for (std::size_t i = 0; i < m * m; ++i) ad[i] = gd[i] + nv * kd[i];
    }
    p->factors[k] = Cholesky(std::move(storage[k]));
  });
  std::swap(p->chol_kmm, p->factors[0]);
  p->kmm_logdet = p->chol_kmm.log_determinant();
}

// One noise-grid point from its factor of A = nv * K_mm + gram: solve for
// the weights, and return the DTC log marginal likelihood via the matrix
// determinant lemma:
//   log|Q + nv I| = (n - m) log nv + log|A| - log|K_mm|
//   y^T (Q + nv I)^-1 y = (y^T y - b^T A^-1 b) / nv
double eval_noise_point(const SparsePanels& p, const Cholesky& chol,
                        double nv, double y_sq, std::size_t n,
                        std::vector<double>* alpha_out) {
  const std::size_t m = p.kmm.rows();
  *alpha_out = chol.solve(p.b);
  const double quad =
      (y_sq - kernels::dot(p.b.data(), alpha_out->data(), m)) / nv;
  const double logdet_cov = static_cast<double>(n - m) * std::log(nv) +
                            chol.log_determinant() - p.kmm_logdet;
  return -0.5 * quad - 0.5 * logdet_cov -
         0.5 * static_cast<double>(n) * std::log(2.0 * std::numbers::pi);
}

}  // namespace

void GpRegressor::select_inducing_rows(const Matrix& xs, std::size_t m) {
  YOSO_TRACE_SPAN("gp.sparse_select");
  YOSO_REQUIRE(m >= 1, "GpRegressor: inducing-set size m must be >= 1");
  const std::size_t n = xs.rows();
  const std::size_t d = xs.cols();
  std::vector<std::size_t>& idx = state_.inducing_idx;
  idx.clear();
  idx.reserve(m);
  if (m >= n) {
    for (std::size_t i = 0; i < n; ++i) idx.push_back(i);
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
      idx.push_back(pick);
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
  const std::size_t mm = idx.size();
  state_.train_x = Matrix(mm, d);
  double* dst = state_.train_x.data().data();
  for (std::size_t r = 0; r < mm; ++r) {
    const std::span<const double> src = xs.row(idx[r]);
    std::copy(src.begin(), src.end(), dst + r * d);
  }
  packed_train_ = kernels::pack_rows(dst, mm, d);
}

std::vector<GpRegressorState::Target> GpRegressor::fit_sparse(
    const Matrix& x, std::span<const std::span<const double>> ys,
    ThreadPool* pool) {
  YOSO_TRACE_SPAN("gp.sparse_fit");
  ThreadPool inline_pool(0);
  ThreadPool& fit_pool = pool != nullptr ? *pool : inline_pool;
  const Matrix xs = state_.scaler.transform(x);
  const bool tune = state_.tune;
  const std::size_t n = xs.rows();
  const std::size_t m =
      std::min(std::max<std::size_t>(state_.inducing_target, 1), n);
  select_inducing_rows(xs, m);
  const Matrix& z = state_.train_x;
  const std::size_t mm = z.rows();

  // Two distance panels per fit (vs the exact path's one full n x n
  // matrix); every target's tuning grid re-exponentiates them per grid
  // point, mirroring the exact flow's build-once discipline.
  Matrix d_nm(n, mm);
  kernels::pairwise_sq_dists(xs.data().data(), n, packed_train_,
                             d_nm.data().data());
  dist_builds_.cross = 1;
  Matrix d_mm(mm, mm);
  kernels::pairwise_sq_dists(z.data().data(), mm, packed_train_,
                             d_mm.data().data());
  dist_builds_.inducing = 1;

  // Same 15-point grid as the exact backend, with the gram/b panels hoisted
  // per lengthscale (the noise term only shifts A's diagonal load).  An
  // untuned model is the one grid point hp_.
  const double base_l = std::sqrt(static_cast<double>(x.cols()));
  std::vector<double> yc(n);
  std::vector<GpRegressorState::Target> fitted;
  fitted.reserve(ys.size());
  // Scratch reused across lengthscales and targets, so the peak is one
  // lengthscale's working set.
  SparsePanels panels;
  std::vector<double> trial_alpha;
  for (const std::span<const double> y : ys) {
    GpRegressorState::Target& t = fitted.emplace_back();
    t.y_mean = mean(y);
    double y_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      yc[i] = y[i] - t.y_mean;
      y_sq += yc[i] * yc[i];
    }
    const double y_var = std::max(y_sq / static_cast<double>(n), 1e-12);
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
      build_panels({l, sv, 0.0}, d_mm, d_nm, yc, fit_pool, &panels);
      YOSO_TRACE_SPAN("gp.sparse_factor");
      factor_lengthscale(nvs, fit_pool, &panels);
      bool l_won = false;
      for (std::size_t k = 0; k < nvs.size(); ++k) {
        Cholesky& trial = panels.factors[k + 1];
        const double lml =
            eval_noise_point(panels, trial, nvs[k], y_sq, n, &trial_alpha);
        // Serially, in grid order: as in the exact flow, the winning grid
        // point's factorisation IS the fitted state — no redundant refit.
        // An untuned model keeps its one point whatever its likelihood.
        if (!tune || lml > t.lml) {
          t.lml = lml;
          t.hp = {l, sv, nvs[k]};
          t.alpha = std::move(trial_alpha);
          std::swap(t.chol, trial);
          l_won = true;
        }
        recycle(&trial, &panels);  // this point, or the winner it displaced
      }
      if (l_won) {
        std::swap(t.chol_kmm, panels.chol_kmm);
        t.b = std::move(panels.b);
      }
    }
    YOSO_REQUIRE(!t.chol.lower().empty(),
                 "GpRegressor::fit: no grid point has a finite likelihood");
  }
  return fitted;
}

void GpRegressor::update(std::span<const double> x,
                         std::span<const double> ys) {
  YOSO_TRACE_SPAN("gp.sparse_update");
  YOSO_REQUIRE(state_.backend == GpBackend::kSparse,
               "GpRegressor::update: the exact backend has no incremental "
               "path — construct with GpBackend::kSparse");
  YOSO_REQUIRE(fitted(), "GpRegressor::update: not fitted");
  YOSO_REQUIRE(ys.size() == targets(), "GpRegressor::update: ", ys.size(),
               " values for a ", targets(), "-target model");
  const Matrix& z = state_.train_x;
  YOSO_REQUIRE(x.size() == z.cols(), "GpRegressor::update: feature dimension ",
               x.size(), " != fitted dimension ", z.cols());
  const std::size_t m = z.rows();
  // Scratch is member-owned and sized once, so a refinement stream of
  // updates allocates only inside the O(m^2) solves.
  upd_xs_.resize(z.cols());
  upd_d2_.resize(m);
  upd_k_.resize(m);
  state_.scaler.transform_row_into(x, upd_xs_.data());
  kernels::pairwise_sq_dists(upd_xs_.data(), 1, packed_train_,
                             upd_d2_.data());
  // Per target: A += k k^T (rank-1, O(m^2)), b += k (y - mean), one
  // re-solve.  No distance panel is rebuilt — distance_builds() stays
  // flat, which is the counter-based no-refit proof the tests assert.
  for (std::size_t i = 0; i < targets(); ++i) {
    GpRegressorState::Target& t = state_.targets[i];
    const double l = t.hp.lengthscale;
    kernels::exp_scale(upd_d2_.data(), upd_k_.data(), m, -1.0 / (2.0 * l * l),
                       t.hp.signal_variance);
    t.chol.rank1_update(upd_k_);
    const double r = ys[i] - t.y_mean;
    for (std::size_t j = 0; j < m; ++j) t.b[j] += upd_k_[j] * r;
    t.alpha = t.chol.solve(t.b);
  }
  ++state_.updates_applied;
  obs::counter_add("gp.sparse_updates", 1);
}

}  // namespace yoso
