// Sparse-GP scaling bench — the Nystrom/DTC backend against the exact
// O(n^3) GP at training-set sizes the exact path cannot reach in a search
// loop.  For each n the bench fits both backends on the same synthetic
// data at matched hyper-parameters (tuned once on the sparse model, so the
// comparison isolates the factorisation, not the grid search), then
// reports:
//
//   * fit wall time and the exact/sparse ratio (target: sparse >= 10x
//     faster at n = 10k with m = 512 inducing points);
//   * held-out RMSE for both backends (target: sparse within 5% relative
//     of exact at n = 10k);
//   * predict_batch latency per query, plus the O(m^2) update() cost.
//
// The exact fit is skipped above kExactCeiling (the n x n Cholesky alone
// would take tens of minutes) and the skip is recorded in the JSON rather
// than silently capped.  `--smoke` runs tiny sizes with no speed/RMSE
// thresholds (CI wiring); either way the numbers land in
// BENCH_gp_sparse.json.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "linalg/matrix.h"
#include "predictor/gp.h"
#include "util/rng.h"

namespace {

using namespace yoso;

constexpr std::size_t kDim = 22;            // co-design feature width
constexpr std::size_t kExactCeiling = 10000;  // exact fit skipped above this

double g_sink = 0.0;  // defeats dead-code elimination across timed regions

/// Best-of-`reps` wall time of fn(), in seconds.
template <typename Fn>
double time_best(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    fn();
    best = std::min(best, sw.elapsed_seconds());
  }
  return best;
}

/// Synthetic co-design-like data: feature rows in the real predictor are
/// 22 values derived from a handful of discrete architecture/accelerator
/// choices, so they live on a low-dimensional manifold.  The generator
/// mirrors that — a 4-dim latent mixed up to kDim ambient features (fixed
/// mixing matrix + small ambient jitter), with a smooth response on the
/// latent coordinates plus observation noise.
constexpr std::size_t kLatent = 4;

void fill_data(Rng& rng, Matrix& x, std::vector<double>& y) {
  Rng wrng(7);  // the SAME mixing matrix for every call (train and test)
  double w[kLatent][kDim];
  for (std::size_t k = 0; k < kLatent; ++k)
    for (std::size_t c = 0; c < kDim; ++c) w[k][c] = wrng.uniform(-1.0, 1.0);
  double u[kLatent];
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t k = 0; k < kLatent; ++k) u[k] = rng.uniform(-2.0, 2.0);
    for (std::size_t c = 0; c < kDim; ++c) {
      double s = 0.0;
      for (std::size_t k = 0; k < kLatent; ++k) s += w[k][c] * u[k];
      x(r, c) = s + 0.05 * rng.normal();
    }
    y[r] = std::sin(u[0]) + 0.3 * std::cos(2.0 * u[1]) + 0.2 * u[2] * u[3] +
           0.05 * rng.normal();
  }
}

double rmse(std::span<const double> pred, std::span<const double> truth) {
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double e = pred[i] - truth[i];
    acc += e * e;
  }
  return std::sqrt(acc / static_cast<double>(pred.size()));
}

struct ScaleResult {
  bool exact_ran = false;
  double exact_fit_s = 0.0, sparse_fit_s = 0.0;
  double exact_rmse = 0.0, sparse_rmse = 0.0;
  double exact_predict_us = 0.0, sparse_predict_us = 0.0;
  double update_us = 0.0;
};

ScaleResult run_scale(const GpHyperParams& hp, std::size_t n, std::size_t m,
                      std::size_t n_test, bool smoke) {
  ScaleResult res;
  Rng rng(0xC0DE + n);
  Matrix x(n, kDim);
  std::vector<double> y(n);
  fill_data(rng, x, y);
  Matrix xq(n_test, kDim);
  std::vector<double> yq(n_test);
  fill_data(rng, xq, yq);

  GpRegressor sparse(hp, /*tune=*/false, GpBackend::kSparse, m);
  res.sparse_fit_s = time_best(1, [&] { sparse.fit(x, y); });

  res.exact_ran = n <= kExactCeiling;
  GpRegressor exact(hp, /*tune=*/false);
  if (res.exact_ran) {
    res.exact_fit_s = time_best(1, [&] { exact.fit(x, y); });
    const std::vector<double> pe = exact.predict_batch(xq);
    res.exact_rmse = rmse(pe, yq);
    res.exact_predict_us = time_best(smoke ? 1 : 3, [&] {
      g_sink += exact.predict_batch(xq)[0];
    }) / static_cast<double>(n_test) * 1e6;
  }

  const std::vector<double> ps = sparse.predict_batch(xq);
  res.sparse_rmse = rmse(ps, yq);
  res.sparse_predict_us = time_best(smoke ? 1 : 3, [&] {
    g_sink += sparse.predict_batch(xq)[0];
  }) / static_cast<double>(n_test) * 1e6;

  // O(m^2) online refresh: fold a handful of held-out points in and report
  // the per-call cost (no refit happens — distance_builds() stays flat).
  const std::size_t n_upd = std::min<std::size_t>(8, n_test);
  std::vector<double> row(kDim);
  const double t_upd = time_best(1, [&] {
    for (std::size_t i = 0; i < n_upd; ++i) {
      for (std::size_t c = 0; c < kDim; ++c) row[c] = xq(i, c);
      sparse.update(row, yq[i]);
    }
  });
  res.update_us = t_upd / static_cast<double>(n_upd) * 1e6;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--smoke") smoke = true;

  Stopwatch sw;
  bench_banner("SparseGP", smoke
                               ? "Nystrom/DTC vs exact GP scaling (smoke)"
                               : "Nystrom/DTC vs exact GP scaling");

  const std::size_t m = smoke ? 32 : 512;
  const std::size_t n_test = smoke ? 64 : 500;
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{256}
            : std::vector<std::size_t>{1000, 10000, 50000};

  // Hyper-parameters tuned once on a small sparse fit, then frozen for
  // every timed fit: both backends see identical hp, so fit time and RMSE
  // compare factorisations rather than grid-search luck.
  GpHyperParams hp;
  {
    Rng rng(0xC0DE);
    const std::size_t n_tune = smoke ? 128 : 1000;
    Matrix x(n_tune, kDim);
    std::vector<double> y(n_tune);
    fill_data(rng, x, y);
    GpRegressor tuner({}, /*tune=*/true, GpBackend::kSparse, m);
    tuner.fit(x, y);
    hp = tuner.hyper_params();
    std::cout << "tuned hp (sparse, n=" << n_tune << "): lengthscale "
              << TextTable::fmt(hp.lengthscale, 3) << ", noise "
              << TextTable::fmt(hp.noise_variance, 5) << "\n\n";
  }

  BenchJson json("gp_sparse");
  json.field("smoke", smoke ? 1.0 : 0.0);
  json.field("inducing_points", static_cast<double>(m));
  json.field("dim", static_cast<double>(kDim));
  json.field("n_test", static_cast<double>(n_test));

  TextTable table({"n", "exact fit (s)", "sparse fit (s)", "fit speedup",
                   "exact rmse", "sparse rmse", "sparse us/query",
                   "update us"});
  bool ok = true;
  double speedup_10k = 0.0, rmse_rel_10k = 0.0;
  for (const std::size_t n : sizes) {
    const ScaleResult r = run_scale(hp, n, m, n_test, smoke);
    const double speedup =
        r.exact_ran ? r.exact_fit_s / r.sparse_fit_s : 0.0;
    table.add_row(
        {TextTable::fmt_int(static_cast<long long>(n)),
         r.exact_ran ? TextTable::fmt(r.exact_fit_s, 3) : "skipped",
         TextTable::fmt(r.sparse_fit_s, 3),
         r.exact_ran ? TextTable::fmt(speedup, 1) + "x" : "-",
         r.exact_ran ? TextTable::fmt(r.exact_rmse, 4) : "-",
         TextTable::fmt(r.sparse_rmse, 4),
         TextTable::fmt(r.sparse_predict_us, 2),
         TextTable::fmt(r.update_us, 1)});
    json.record("n_" + std::to_string(n));
    json.value("n", static_cast<double>(n));
    json.value("exact_fit_s", r.exact_ran ? r.exact_fit_s : -1.0);
    json.value("exact_skipped", r.exact_ran ? 0.0 : 1.0);
    json.value("sparse_fit_s", r.sparse_fit_s);
    json.value("fit_speedup", speedup);
    json.value("exact_rmse", r.exact_ran ? r.exact_rmse : -1.0);
    json.value("sparse_rmse", r.sparse_rmse);
    json.value("rmse_rel_delta",
               r.exact_ran && r.exact_rmse > 0.0
                   ? (r.sparse_rmse - r.exact_rmse) / r.exact_rmse
                   : -1.0);
    json.value("exact_predict_us_per_query",
               r.exact_ran ? r.exact_predict_us : -1.0);
    json.value("sparse_predict_us_per_query", r.sparse_predict_us);
    json.value("update_us", r.update_us);
    if (n == 10000 && r.exact_ran) {
      speedup_10k = speedup;
      rmse_rel_10k = (r.sparse_rmse - r.exact_rmse) / r.exact_rmse;
    }
    if (!r.exact_ran)
      std::cout << "n=" << n << ": exact fit skipped (above the "
                << kExactCeiling << "-row ceiling), sparse only\n";
  }
  table.print(std::cout);

  if (!smoke) {
    const bool speed_ok = speedup_10k >= 10.0;
    const bool rmse_ok = rmse_rel_10k <= 0.05;
    std::cout << "\nn=10k gates: fit speedup "
              << TextTable::fmt(speedup_10k, 1) << "x (target >=10x, "
              << (speed_ok ? "met" : "MISSED") << "), rmse delta "
              << TextTable::fmt(rmse_rel_10k * 100.0, 2)
              << " % (target <=5 %, " << (rmse_ok ? "met" : "MISSED")
              << ")\n";
    ok = ok && speed_ok && rmse_ok;
  }

  const std::string path = json.write();
  std::cout << "[wrote " << (path.empty() ? "<failed>" : path)
            << "]  [checksum " << TextTable::fmt(g_sink, 3) << "]\n";
  bench_footer(sw);
  return (ok && !path.empty()) ? 0 : 1;
}
