// Fig 4 — comparison of machine-learning regression models for the hardware
// performance predictor.  The paper fits six model families on 3000
// simulator samples and tests on 600; the Gaussian process has the lowest
// MSE and becomes the search-time predictor.  We reproduce the comparison
// for both targets (energy, latency); the default runs at 750/150 samples
// (YOSO_SCALE=4 reaches the paper's 3000/600).  Exits 1 unless the GP has
// the lowest MSE on both targets.

#include <benchmark/benchmark.h>
#include <cmath>
#include <iostream>
#include <memory>

#include "accel/config.h"
#include "accel/simulator.h"
#include "arch/network.h"
#include "bench_common.h"
#include "predictor/gp.h"
#include "predictor/models.h"
#include "predictor/perf_predictor.h"
#include "predictor/regressor.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace yoso;

std::vector<PerfSample> g_samples;  // shared with the micro-benchmarks

// True when the GP has the lowest test MSE on both targets.
bool run_comparison() {
  const std::size_t train_n = scaled(750, 100);
  const std::size_t test_n = scaled(150, 30);

  const NetworkSkeleton skeleton = default_skeleton();
  const ConfigSpace space = default_config_space();
  SystolicSimulator simulator({}, SimFidelity::kCycleLevel);
  Rng rng(2020);
  g_samples = collect_samples(train_n + test_n, simulator, space, skeleton,
                              rng);
  const std::vector<PerfSample> train(g_samples.begin(),
                                      g_samples.begin() +
                                          static_cast<std::ptrdiff_t>(train_n));
  const std::vector<PerfSample> test(
      g_samples.begin() + static_cast<std::ptrdiff_t>(train_n),
      g_samples.end());
  const SampleMatrix tm = to_matrix(train);
  const SampleMatrix em = to_matrix(test);
  std::cout << "training samples: " << train_n << ", test samples: " << test_n
            << " (paper: 3000/600)\n\n";

  auto make_models = [] {
    std::vector<std::unique_ptr<Regressor>> models;
    models.push_back(std::make_unique<LinearRegressor>(0.0, "linear"));
    models.push_back(std::make_unique<LinearRegressor>(1.0, "ridge"));
    models.push_back(std::make_unique<KnnRegressor>(8));
    models.push_back(std::make_unique<DecisionTreeRegressor>(14, 3));
    models.push_back(std::make_unique<RandomForestRegressor>(40, 14, 2));
    models.push_back(std::make_unique<GpRegressor>());
    return models;
  };

  bool gp_wins_both = true;
  for (const char* target : {"energy (mJ)", "latency (ms)"}) {
    const bool is_energy = std::string(target) == "energy (mJ)";
    const auto& train_y = is_energy ? tm.energy : tm.latency;
    const auto& test_y = is_energy ? em.energy : em.latency;
    // Both targets are positive with heavy upper tails (NLR configs are
    // many times slower than OS), so every model fits log(y) and is scored
    // in the original space — the same preprocessing for all six families.
    std::vector<double> train_log(train_y.size());
    for (std::size_t i = 0; i < train_y.size(); ++i)
      train_log[i] = std::log(train_y[i]);

    TextTable table({"model", "MSE", "RMSE", "mean rel err", "fit time (s)"});
    double gp_mse = 0.0, best_other = 1e300;
    for (auto& model : make_models()) {
      Stopwatch sw;
      model->fit(tm.x, train_log);
      const double fit_s = sw.elapsed_seconds();
      auto pred = model->predict_all(em.x);
      for (double& v : pred) v = std::exp(v);
      const double m = mse(pred, test_y);
      if (model->name() == "gaussian_process") gp_mse = m;
      else best_other = std::min(best_other, m);
      table.add_row({model->name(), TextTable::fmt(m, 4),
                     TextTable::fmt(rmse(pred, test_y), 4),
                     TextTable::fmt(mean_relative_error(pred, test_y), 4),
                     TextTable::fmt(fit_s, 2)});
    }
    std::cout << "--- target: " << target << " ---\n";
    table.print(std::cout);
    const bool gp_wins = gp_mse < best_other;
    gp_wins_both = gp_wins_both && gp_wins;
    std::cout << "GP wins: " << (gp_wins ? "yes" : "NO")
              << "  (paper Fig 4: GP has the lowest MSE of the six)\n\n";
  }
  return gp_wins_both;
}

void BM_GpFit(benchmark::State& state) {
  const std::size_t n = std::min<std::size_t>(
      static_cast<std::size_t>(state.range(0)), g_samples.size());
  const std::vector<PerfSample> sub(g_samples.begin(),
                                    g_samples.begin() +
                                        static_cast<std::ptrdiff_t>(n));
  const SampleMatrix m = to_matrix(sub);
  for (auto _ : state) {
    GpRegressor gp({}, /*tune=*/false);
    gp.fit(m.x, m.energy);
    benchmark::DoNotOptimize(gp);
  }
}
BENCHMARK(BM_GpFit)->Arg(100)->Arg(300)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  yoso::Stopwatch sw;
  yoso::bench_banner("Fig 4", "regression-model comparison for the hardware "
                              "performance predictor");
  const bool gp_wins = run_comparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  yoso::bench_footer(sw);
  return gp_wins ? 0 : 1;
}
