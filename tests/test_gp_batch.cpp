// Batched GP inference: predict_batch must be bit-identical to per-row
// predict(), the tuned fit must build the pairwise distance matrix exactly
// once, and the PerformancePredictor batch path must reproduce the scalar
// per-candidate path exactly.

#include <cmath>
#include <gtest/gtest.h>
#include <vector>

#include "accel/config.h"
#include "accel/simulator.h"
#include "accel/tech.h"
#include "arch/genotype.h"
#include "arch/network.h"
#include "linalg/matrix.h"
#include "predictor/gp.h"
#include "predictor/perf_predictor.h"
#include "util/rng.h"

namespace yoso {
namespace {

struct GpData {
  Matrix x;
  std::vector<double> y;
  Matrix queries;
};

GpData make_data(std::size_t n, std::size_t d, std::size_t nq,
                 std::uint64_t seed) {
  Rng rng(seed);
  GpData data;
  data.x = Matrix(n, d);
  for (std::size_t r = 0; r < n; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      data.x(r, c) = rng.uniform(-2.0, 2.0);
      s += data.x(r, c);
    }
    data.y.push_back(std::sin(s) + 0.1 * rng.normal());
  }
  data.queries = Matrix(nq, d);
  for (std::size_t r = 0; r < nq; ++r)
    for (std::size_t c = 0; c < d; ++c)
      data.queries(r, c) = rng.uniform(-2.0, 2.0);
  return data;
}

std::vector<double> query_row(const Matrix& q, std::size_t r) {
  std::vector<double> row(q.cols());
  for (std::size_t c = 0; c < q.cols(); ++c) row[c] = q(r, c);
  return row;
}

TEST(GpBatchTest, BatchMeansBitIdenticalToPerRowPredict) {
  const GpData d = make_data(180, 6, 67, 3);
  GpRegressor gp;
  gp.fit(d.x, d.y);
  const std::vector<double> batch = gp.predict_batch(d.queries);
  ASSERT_EQ(batch.size(), d.queries.rows());
  for (std::size_t r = 0; r < d.queries.rows(); ++r)
    EXPECT_DOUBLE_EQ(batch[r], gp.predict(query_row(d.queries, r)))
        << "row " << r;
}

// Chunking (kChunk = 256) must not change results at the chunk seams.
TEST(GpBatchTest, LargeBatchCrossesChunkBoundary) {
  const GpData d = make_data(90, 4, 600, 7);
  GpRegressor gp;
  gp.fit(d.x, d.y);
  const std::vector<double> batch = gp.predict_batch(d.queries);
  for (const std::size_t r : {0u, 255u, 256u, 257u, 511u, 512u, 599u})
    EXPECT_DOUBLE_EQ(batch[r], gp.predict(query_row(d.queries, r)))
        << "row " << r;
}

TEST(GpBatchTest, TunedFitBuildsDistanceMatrixOnce) {
  const GpData d = make_data(140, 5, 1, 13);
  GpRegressor tuned({}, /*tune=*/true);
  tuned.fit(d.x, d.y);
  EXPECT_EQ(tuned.distance_matrix_builds(), 1u);
  GpRegressor fixed({}, /*tune=*/false);
  fixed.fit(d.x, d.y);
  EXPECT_EQ(fixed.distance_matrix_builds(), 1u);
  // Refit resets the counter rather than accumulating.
  tuned.fit(d.x, d.y);
  EXPECT_EQ(tuned.distance_matrix_builds(), 1u);
}

TEST(GpBatchTest, BatchValidatesFitAndDimensions) {
  GpRegressor gp;
  EXPECT_THROW(gp.predict_batch(Matrix(2, 3)), std::logic_error);
  const GpData d = make_data(60, 4, 1, 17);
  gp.fit(d.x, d.y);
  EXPECT_THROW(gp.predict_batch(Matrix(2, 5)), std::invalid_argument);
  EXPECT_TRUE(gp.predict_batch(Matrix(0, 4)).empty());
}

TEST(GpBatchTest, PerformancePredictorBatchMatchesScalarPath) {
  const NetworkSkeleton skeleton = default_skeleton();
  const SystolicSimulator simulator(TechnologyParams{},
                                    SimFidelity::kAnalytical);
  const ConfigSpace space = default_config_space();
  Rng rng(19);
  const auto samples = collect_samples(90, simulator, space, skeleton, rng);
  PerformancePredictor pred(skeleton);
  pred.fit(samples);

  // Query candidates distinct from the training draws.
  std::vector<Genotype> genos;
  std::vector<AcceleratorConfig> configs;
  Matrix fx(24, kCodesignFeatureDim);
  for (std::size_t i = 0; i < fx.rows(); ++i) {
    genos.push_back(random_genotype(rng));
    std::vector<int> actions(ConfigSpace::kActionCount);
    for (int a = 0; a < ConfigSpace::kActionCount; ++a)
      actions[static_cast<std::size_t>(a)] =
          rng.uniform_int(0, space.cardinality(a) - 1);
    configs.push_back(space.decode(actions));
    const auto f = codesign_features(genos[i], configs[i], skeleton);
    for (std::size_t c = 0; c < f.size(); ++c) fx(i, c) = f[c];
  }

  std::vector<double> lat(fx.rows());
  std::vector<double> en(fx.rows());
  pred.predict_latency_energy_batch(fx.data().data(), fx.rows(), lat.data(),
                                    en.data());
  for (std::size_t i = 0; i < fx.rows(); ++i) {
    EXPECT_DOUBLE_EQ(lat[i], pred.predict_latency_ms(genos[i], configs[i]))
        << "cand " << i;
    EXPECT_DOUBLE_EQ(en[i], pred.predict_energy_mj(genos[i], configs[i]))
        << "cand " << i;
  }
}

TEST(GpBatchTest, UnfittedPredictorBatchThrows) {
  PerformancePredictor pred(default_skeleton());
  const std::vector<double> features(kCodesignFeatureDim, 0.0);
  double lat = 0.0;
  double en = 0.0;
  EXPECT_THROW(
      pred.predict_latency_energy_batch(features.data(), 1, &lat, &en),
      std::logic_error);
}

}  // namespace
}  // namespace yoso
