#include <cmath>
#include <gtest/gtest.h>
#include <memory>

#include "accel/config.h"
#include "accel/simulator.h"
#include "accel/tech.h"
#include "arch/genotype.h"
#include "arch/network.h"
#include "base/contract.h"
#include "predictor/gp.h"
#include "predictor/perf_predictor.h"
#include "util/rng.h"
#include "util/stats.h"

namespace yoso {
namespace {

class PerfPredictorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    skeleton_ = std::make_unique<NetworkSkeleton>(default_skeleton());
    simulator_ = std::make_unique<SystolicSimulator>(TechnologyParams{}, SimFidelity::kAnalytical);
    space_ = std::make_unique<ConfigSpace>(default_config_space());
    Rng rng(55);
    samples_ = std::make_unique<std::vector<PerfSample>>(
        collect_samples(260, *simulator_, *space_, *skeleton_, rng));
  }
  static void TearDownTestSuite() {
    samples_.reset();
    space_.reset();
    simulator_.reset();
    skeleton_.reset();
  }

  static std::unique_ptr<NetworkSkeleton> skeleton_;
  static std::unique_ptr<SystolicSimulator> simulator_;
  static std::unique_ptr<ConfigSpace> space_;
  static std::unique_ptr<std::vector<PerfSample>> samples_;
};

std::unique_ptr<NetworkSkeleton> PerfPredictorTest::skeleton_;
std::unique_ptr<SystolicSimulator> PerfPredictorTest::simulator_;
std::unique_ptr<ConfigSpace> PerfPredictorTest::space_;
std::unique_ptr<std::vector<PerfSample>> PerfPredictorTest::samples_;

TEST_F(PerfPredictorTest, FeaturesFixedWidthAndFinite) {
  Rng rng(1);
  const Genotype g = random_genotype(rng);
  const AcceleratorConfig c{16, 16, 512, 256, Dataflow::kRowStationary};
  const auto f = codesign_features(g, c, *skeleton_);
  EXPECT_EQ(f.size(), 21u);
  for (double v : f) EXPECT_TRUE(std::isfinite(v));
}

TEST_F(PerfPredictorTest, DataflowOneHotExactlyOne) {
  Rng rng(2);
  const Genotype g = random_genotype(rng);
  for (int d = 0; d < kNumDataflows; ++d) {
    AcceleratorConfig c{16, 16, 512, 256, static_cast<Dataflow>(d)};
    const auto f = codesign_features(g, c, *skeleton_);
    double onehot = 0.0;
    for (int k = 0; k < kNumDataflows; ++k)
      onehot += f[15 + static_cast<std::size_t>(k)];
    EXPECT_DOUBLE_EQ(onehot, 1.0);
    EXPECT_DOUBLE_EQ(f[15 + static_cast<std::size_t>(d)], 1.0);
  }
}

TEST_F(PerfPredictorTest, SamplesHaveSimulatedTargets) {
  EXPECT_EQ(samples_->size(), 260u);
  for (const auto& s : *samples_) {
    EXPECT_GT(s.energy_mj, 0.0);
    EXPECT_GT(s.latency_ms, 0.0);
    EXPECT_FALSE(s.features.empty());
    // Features must be reproducible from the stored pair.
    const auto f = codesign_features(s.genotype, s.config, *skeleton_);
    ASSERT_EQ(f.size(), s.features.size());
    for (std::size_t i = 0; i < f.size(); ++i)
      EXPECT_DOUBLE_EQ(f[i], s.features[i]);
  }
}

TEST_F(PerfPredictorTest, CollectSamplesDeterministic) {
  Rng rng1(9), rng2(9);
  const auto a = collect_samples(5, *simulator_, *space_, *skeleton_, rng1);
  const auto b = collect_samples(5, *simulator_, *space_, *skeleton_, rng2);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].genotype == b[i].genotype);
    EXPECT_EQ(a[i].config, b[i].config);
    EXPECT_DOUBLE_EQ(a[i].energy_mj, b[i].energy_mj);
  }
}

TEST_F(PerfPredictorTest, ToMatrixShapes) {
  const auto m = to_matrix(*samples_);
  EXPECT_EQ(m.x.rows(), samples_->size());
  EXPECT_EQ(m.x.cols(), samples_->front().features.size());
  EXPECT_EQ(m.energy.size(), samples_->size());
  EXPECT_EQ(m.latency.size(), samples_->size());
  EXPECT_THROW(to_matrix({}), std::invalid_argument);
}

TEST_F(PerfPredictorTest, PredictorAccurateOnHeldOut) {
  const std::vector<PerfSample> train(samples_->begin(),
                                      samples_->begin() + 200);
  const std::vector<PerfSample> test(samples_->begin() + 200,
                                     samples_->end());
  PerformancePredictor pred(*skeleton_);
  EXPECT_FALSE(pred.fitted());
  pred.fit(train);
  EXPECT_TRUE(pred.fitted());

  std::vector<double> pe, te, pl, tl;
  for (const auto& s : test) {
    pe.push_back(pred.predict_energy_mj(s.genotype, s.config));
    te.push_back(s.energy_mj);
    pl.push_back(pred.predict_latency_ms(s.genotype, s.config));
    tl.push_back(s.latency_ms);
  }
  // The paper claims < 4% accuracy loss at 3000 samples; at 200 samples we
  // allow 12%, and correlation must already be very strong.
  EXPECT_LT(mean_relative_error(pe, te), 0.12);
  EXPECT_LT(mean_relative_error(pl, tl), 0.20);
  EXPECT_GT(pearson(pe, te), 0.9);
  EXPECT_GT(pearson(pl, tl), 0.9);
}

TEST_F(PerfPredictorTest, UnfittedPredictorThrows) {
  PerformancePredictor pred(*skeleton_);
  Rng rng(3);
  const Genotype g = random_genotype(rng);
  const AcceleratorConfig c{16, 16, 512, 256, Dataflow::kWeightStationary};
  EXPECT_THROW(pred.predict_energy_mj(g, c), std::logic_error);
  EXPECT_THROW(pred.predict_latency_ms(g, c), std::logic_error);
}

TEST_F(PerfPredictorTest, PredictionRespondsToConfig) {
  PerformancePredictor pred(*skeleton_);
  pred.fit(*samples_);
  Rng rng(4);
  const Genotype g = random_genotype(rng);
  AcceleratorConfig small{8, 8, 108, 64, Dataflow::kOutputStationary};
  AcceleratorConfig large{16, 32, 512, 512, Dataflow::kOutputStationary};
  // More PEs -> the GP must predict lower latency for the same network.
  EXPECT_LT(pred.predict_latency_ms(g, large),
            pred.predict_latency_ms(g, small));
}

// A restored predictor is the exported two-target GP on its skeleton: it
// predicts like the original, and a state without both targets is
// rejected on restore instead of failing at the first prediction.
TEST_F(PerfPredictorTest, FromStateNeedsEnergyAndLatencyTargets) {
  PerformancePredictor pred(*skeleton_, GpBackend::kSparse, 32);
  pred.fit(*samples_);
  const GpRegressorState& good = pred.model().state();
  const PerformancePredictor restored =
      PerformancePredictor::from_state(*skeleton_, good);
  Rng rng(5);
  const Genotype g = random_genotype(rng);
  const AcceleratorConfig c{16, 16, 512, 256, Dataflow::kWeightStationary};
  EXPECT_EQ(restored.predict_energy_mj(g, c), pred.predict_energy_mj(g, c));
  EXPECT_EQ(restored.predict_latency_ms(g, c), pred.predict_latency_ms(g, c));

  GpRegressorState bad = good;
  bad.targets.pop_back();
  EXPECT_THROW(PerformancePredictor::from_state(*skeleton_, bad),
               ContractViolation);
  bad = good;
  bad.targets.push_back(good.targets.front());
  EXPECT_THROW(PerformancePredictor::from_state(*skeleton_, bad),
               ContractViolation);
}

}  // namespace
}  // namespace yoso
