#include <gtest/gtest.h>
#include <memory>
#include <vector>

#include "accel/config.h"
#include "accel/simulator.h"
#include "accel/tech.h"
#include "arch/network.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"
#include "surrogate/accuracy_model.h"
#include "util/rng.h"

namespace yoso {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    space_ = std::make_unique<DesignSpace>();
    skeleton_ = std::make_unique<NetworkSkeleton>(default_skeleton());
    simulator_ = std::make_unique<SystolicSimulator>(TechnologyParams{}, SimFidelity::kAnalytical);
    fast_ = std::make_unique<FastEvaluator>(*space_, *skeleton_, *simulator_,
                              FastEvaluatorOptions{.predictor_samples = 200, .seed = 3});
    accurate_ = std::make_unique<AccurateEvaluator>(*skeleton_);
  }
  static void TearDownTestSuite() {
    accurate_.reset();
    fast_.reset();
    simulator_.reset();
    skeleton_.reset();
    space_.reset();
  }

  static std::unique_ptr<DesignSpace> space_;
  static std::unique_ptr<NetworkSkeleton> skeleton_;
  static std::unique_ptr<SystolicSimulator> simulator_;
  static std::unique_ptr<FastEvaluator> fast_;
  static std::unique_ptr<AccurateEvaluator> accurate_;
};

std::unique_ptr<DesignSpace> EvaluatorTest::space_;
std::unique_ptr<NetworkSkeleton> EvaluatorTest::skeleton_;
std::unique_ptr<SystolicSimulator> EvaluatorTest::simulator_;
std::unique_ptr<FastEvaluator> EvaluatorTest::fast_;
std::unique_ptr<AccurateEvaluator> EvaluatorTest::accurate_;

TEST_F(EvaluatorTest, FastEvaluatorSaneRanges) {
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    const CandidateDesign c = space_->random_candidate(rng);
    const EvalResult r = fast_->evaluate(c);
    EXPECT_GT(r.accuracy, 0.5);
    EXPECT_LT(r.accuracy, 1.0);
    EXPECT_GT(r.latency_ms, 0.0);
    EXPECT_GT(r.energy_mj, 0.0);
    EXPECT_LT(r.energy_mj, 100.0);
  }
}

TEST_F(EvaluatorTest, FastTracksAccurateOrdering) {
  // The fast evaluator must broadly agree with the accurate one on which of
  // two very different designs is cheaper.
  Rng rng(2);
  CandidateDesign small = space_->random_candidate(rng);
  small.config = AcceleratorConfig{16, 32, 512, 512,
                                   Dataflow::kOutputStationary};
  CandidateDesign big = small;
  big.config = AcceleratorConfig{8, 8, 108, 64, Dataflow::kNoLocalReuse};
  const EvalResult fs = fast_->evaluate(small);
  const EvalResult fb = fast_->evaluate(big);
  const EvalResult as = accurate_->evaluate(small);
  const EvalResult ab = accurate_->evaluate(big);
  EXPECT_EQ(fs.latency_ms < fb.latency_ms, as.latency_ms < ab.latency_ms);
}

TEST_F(EvaluatorTest, AccurateMatchesSimulatorDirectly) {
  Rng rng(3);
  const CandidateDesign c = space_->random_candidate(rng);
  const EvalResult r = accurate_->evaluate(c);
  const SimulationResult sim =
      accurate_->simulator().simulate_network(c.genotype, *skeleton_,
                                              c.config);
  EXPECT_DOUBLE_EQ(r.latency_ms, sim.latency_ms);
  EXPECT_DOUBLE_EQ(r.energy_mj, sim.energy_mj);
}

TEST_F(EvaluatorTest, AccurateAccuracyIsFullTraining) {
  Rng rng(4);
  const CandidateDesign c = space_->random_candidate(rng);
  const EvalResult r = accurate_->evaluate(c);
  AccuracyModel model(*skeleton_);
  EXPECT_DOUBLE_EQ(r.accuracy, 1.0 - model.test_error(c.genotype) / 100.0);
}

TEST_F(EvaluatorTest, FastAccuracyIsHypernetProxy) {
  Rng rng(5);
  const CandidateDesign c = space_->random_candidate(rng);
  const EvalResult r = fast_->evaluate(c);
  EXPECT_DOUBLE_EQ(r.accuracy,
                   fast_->accuracy_model().hypernet_accuracy(c.genotype));
}

TEST_F(EvaluatorTest, ConstructionFromPrecollectedSamples) {
  Rng rng(6);
  const auto samples = collect_samples(120, *simulator_,
                                       space_->config_space(), *skeleton_,
                                       rng);
  FastEvaluator fast2(*skeleton_, samples);
  const CandidateDesign c = space_->random_candidate(rng);
  const EvalResult r = fast2.evaluate(c);
  EXPECT_GT(r.energy_mj, 0.0);
}

TEST_F(EvaluatorTest, EvaluationIsDeterministic) {
  Rng rng(7);
  const CandidateDesign c = space_->random_candidate(rng);
  const EvalResult r1 = fast_->evaluate(c);
  const EvalResult r2 = fast_->evaluate(c);
  EXPECT_DOUBLE_EQ(r1.accuracy, r2.accuracy);
  EXPECT_DOUBLE_EQ(r1.energy_mj, r2.energy_mj);
  EXPECT_DOUBLE_EQ(r1.latency_ms, r2.latency_ms);
}

// Accelerator variants of one network that agree in the low 8 bits of the
// PE array size or the low 16 bits of the global buffer are still distinct
// designs: each element of a memo-cold batch equals evaluate() bit for bit.
TEST_F(EvaluatorTest, BatchKeepsWideConfigVariantsApart) {
  Rng rng(8);
  const CandidateDesign base = space_->random_candidate(rng);
  const auto variant = [&base](int pe, int g_buf_kb) {
    CandidateDesign c = base;
    c.config.pe_rows = pe;
    c.config.pe_cols = pe;
    c.config.g_buf_kb = g_buf_kb;
    return c;
  };
  for (const std::vector<CandidateDesign>& batch :
       {std::vector{variant(256, 512), variant(512, 512)},
        std::vector{variant(16, 108), variant(16, 65644)}}) {
    fast_->clear_cache();
    const std::vector<EvalResult> got = fast_->evaluate_batch(batch);
    ASSERT_EQ(got.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const EvalResult want = fast_->evaluate(batch[i]);
      EXPECT_EQ(got[i].accuracy, want.accuracy) << batch[i].config.to_string();
      EXPECT_EQ(got[i].latency_ms, want.latency_ms)
          << batch[i].config.to_string();
      EXPECT_EQ(got[i].energy_mj, want.energy_mj)
          << batch[i].config.to_string();
    }
  }
}

}  // namespace
}  // namespace yoso
