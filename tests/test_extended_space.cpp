#include <gtest/gtest.h>
#include <memory>
#include <set>

#include "accel/simulator.h"
#include "arch/network.h"
#include "base/contract.h"
#include "core/extended_space.h"
#include "core/reward.h"
#include "core/search.h"
#include "util/rng.h"

namespace yoso {
namespace {

TEST(ExtendedSpace, FortySixActions) {
  ExtendedDesignSpace space;
  EXPECT_EQ(space.num_actions(), 46);
  const auto cards = space.cardinalities();
  ASSERT_EQ(cards.size(), 46u);
  EXPECT_EQ(cards[44], 3);  // depth options {1,2,3}
  EXPECT_EQ(cards[45], 3);  // stem options {16,24,32}
}

TEST(ExtendedSpace, SkeletonForBuildsPaperPattern) {
  ExtendedDesignSpace space;
  const NetworkSkeleton s = space.skeleton_for(1, 2);  // depth 2, stem 32
  // N N R N N R
  ASSERT_EQ(s.cells.size(), 6u);
  EXPECT_EQ(s.cells[0], CellKind::kNormal);
  EXPECT_EQ(s.cells[2], CellKind::kReduction);
  EXPECT_EQ(s.cells[5], CellKind::kReduction);
  EXPECT_EQ(s.stem_channels, 32);
  // Depth 1: N R N R.
  EXPECT_EQ(space.skeleton_for(0, 0).cells.size(), 4u);
  EXPECT_THROW(space.skeleton_for(3, 0), std::invalid_argument);
}

TEST(ExtendedSpace, EncodeDecodeRoundTrip) {
  ExtendedDesignSpace space;
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const ExtendedCandidate c = space.random_candidate(rng);
    const auto actions = space.encode(c);
    ASSERT_EQ(actions.size(), 46u);
    EXPECT_TRUE(space.decode(actions) == c);
  }
}

TEST(ExtendedSpace, DecodeRejectsWrongLength) {
  ExtendedDesignSpace space;
  EXPECT_THROW(space.decode(std::vector<int>(44, 0)), std::invalid_argument);
}

TEST(ExtendedSpace, RandomCandidatesCoverSkeletons) {
  ExtendedDesignSpace space;
  Rng rng(5);
  std::set<std::size_t> cell_counts;
  std::set<int> stems;
  for (int i = 0; i < 100; ++i) {
    const ExtendedCandidate c = space.random_candidate(rng);
    cell_counts.insert(c.skeleton.cells.size());
    stems.insert(c.skeleton.stem_channels);
  }
  EXPECT_EQ(cell_counts.size(), 3u);  // 4, 6, 8 cells
  EXPECT_EQ(stems.size(), 3u);
}

class ExtendedSearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    space_ = std::make_unique<ExtendedDesignSpace>();
    SystolicSimulator sim({}, SimFidelity::kAnalytical);
    fast_ = std::make_unique<ExtendedFastEvaluator>(*space_, sim, 180, 7);
    accurate_ = std::make_unique<ExtendedAccurateEvaluator>(
        SystolicSimulator({}, SimFidelity::kAnalytical));
  }
  static void TearDownTestSuite() {
    accurate_.reset();
    fast_.reset();
    space_.reset();
  }
  static std::unique_ptr<ExtendedDesignSpace> space_;
  static std::unique_ptr<ExtendedFastEvaluator> fast_;
  static std::unique_ptr<ExtendedAccurateEvaluator> accurate_;
};

std::unique_ptr<ExtendedDesignSpace> ExtendedSearchTest::space_;
std::unique_ptr<ExtendedFastEvaluator> ExtendedSearchTest::fast_;
std::unique_ptr<ExtendedAccurateEvaluator> ExtendedSearchTest::accurate_;

TEST_F(ExtendedSearchTest, EvaluatorsRespondToSkeleton) {
  Rng rng(9);
  ExtendedCandidate c = space_->random_candidate(rng);
  c.skeleton = space_->skeleton_for(0, 0);  // smallest
  const EvalResult small = accurate_->evaluate(c);
  c.skeleton = space_->skeleton_for(2, 2);  // largest
  const EvalResult large = accurate_->evaluate(c);
  EXPECT_GT(large.energy_mj, small.energy_mj);
  EXPECT_GT(large.latency_ms, small.latency_ms);
  // Bigger skeleton -> better (or equal) accuracy in the surrogate.
  EXPECT_GE(large.accuracy, small.accuracy - 0.02);
}

TEST_F(ExtendedSearchTest, FastPredictorTracksSkeletonScale) {
  Rng rng(11);
  ExtendedCandidate c = space_->random_candidate(rng);
  c.skeleton = space_->skeleton_for(0, 0);
  const EvalResult small = fast_->evaluate(c);
  c.skeleton = space_->skeleton_for(2, 2);
  const EvalResult large = fast_->evaluate(c);
  EXPECT_GT(large.energy_mj, small.energy_mj);
}

TEST_F(ExtendedSearchTest, SearchRunsAndReranks) {
  SearchOptions opt;
  opt.iterations = 150;
  opt.top_n = 5;
  opt.reward = energy_opt_reward();
  opt.seed = 13;
  ExtendedSearch search(*space_, opt);
  const ExtendedSearchResult r = search.run(*fast_, accurate_.get());
  EXPECT_FALSE(r.finalists.empty());
  ASSERT_TRUE(r.best.has_value());
  EXPECT_GT(r.best_fast_reward, 0.0);
  for (std::size_t i = 1; i < r.finalists.size(); ++i)
    EXPECT_GE(r.finalists[i - 1].accurate_reward,
              r.finalists[i].accurate_reward);
}

// run() validates its options like SearchDriver::run: top_n = 0 used to
// read the back of an empty finalist pool (segfault).
TEST_F(ExtendedSearchTest, RunRejectsInvalidOptions) {
  SearchOptions opt;
  opt.iterations = 10;
  opt.top_n = 0;
  ExtendedSearch search(*space_, opt);
  EXPECT_THROW(search.run(*fast_, accurate_.get()), ContractViolation);
}

}  // namespace
}  // namespace yoso
