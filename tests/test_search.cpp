#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <utility>
#include <vector>

#include "accel/simulator.h"
#include "arch/network.h"
#include "base/contract.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"
#include "core/search.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace yoso {
namespace {

class SearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    space_ = std::make_unique<DesignSpace>();
    skeleton_ = std::make_unique<NetworkSkeleton>(default_skeleton());
    SystolicSimulator sim({}, SimFidelity::kAnalytical);
    fast_ = std::make_unique<FastEvaluator>(*space_, *skeleton_, sim,
                              FastEvaluatorOptions{.predictor_samples = 150, .seed = 9});
    accurate_ = std::make_unique<AccurateEvaluator>(
        *skeleton_, SystolicSimulator({}, SimFidelity::kAnalytical));
  }
  static void TearDownTestSuite() {
    accurate_.reset();
    fast_.reset();
    skeleton_.reset();
    space_.reset();
  }

  static SearchOptions small_options(std::size_t iters) {
    SearchOptions opt;
    opt.iterations = iters;
    opt.top_n = 5;
    opt.trace_every = 10;
    opt.reward = balanced_reward();
    opt.seed = 13;
    return opt;
  }

  static std::unique_ptr<DesignSpace> space_;
  static std::unique_ptr<NetworkSkeleton> skeleton_;
  static std::unique_ptr<FastEvaluator> fast_;
  static std::unique_ptr<AccurateEvaluator> accurate_;
};

std::unique_ptr<DesignSpace> SearchTest::space_;
std::unique_ptr<NetworkSkeleton> SearchTest::skeleton_;
std::unique_ptr<FastEvaluator> SearchTest::fast_;
std::unique_ptr<AccurateEvaluator> SearchTest::accurate_;

TEST_F(SearchTest, ProducesTraceFinalistsAndBest) {
  YosoSearch search(*space_, small_options(120));
  const SearchResult r = search.run(*fast_, accurate_.get());
  EXPECT_EQ(r.iterations_run, 120u);
  EXPECT_EQ(r.trace.size(), 12u);  // every 10th
  EXPECT_FALSE(r.finalists.empty());
  EXPECT_LE(r.finalists.size(), 5u);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_GT(r.best_fast_reward, 0.0);
}

TEST_F(SearchTest, TraceIterationsAscend) {
  YosoSearch search(*space_, small_options(100));
  const SearchResult r = search.run(*fast_, nullptr);
  for (std::size_t i = 1; i < r.trace.size(); ++i)
    EXPECT_LT(r.trace[i - 1].iteration, r.trace[i].iteration);
}

TEST_F(SearchTest, FinalistsSortedByAccurateReward) {
  YosoSearch search(*space_, small_options(150));
  const SearchResult r = search.run(*fast_, accurate_.get());
  for (std::size_t i = 1; i < r.finalists.size(); ++i)
    EXPECT_GE(r.finalists[i - 1].accurate_reward,
              r.finalists[i].accurate_reward);
}

TEST_F(SearchTest, FinalistsAreDistinct) {
  YosoSearch search(*space_, small_options(200));
  const SearchResult r = search.run(*fast_, nullptr);
  for (std::size_t i = 0; i < r.finalists.size(); ++i)
    for (std::size_t j = i + 1; j < r.finalists.size(); ++j)
      EXPECT_FALSE(r.finalists[i].candidate == r.finalists[j].candidate);
}

TEST_F(SearchTest, BestIsFeasibleWhenAnyFinalistIs) {
  YosoSearch search(*space_, small_options(200));
  const SearchResult r = search.run(*fast_, accurate_.get());
  ASSERT_TRUE(r.best.has_value());
  bool any_feasible = false;
  for (const auto& f : r.finalists) any_feasible |= f.feasible;
  if (any_feasible) {
    EXPECT_TRUE(r.best->feasible);
  }
}

TEST_F(SearchTest, WithoutAccurateEvaluatorKeepsFastScores) {
  YosoSearch search(*space_, small_options(80));
  const SearchResult r = search.run(*fast_, nullptr);
  for (const auto& f : r.finalists) {
    EXPECT_DOUBLE_EQ(f.accurate_result.energy_mj, f.fast_result.energy_mj);
    EXPECT_DOUBLE_EQ(f.accurate_reward,
                     small_options(1).reward.compute(f.fast_result));
  }
}

TEST_F(SearchTest, DeterministicForSameSeed) {
  YosoSearch s1(*space_, small_options(60));
  YosoSearch s2(*space_, small_options(60));
  const SearchResult r1 = s1.run(*fast_, nullptr);
  const SearchResult r2 = s2.run(*fast_, nullptr);
  EXPECT_DOUBLE_EQ(r1.best_fast_reward, r2.best_fast_reward);
  ASSERT_EQ(r1.trace.size(), r2.trace.size());
  for (std::size_t i = 0; i < r1.trace.size(); ++i)
    EXPECT_DOUBLE_EQ(r1.trace[i].reward, r2.trace[i].reward);
}

TEST_F(SearchTest, RandomSearchDriverSameInterface) {
  RandomSearchDriver driver(*space_, small_options(100));
  const SearchResult r = driver.run(*fast_, accurate_.get());
  EXPECT_EQ(r.iterations_run, 100u);
  EXPECT_FALSE(r.finalists.empty());
  ASSERT_TRUE(r.best.has_value());
}

TEST_F(SearchTest, RlBeatsRandomOnLateRewards) {
  // The Fig-6(a) property at miniature scale: with the same budget the RL
  // searcher's late-phase rewards exceed random search's.
  SearchOptions opt = small_options(800);
  opt.trace_every = 5;
  YosoSearch rl(*space_, opt);
  RandomSearchDriver random(*space_, opt);
  const SearchResult rr = rl.run(*fast_, nullptr);
  const SearchResult rd = random.run(*fast_, nullptr);
  auto tail_mean = [](const SearchResult& r) {
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t i = r.trace.size() * 3 / 4; i < r.trace.size(); ++i) {
      acc += r.trace[i].reward;
      ++n;
    }
    return acc / static_cast<double>(n);
  };
  EXPECT_GT(tail_mean(rr), tail_mean(rd));
}

// A 256x256 and a 512x512 PE array under one network are two designs,
// though the low bytes of their array sizes agree: a SearchLoop offered
// both keeps both as finalists.
TEST_F(SearchTest, LoopKeepsWideConfigVariantsApart) {
  Rng rng(21);
  CandidateDesign small = space_->random_candidate(rng);
  small.config.pe_rows = 256;
  small.config.pe_cols = 256;
  CandidateDesign big = small;
  big.config.pe_rows = 512;
  big.config.pe_cols = 512;
  const SearchOptions opt = small_options(2);
  SearchResult result;
  fast_->clear_cache();
  SearchLoop loop(opt, *fast_, result);
  loop.submit(std::vector<CandidateDesign>{small, big});
  const std::vector<RankedCandidate> finalists = loop.take_finalists();
  ASSERT_EQ(finalists.size(), 2u);
  EXPECT_NE(finalists[0].candidate, finalists[1].candidate);
}

// The library's Step-2 spans (rl.sample, core.decode, core.submit,
// rl.backward, rl.adam) account for search.step2_propose: at most 5% of it
// is its own self time.
TEST_F(SearchTest, Step2SpansCoverProposeTime) {
  obs::set_enabled(false);
  obs::reset_tracing();
  obs::set_enabled(true);
  SearchOptions opt = small_options(128);
  opt.batch_size = 8;
  YosoSearch(*space_, opt).run(*fast_, accurate_.get());
  obs::set_enabled(false);
  const std::vector<obs::SpanAggregate> spans = obs::summarize_spans();
  obs::reset_tracing();

  const auto find = [&](const char* name) -> const obs::SpanAggregate* {
    for (const obs::SpanAggregate& a : spans)
      if (a.name == name) return &a;
    return nullptr;
  };
  for (const char* child :
       {"rl.sample", "core.decode", "core.submit", "rl.backward", "rl.adam"}) {
    const obs::SpanAggregate* a = find(child);
    ASSERT_NE(a, nullptr) << child;
    EXPECT_GT(a->count, 0u) << child;
  }
  EXPECT_EQ(find("rl.sample")->count, 16u);  // one per round
  EXPECT_EQ(find("rl.backward")->count, 128u);
  const obs::SpanAggregate* propose = find("search.step2_propose");
  ASSERT_NE(propose, nullptr);
  EXPECT_LE(static_cast<double>(propose->self_ns),
            0.05 * static_cast<double>(propose->total_ns));
}

// The 46-action space through the same stack: one DesignSpace with skeleton
// choices, FastEvaluator, AccurateEvaluator and YosoSearch.
class SkeletonChoiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    space_ = std::make_unique<DesignSpace>(default_config_space(),
                                           std::vector<int>{1, 2, 3},
                                           std::vector<int>{16, 24, 32});
    SystolicSimulator sim({}, SimFidelity::kAnalytical);
    fast_ = std::make_unique<FastEvaluator>(
        *space_, default_skeleton(), sim,
        FastEvaluatorOptions{.predictor_samples = 180, .seed = 7});
    accurate_ = std::make_unique<AccurateEvaluator>(
        default_skeleton(), SystolicSimulator({}, SimFidelity::kAnalytical));
  }
  static void TearDownTestSuite() {
    accurate_.reset();
    fast_.reset();
    space_.reset();
  }

  /// A random candidate of the space on its smallest (1 normal cell per
  /// stage, stem 16) and largest (3, stem 32) skeletons.
  static std::pair<CandidateDesign, CandidateDesign> small_and_large(
      std::uint64_t seed) {
    Rng rng(seed);
    CandidateDesign small = space_->random_candidate(rng);
    small.normal_cells = 1;
    small.stem_channels = 16;
    CandidateDesign large = small;
    large.normal_cells = 3;
    large.stem_channels = 32;
    return {small, large};
  }

  static std::unique_ptr<DesignSpace> space_;
  static std::unique_ptr<FastEvaluator> fast_;
  static std::unique_ptr<AccurateEvaluator> accurate_;
};

std::unique_ptr<DesignSpace> SkeletonChoiceTest::space_;
std::unique_ptr<FastEvaluator> SkeletonChoiceTest::fast_;
std::unique_ptr<AccurateEvaluator> SkeletonChoiceTest::accurate_;

TEST_F(SkeletonChoiceTest, EvaluatorsRespondToSkeleton) {
  const auto [small_c, large_c] = small_and_large(9);
  const EvalResult small = accurate_->evaluate(small_c);
  const EvalResult large = accurate_->evaluate(large_c);
  EXPECT_GT(large.energy_mj, small.energy_mj);
  EXPECT_GT(large.latency_ms, small.latency_ms);
  // Bigger skeleton -> better (or equal) accuracy in the surrogate.
  EXPECT_GE(large.accuracy, small.accuracy - 0.02);
}

TEST_F(SkeletonChoiceTest, FastPredictorTracksSkeletonScale) {
  const auto [small_c, large_c] = small_and_large(11);
  EXPECT_GT(fast_->evaluate(large_c).energy_mj,
            fast_->evaluate(small_c).energy_mj);
  // A choice outside the space the evaluator was built for has no skeleton.
  CandidateDesign outside = small_c;
  outside.stem_channels = 20;
  EXPECT_THROW(fast_->evaluate(outside), ContractViolation);
}

TEST_F(SkeletonChoiceTest, SearchRunsAndReranks) {
  SearchOptions opt;
  opt.iterations = 150;
  opt.top_n = 5;
  opt.reward = energy_opt_reward();
  opt.seed = 13;
  const SearchResult r = YosoSearch(*space_, opt).run(*fast_, accurate_.get());
  ASSERT_FALSE(r.finalists.empty());
  ASSERT_TRUE(r.best.has_value());
  EXPECT_GT(r.best_fast_reward, 0.0);
  for (std::size_t i = 1; i < r.finalists.size(); ++i)
    EXPECT_GE(r.finalists[i - 1].accurate_reward,
              r.finalists[i].accurate_reward);
  // The pool dedupes on the full candidate, skeleton choices included.
  for (std::size_t i = 0; i < r.finalists.size(); ++i) {
    EXPECT_NE(r.finalists[i].candidate.normal_cells, 0);
    for (std::size_t j = i + 1; j < r.finalists.size(); ++j)
      EXPECT_NE(r.finalists[i].candidate, r.finalists[j].candidate);
  }
}

TEST(SearchOptionsValidate, AcceptsDefaults) {
  EXPECT_NO_THROW(SearchOptions{}.validate());
}

TEST(SearchOptionsValidate, RejectsZeroBatchSize) {
  SearchOptions opt;
  opt.batch_size = 0;
  EXPECT_THROW(opt.validate(), ContractViolation);
}

TEST(SearchOptionsValidate, RejectsZeroIterations) {
  SearchOptions opt;
  opt.iterations = 0;
  EXPECT_THROW(opt.validate(), ContractViolation);
}

TEST(SearchOptionsValidate, RejectsZeroTopN) {
  SearchOptions opt;
  opt.top_n = 0;
  EXPECT_THROW(opt.validate(), ContractViolation);
}

TEST(SearchOptionsValidate, RunRejectsBadOptionsBeforeTouchingEvaluators) {
  // Every driver funnels through SearchDriver::run(), which validates
  // before proposing anything — the CLI relies on this for its usage error.
  DesignSpace space;
  SearchOptions opt;
  opt.batch_size = 0;
  class NeverCalled : public Evaluator {
   public:
    EvalResult evaluate(const CandidateDesign&) override {
      ADD_FAILURE() << "evaluate() reached despite invalid options";
      return {};
    }
  } evaluator;
  EXPECT_THROW(RandomSearchDriver(space, opt).run(evaluator, nullptr),
               ContractViolation);
}

TEST(RerankFinalists, OrdersAndMarksFeasibility) {
  SearchResult r;
  RankedCandidate a, b;
  a.fast_reward = 1.0;
  a.fast_result = {0.9, 0.5, 4.0};  // feasible
  b.fast_reward = 2.0;
  b.fast_result = {0.9, 5.0, 40.0};  // infeasible but higher fast reward
  r.finalists = {b, a};
  rerank_finalists(r, balanced_reward(), nullptr);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_TRUE(r.best->feasible);
  EXPECT_DOUBLE_EQ(r.best->fast_result.latency_ms, 0.5);
}

TEST(RerankFinalists, FallsBackWhenNothingFeasible) {
  SearchResult r;
  RankedCandidate a;
  a.fast_result = {0.9, 5.0, 40.0};
  r.finalists = {a};
  rerank_finalists(r, balanced_reward(), nullptr);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_FALSE(r.best->feasible);
}

}  // namespace
}  // namespace yoso
