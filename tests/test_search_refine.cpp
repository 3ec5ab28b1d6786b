// Online refinement: the Evaluator::refine() hook on the sparse-predictor
// FastEvaluator (GP updates + memo-cache flush), the SearchOptions
// contracts for the new predictor knobs, and the end-to-end search-driver
// loop folding accurate results into the fast evaluator on a fixed cadence
// with bit-identical output across thread counts.

#include <gtest/gtest.h>
#include <memory>
#include <vector>

#include "accel/simulator.h"
#include "arch/network.h"
#include "base/contract.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"
#include "core/search.h"
#include "predictor/gp.h"
#include "predictor/perf_predictor.h"
#include "util/exec_context.h"
#include "util/rng.h"

namespace yoso {
namespace {

class SearchRefineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    space_ = std::make_unique<DesignSpace>();
    skeleton_ = std::make_unique<NetworkSkeleton>(default_skeleton());
    const SystolicSimulator sim({}, SimFidelity::kAnalytical);
    Rng rng(9);
    samples_ = std::make_unique<std::vector<PerfSample>>(
        collect_samples(150, sim, space_->config_space(), *skeleton_, rng));
    accurate_ = std::make_unique<AccurateEvaluator>(
        *skeleton_, SystolicSimulator({}, SimFidelity::kAnalytical));
  }
  static void TearDownTestSuite() {
    accurate_.reset();
    samples_.reset();
    skeleton_.reset();
    space_.reset();
  }

  // Refinement mutates the evaluator, so every test builds a fresh one
  // from the shared sample set.
  static FastEvaluator sparse_fast() {
    return FastEvaluator(*skeleton_, *samples_, GpBackend::kSparse, 64);
  }

  static SearchOptions refine_options() {
    SearchOptions opt;
    opt.iterations = 60;
    opt.batch_size = 8;
    opt.top_n = 5;
    opt.trace_every = 10;
    opt.reward = balanced_reward();
    opt.seed = 13;
    opt.predictor = GpBackend::kSparse;
    opt.inducing_points = 64;
    opt.refine_every = 20;
    return opt;
  }

  static std::unique_ptr<DesignSpace> space_;
  static std::unique_ptr<NetworkSkeleton> skeleton_;
  static std::unique_ptr<std::vector<PerfSample>> samples_;
  static std::unique_ptr<AccurateEvaluator> accurate_;
};

std::unique_ptr<DesignSpace> SearchRefineTest::space_;
std::unique_ptr<NetworkSkeleton> SearchRefineTest::skeleton_;
std::unique_ptr<std::vector<PerfSample>> SearchRefineTest::samples_;
std::unique_ptr<AccurateEvaluator> SearchRefineTest::accurate_;

TEST_F(SearchRefineTest, OptionsValidateRefinementContracts) {
  SearchOptions opt = refine_options();
  EXPECT_NO_THROW(opt.validate());
  opt.predictor = GpBackend::kExact;  // refine_every without sparse backend
  EXPECT_THROW(opt.validate(), ContractViolation);
  opt.refine_every = 0;
  EXPECT_NO_THROW(opt.validate());
  opt.inducing_points = 0;
  EXPECT_THROW(opt.validate(), ContractViolation);
}

TEST_F(SearchRefineTest, RefineUpdatesPredictorAndFlushesCache) {
  FastEvaluator fast = sparse_fast();
  EXPECT_TRUE(fast.predictor().supports_refinement());
  Rng rng(21);
  std::vector<CandidateDesign> batch;
  for (int i = 0; i < 6; ++i)
    batch.push_back(space_->random_candidate(rng));
  const EvalResult before = fast.evaluate(batch[0]);
  fast.evaluate_batch(batch);
  EXPECT_GT(fast.cache_size(), 0u);

  const EvalResult truth = accurate_->evaluate(batch[0]);
  EXPECT_TRUE(fast.refine(batch[0], truth));
  EXPECT_EQ(fast.predictor().model().updates_applied(), 1u);
  EXPECT_EQ(fast.cache_size(), 0u) << "stale memo entries must be flushed";

  // The refined GP pair answers differently — and evaluate_batch agrees
  // with evaluate() again after the flush.
  const EvalResult after = fast.evaluate(batch[0]);
  EXPECT_NE(after.latency_ms, before.latency_ms);
  const std::vector<EvalResult> rebatch = fast.evaluate_batch(batch);
  EXPECT_DOUBLE_EQ(rebatch[0].latency_ms, after.latency_ms);
  EXPECT_DOUBLE_EQ(rebatch[0].energy_mj, after.energy_mj);
}

TEST_F(SearchRefineTest, ExactBackendRefineIsANoOp) {
  FastEvaluator fast(*skeleton_, *samples_);  // exact backend
  EXPECT_FALSE(fast.predictor().supports_refinement());
  Rng rng(23);
  const CandidateDesign c = space_->random_candidate(rng);
  const EvalResult before = fast.evaluate(c);
  fast.evaluate_batch(std::span<const CandidateDesign>(&c, 1));
  const std::size_t cached = fast.cache_size();
  EXPECT_FALSE(fast.refine(c, accurate_->evaluate(c)));
  EXPECT_EQ(fast.predictor().model().updates_applied(), 0u);
  EXPECT_EQ(fast.cache_size(), cached) << "no-op refine must keep the cache";
  const EvalResult after = fast.evaluate(c);
  EXPECT_DOUBLE_EQ(after.latency_ms, before.latency_ms);
}

TEST_F(SearchRefineTest, DriverRefinesOnCadenceEndToEnd) {
  FastEvaluator fast = sparse_fast();
  YosoSearch search(*space_, refine_options());
  const SearchResult r = search.run(fast, accurate_.get());
  // 60 iterations at refine_every = 20 crosses three boundaries.
  EXPECT_EQ(r.refinements, 3u);
  EXPECT_EQ(fast.predictor().model().updates_applied(), 3u);
  EXPECT_EQ(r.iterations_run, 60u);
  EXPECT_FALSE(r.finalists.empty());
  ASSERT_TRUE(r.best.has_value());
}

TEST_F(SearchRefineTest, RefinedSearchBitIdenticalAcrossThreadCounts) {
  FastEvaluator serial_fast = sparse_fast();
  const SearchResult serial =
      YosoSearch(*space_, refine_options()).run(serial_fast, accurate_.get());
  for (const std::size_t threads : {2u, 8u}) {
    FastEvaluator fast = sparse_fast();
    const SearchResult r = YosoSearch(*space_, refine_options())
                               .run(fast, accurate_.get(),
                                    ExecContext::create(threads));
    EXPECT_EQ(r.refinements, serial.refinements) << threads;
    ASSERT_EQ(r.finalists.size(), serial.finalists.size()) << threads;
    EXPECT_EQ(r.best_fast_reward, serial.best_fast_reward) << threads;
    for (std::size_t i = 0; i < r.finalists.size(); ++i) {
      EXPECT_EQ(candidate_key(r.finalists[i].candidate),
                candidate_key(serial.finalists[i].candidate))
          << "threads=" << threads << " finalist " << i;
      EXPECT_EQ(r.finalists[i].fast_reward, serial.finalists[i].fast_reward)
          << "threads=" << threads << " finalist " << i;
    }
  }
}

TEST_F(SearchRefineTest, RefinementOffLeavesResultUntouched) {
  SearchOptions opt = refine_options();
  opt.refine_every = 0;
  FastEvaluator fast = sparse_fast();
  const SearchResult r = YosoSearch(*space_, opt).run(fast, accurate_.get());
  EXPECT_EQ(r.refinements, 0u);
  EXPECT_EQ(fast.predictor().model().updates_applied(), 0u);
}

}  // namespace
}  // namespace yoso
