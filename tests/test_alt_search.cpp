#include <cmath>
#include <gtest/gtest.h>
#include <memory>

#include "accel/simulator.h"
#include "arch/network.h"
#include "base/contract.h"
#include "core/alt_search.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/search.h"

namespace yoso {
namespace {

class AltSearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    space_ = std::make_unique<DesignSpace>();
    const NetworkSkeleton skeleton = default_skeleton();
    SystolicSimulator sim({}, SimFidelity::kAnalytical);
    fast_ = std::make_unique<FastEvaluator>(*space_, skeleton, sim,
                              FastEvaluatorOptions{.predictor_samples = 150, .seed = 77});
  }
  static void TearDownTestSuite() {
    fast_.reset();
    space_.reset();
  }

  static SearchOptions options(std::size_t iters, std::uint64_t seed = 5) {
    SearchOptions opt;
    opt.iterations = iters;
    opt.top_n = 5;
    opt.trace_every = 10;
    opt.reward = balanced_reward();
    opt.seed = seed;
    return opt;
  }

  static std::unique_ptr<DesignSpace> space_;
  static std::unique_ptr<FastEvaluator> fast_;
};

std::unique_ptr<DesignSpace> AltSearchTest::space_;
std::unique_ptr<FastEvaluator> AltSearchTest::fast_;

TEST(ExpectedImprovement, KnownValues) {
  // Zero variance, mu below best -> 0 improvement.
  EXPECT_NEAR(expected_improvement(1.0, 0.0, 2.0), 0.0, 1e-9);
  // mu well above best with tiny variance -> ~mu - best.
  EXPECT_NEAR(expected_improvement(3.0, 1e-12, 2.0), 1.0, 1e-6);
  // Symmetric case mu == best: EI = sigma/sqrt(2 pi).
  EXPECT_NEAR(expected_improvement(2.0, 4.0, 2.0),
              2.0 / std::sqrt(2.0 * 3.14159265358979), 1e-6);
  // EI is increasing in variance at fixed mu <= best.
  EXPECT_GT(expected_improvement(1.0, 4.0, 2.0),
            expected_improvement(1.0, 1.0, 2.0));
}

TEST_F(AltSearchTest, EvolutionProducesValidResult) {
  EvolutionarySearch evo(*space_, options(150));
  const SearchResult r = evo.run(*fast_, nullptr);
  EXPECT_EQ(r.iterations_run, 150u);
  EXPECT_FALSE(r.finalists.empty());
  ASSERT_TRUE(r.best.has_value());
  EXPECT_GT(r.best_fast_reward, 0.0);
  EXPECT_FALSE(r.trace.empty());
}

TEST_F(AltSearchTest, EvolutionDeterministicPerSeed) {
  EvolutionarySearch a(*space_, options(80, 9));
  EvolutionarySearch b(*space_, options(80, 9));
  const SearchResult ra = a.run(*fast_, nullptr);
  const SearchResult rb = b.run(*fast_, nullptr);
  EXPECT_DOUBLE_EQ(ra.best_fast_reward, rb.best_fast_reward);
}

TEST_F(AltSearchTest, EvolutionImprovesOverWarmup) {
  EvolutionOptions evo_opt;
  evo_opt.population = 32;
  evo_opt.tournament = 8;
  EvolutionarySearch evo(*space_, options(600, 3), evo_opt);
  const SearchResult r = evo.run(*fast_, nullptr);
  // Mean late-phase reward beats the random warm-up phase.
  double early = 0.0, late = 0.0;
  std::size_t ne = 0, nl = 0;
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    if (r.trace[i].iteration < 32) {
      early += r.trace[i].reward;
      ++ne;
    } else if (i >= r.trace.size() * 3 / 4) {
      late += r.trace[i].reward;
      ++nl;
    }
  }
  ASSERT_GT(ne, 0u);
  ASSERT_GT(nl, 0u);
  EXPECT_GT(late / static_cast<double>(nl), early / static_cast<double>(ne));
}

// Each of these used to crash the search: a zero tournament left the
// parent null (segfault), a zero refit cadence divided by zero (SIGFPE).
TEST_F(AltSearchTest, EvolutionRejectsEmptyPopulationOrTournament) {
  EvolutionOptions no_tournament;
  no_tournament.tournament = 0;
  EXPECT_THROW(EvolutionarySearch(*space_, options(80), no_tournament),
               ContractViolation);
  EvolutionOptions no_population;
  no_population.population = 0;
  EXPECT_THROW(EvolutionarySearch(*space_, options(80), no_population),
               ContractViolation);
}

TEST_F(AltSearchTest, BayesOptRejectsZeroRefitOrPool) {
  BayesOptOptions no_refit;
  no_refit.refit_every = 0;
  EXPECT_THROW(BayesOptSearch(*space_, options(80), no_refit),
               ContractViolation);
  BayesOptOptions no_pool;
  no_pool.acquisition_pool = 0;
  EXPECT_THROW(BayesOptSearch(*space_, options(80), no_pool),
               ContractViolation);
}

TEST_F(AltSearchTest, BayesOptProducesValidResult) {
  BayesOptOptions bopt;
  bopt.initial_random = 20;
  bopt.refit_every = 20;
  bopt.acquisition_pool = 16;
  BayesOptSearch bo(*space_, options(80), bopt);
  const SearchResult r = bo.run(*fast_, nullptr);
  EXPECT_EQ(r.iterations_run, 80u);
  EXPECT_FALSE(r.finalists.empty());
  ASSERT_TRUE(r.best.has_value());
}

TEST_F(AltSearchTest, BayesOptAtLeastMatchesItsWarmup) {
  BayesOptOptions bopt;
  bopt.initial_random = 25;
  bopt.refit_every = 15;
  bopt.acquisition_pool = 24;
  BayesOptSearch bo(*space_, options(150, 13), bopt);
  const SearchResult r = bo.run(*fast_, nullptr);
  double warm_best = 0.0, total_best = 0.0;
  for (const auto& p : r.trace) {
    if (p.iteration < 25) warm_best = std::max(warm_best, p.reward);
    total_best = std::max(total_best, p.reward);
  }
  EXPECT_GE(total_best, warm_best);
}

TEST_F(AltSearchTest, AllDriversShareFinalistSemantics) {
  // Same options through three drivers: all must produce sorted, distinct
  // finalists.
  auto check = [](const SearchResult& r) {
    for (std::size_t i = 1; i < r.finalists.size(); ++i) {
      EXPECT_GE(r.finalists[i - 1].accurate_reward,
                r.finalists[i].accurate_reward);
      for (std::size_t j = 0; j < i; ++j)
        EXPECT_FALSE(r.finalists[i].candidate == r.finalists[j].candidate);
    }
  };
  EvolutionarySearch evo(*space_, options(120, 21));
  check(evo.run(*fast_, nullptr));
  BayesOptOptions bopt;
  bopt.initial_random = 15;
  bopt.acquisition_pool = 8;
  BayesOptSearch bo(*space_, options(60, 22), bopt);
  check(bo.run(*fast_, nullptr));
}

}  // namespace
}  // namespace yoso
