#pragma once
// Alternative search strategies over the same joint design space.
//
// Paper §III.B motivates the LSTM+RL searcher by claiming that "typical
// search methods such as Bayesian Optimization [and] Bandit algorithms ...
// behave like random search in high dimensional search space".  These
// drivers make that claim testable inside this framework:
//
//  * EvolutionarySearch — regularized evolution (tournament selection +
//    single-action mutation + aging), the method behind AmoebaNet;
//  * BayesOptSearch    — GP surrogate over design features with an
//    expected-improvement acquisition maximised over a random pool.
//
// Both extend SearchDriver, so they run through the same bookkeeping
// (trace, finalist pool, Step-3 rerank) as YosoSearch /
// RandomSearchDriver and results are directly comparable.  Their proposal
// loops are inherently sequential (each child depends on all previous
// rewards), so they submit one candidate at a time; options.batch_size is
// ignored, while an ExecContext passed to run() still parallelizes Step-1
// sampling and the Step-3 rerank.

#include "core/design_space.h"
#include "core/search.h"
#include "util/rng.h"

namespace yoso {

struct EvolutionOptions {
  std::size_t population = 64;       ///< aging-queue capacity
  std::size_t tournament = 10;       ///< sampled contestants per step
  double mutation_rate = 1.0;        ///< expected mutated actions per child
};

/// Regularized evolution over the 44-action sequence.
class EvolutionarySearch : public SearchDriver {
 public:
  /// Throws ContractViolation unless population and tournament are >= 1.
  EvolutionarySearch(const DesignSpace& space, SearchOptions options,
                     EvolutionOptions evolution = {});

 protected:
  void search(SearchLoop& loop, Rng& rng) override;
  std::uint64_t rng_salt() const override { return 0xeull; }

 private:
  EvolutionOptions evolution_;
};

struct BayesOptOptions {
  std::size_t initial_random = 40;   ///< warm-up observations
  std::size_t refit_every = 25;      ///< GP refit cadence
  std::size_t train_window = 250;    ///< most recent observations kept
  std::size_t acquisition_pool = 64; ///< random candidates scored per step
};

/// GP-surrogate Bayesian optimisation with expected improvement.
class BayesOptSearch : public SearchDriver {
 public:
  /// Throws ContractViolation unless refit_every and acquisition_pool are
  /// >= 1.
  BayesOptSearch(const DesignSpace& space, SearchOptions options,
                 BayesOptOptions bayes = {});

 protected:
  void search(SearchLoop& loop, Rng& rng) override;
  std::uint64_t rng_salt() const override { return 0xb0ull; }

 private:
  BayesOptOptions bayes_;
};

/// Expected improvement for a maximisation problem:
/// EI(mu, var, best) = (mu - best) Phi(z) + sigma phi(z), z = (mu-best)/sigma.
double expected_improvement(double mu, double variance, double best);

}  // namespace yoso
