#pragma once
// The YOSO search drivers (paper Fig 2, Steps 2-3).
//
// Step 2: a proposal strategy iterates — propose candidate designs, score
// them with the fast evaluator, feed the multi-objective reward back.
// Step 3: the top-N candidates by fast reward are re-scored with the
// accurate evaluator (full training + cycle-level simulation) and the best
// feasible one is the final solution.
//
// Every strategy (RL, random, and the evolutionary/BayesOpt drivers in
// core/alt_search.h) extends SearchDriver: the base class owns the run()
// pipeline — evaluator parallelism setup, the shared per-iteration
// bookkeeping (finalist pool, best-reward tracking, trace sampling) via
// SearchLoop, and the Step-3 rerank — while subclasses only implement the
// proposal loop.
//
// Batched evaluation: strategies submit K candidates per round through
// SearchLoop::submit(), which routes them to Evaluator::evaluate_batch()
// (parallel + memoized for FastEvaluator) and then applies all bookkeeping
// in proposal order.  Search output is therefore bit-identical across
// thread counts; see DESIGN.md "Threading model".

#include <limits>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "base/thread_annotations.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"
#include "predictor/gp.h"
#include "rl/controller.h"
#include "rl/reinforce.h"
#include "util/exec_context.h"
#include "util/rng.h"

namespace yoso {

/// One recorded search iteration.
struct SearchTracePoint {
  std::size_t iteration = 0;
  double reward = 0.0;
  EvalResult result;
  CandidateDesign candidate;
};

struct SearchOptions {
  std::size_t iterations = 3000;
  std::size_t top_n = 10;        ///< finalists for accurate reranking
  std::size_t trace_every = 10;  ///< record every k-th iteration (0 = never)
  RewardParams reward;           ///< Eq. 2 coefficients
  ControllerOptions controller;
  ReinforceOptions reinforce;
  std::uint64_t seed = 7;
  std::size_t batch_size = 1;  ///< candidates proposed & evaluated per round
  /// Performance-predictor backend the fast evaluator should be built with
  /// (yoso_cli's --predictor flag lands here so validate() owns the
  /// contract): kSparse caps the GPs at `inducing_points` inducing rows and
  /// unlocks online refinement.
  GpBackend predictor = GpBackend::kExact;
  std::size_t inducing_points = 512;  ///< sparse-backend inducing-set cap
  /// Online-refinement cadence: every `refine_every` submitted iterations
  /// the current round's best candidate is scored by the accurate evaluator
  /// and folded back into the fast evaluator via Evaluator::refine()
  /// (O(m^2) GP updates + memo-cache flush).  0 disables refinement.
  /// Requires the sparse predictor backend — validate() rejects the
  /// combination with exact, whose refine() is a guaranteed no-op.
  std::size_t refine_every = 0;

  /// The one place the option contracts live: throws ContractViolation on
  /// an unusable combination (zero iterations, zero batch_size, zero
  /// top_n).  SearchDriver::run() calls this before doing anything, so
  /// every driver — and yoso_cli — rejects bad options identically.
  /// (Parallelism is no longer an option: pass an ExecContext to run().)
  void validate() const;
};

/// A reranked finalist.
struct RankedCandidate {
  CandidateDesign candidate;
  double fast_reward = 0.0;
  double accurate_reward = 0.0;
  EvalResult fast_result;
  EvalResult accurate_result;
  bool feasible = false;
};

struct SearchResult {
  std::vector<SearchTracePoint> trace;       ///< sampled iterations
  std::vector<RankedCandidate> finalists;    ///< top-N after reranking
  std::optional<RankedCandidate> best;       ///< best feasible finalist
  double best_fast_reward = -std::numeric_limits<double>::infinity();
  std::size_t iterations_run = 0;
  /// Accurate-simulator results folded back into the fast evaluator during
  /// Step 2 (0 unless refine_every was set).
  std::size_t refinements = 0;
};

/// Keeps the best-`capacity` *distinct* candidates seen so far, ranked by
/// fast reward.  Shared by all search drivers (RL, random, evolutionary,
/// Bayesian) so their Step-3 inputs are comparable.  Dedupe is a hash-set
/// lookup on candidate_key() and the entry list stays sorted via
/// binary-search insertion, so offer() costs O(log capacity) amortised
/// instead of the old O(n) scan + full sort.
class FinalistPool {
 public:
  explicit FinalistPool(std::size_t capacity) : capacity_(capacity) {}

  void offer(const CandidateDesign& candidate, double reward,
             const EvalResult& result);

  /// Moves the collected finalists out (sorted by fast reward, desc).
  std::vector<RankedCandidate> take() {
    ThreadRoleGuard coordinator(role_);
    return std::move(entries_);
  }

 private:
  std::size_t capacity_;
  /// Offers must stay in proposal order for determinism, so the pool is
  /// coordinator-only state: entries_/seen_ are guarded by the serial role,
  /// never handed to evaluator workers.
  mutable ThreadRole role_;
  std::vector<RankedCandidate> entries_    // sorted by fast_reward desc
      YOSO_GUARDED_BY(role_);
  std::unordered_set<CandidateKey, CandidateKeyHash>
      seen_ YOSO_GUARDED_BY(role_);  // keys of every offered design
};

/// The per-iteration bookkeeping every driver shares: batch evaluation via
/// the evaluator's batched API, finalist offers, best-reward tracking and
/// trace sampling — all applied in proposal order, so results do not depend
/// on how the evaluator parallelizes internally.
class SearchLoop {
 public:
  /// `refiner` is the accurate evaluator driving online refinement; null
  /// (or options.refine_every == 0) leaves refinement off.
  SearchLoop(const SearchOptions& options, Evaluator& fast,
             SearchResult& result, Evaluator* refiner = nullptr)
      : options_(options),
        fast_(fast),
        result_(result),
        refiner_(refiner),
        pool_(options.top_n) {}

  /// Evaluates `batch` and applies the bookkeeping for each candidate in
  /// order; returns the per-candidate rewards.
  std::vector<double> submit(std::span<const CandidateDesign> batch);

  /// Single-candidate convenience for inherently sequential strategies.
  double submit(const CandidateDesign& candidate);

  std::size_t iterations_done() const {
    ThreadRoleGuard coordinator(role_);
    return iteration_;
  }
  std::vector<RankedCandidate> take_finalists() { return pool_.take(); }

 private:
  const SearchOptions& options_;
  Evaluator& fast_;
  SearchResult& result_;
  Evaluator* refiner_ = nullptr;
  FinalistPool pool_;
  /// Per-iteration bookkeeping (counters, best-reward, trace emission) is
  /// applied in submission order on the driving thread only; the role guard
  /// lets the compiler reject any future attempt to update it from a worker.
  mutable ThreadRole role_;
  std::size_t iteration_ YOSO_GUARDED_BY(role_) = 0;
};

/// Abstract base every search strategy implements.  run() is the template
/// method: it validates the options, injects the execution context, drives
/// the strategy's proposal loop against a SearchLoop, then reranks the
/// finalists.
class SearchDriver {
 public:
  SearchDriver(const DesignSpace& space, SearchOptions options)
      : space_(space), options_(std::move(options)) {}
  virtual ~SearchDriver() = default;

  /// Runs Step 2 against `fast`, then Step 3 against `accurate`.
  /// When `accurate` is null, finalists keep their fast scores.  A non-null
  /// `exec` is injected into both evaluators so they share its thread pool
  /// (util/exec_context.h); null leaves each evaluator's current context
  /// untouched.  Thread count never affects the result.
  SearchResult run(Evaluator& fast, Evaluator* accurate,
                   ExecContextPtr exec = nullptr);

  const SearchOptions& options() const { return options_; }

 protected:
  /// Strategy body: propose candidates and feed them through `loop` until
  /// options().iterations have been submitted.  `rng` is seeded with
  /// options().seed xor rng_salt().
  virtual void search(SearchLoop& loop, Rng& rng) = 0;

  /// Per-strategy RNG stream salt (keeps historical streams intact).
  virtual std::uint64_t rng_salt() const = 0;

  const DesignSpace& space_;
  SearchOptions options_;
};

/// The paper's Step-2 driver: LSTM controller + REINFORCE.  Proposes
/// options.batch_size episodes per round, evaluates the batch (in parallel
/// across the injected ExecContext), then applies feedback in proposal
/// order.
class YosoSearch : public SearchDriver {
 public:
  YosoSearch(const DesignSpace& space, SearchOptions options)
      : SearchDriver(space, std::move(options)) {}

 protected:
  void search(SearchLoop& loop, Rng& rng) override;
  std::uint64_t rng_salt() const override { return 0x5ca1ab1eull; }
};

/// Uniform random search over the same space with the same bookkeeping.
class RandomSearchDriver : public SearchDriver {
 public:
  RandomSearchDriver(const DesignSpace& space, SearchOptions options)
      : SearchDriver(space, std::move(options)) {}

 protected:
  void search(SearchLoop& loop, Rng& rng) override;
  std::uint64_t rng_salt() const override { return 0xdecafull; }
};

/// Shared Step-3 logic: rerank `finalists` (sorted by fast reward) with the
/// accurate evaluator and mark the best feasible candidate.  Finalists are
/// scored through the evaluator's batched API, so a parallel accurate
/// evaluator fans the rerank out across its pool.
void rerank_finalists(SearchResult& result, const RewardParams& reward,
                      Evaluator* accurate);

}  // namespace yoso
