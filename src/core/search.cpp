#include "core/search.h"

#include <algorithm>

#include "base/contract.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"
#include "obs/trace.h"
#include "predictor/gp.h"
#include "rl/controller.h"
#include "rl/reinforce.h"
#include "util/exec_context.h"
#include "util/rng.h"

namespace yoso {

void FinalistPool::offer(const CandidateDesign& candidate, double reward,
                         const EvalResult& result) {
  ThreadRoleGuard coordinator(role_);
  if (capacity_ == 0) return;
  if (!seen_.insert(candidate_key(candidate)).second)
    return;  // dedupe revisited designs
  if (entries_.size() >= capacity_ &&
      reward <= entries_.back().fast_reward)
    return;
  RankedCandidate e;
  e.candidate = candidate;
  e.fast_reward = reward;
  e.fast_result = result;
  const auto pos = std::upper_bound(
      entries_.begin(), entries_.end(), reward,
      [](double r, const RankedCandidate& b) { return r > b.fast_reward; });
  entries_.insert(pos, std::move(e));
  if (entries_.size() > capacity_) entries_.pop_back();
}

std::vector<double> SearchLoop::submit(
    std::span<const CandidateDesign> batch) {
  const std::vector<EvalResult> evals = fast_.evaluate_batch(batch);
  ThreadRoleGuard coordinator(role_);
  std::vector<double> rewards(batch.size());
  if (options_.trace_every != 0 && iteration_ == 0)
    result_.trace.reserve((options_.iterations + options_.trace_every - 1) /
                          options_.trace_every);
  for (std::size_t j = 0; j < batch.size(); ++j) {
    const double reward = options_.reward.compute(evals[j]);
    rewards[j] = reward;
    pool_.offer(batch[j], reward, evals[j]);
    result_.best_fast_reward = std::max(result_.best_fast_reward, reward);
    if (options_.trace_every != 0 && iteration_ % options_.trace_every == 0)
      result_.trace.push_back({iteration_, reward, evals[j], batch[j]});
    ++iteration_;
  }
  // Online refinement (coordinator-only, after the bookkeeping loop so it
  // never changes this batch's rewards): when the iteration counter crosses
  // a refine_every boundary, the round's best candidate — ties break to the
  // earliest proposal, so the pick depends only on proposal order — is
  // scored by the accurate evaluator and folded back into the fast one.
  // Subsequent batches then predict through the refined models; everything
  // in the chain is deterministic, so search output stays bit-identical at
  // any thread count.
  if (options_.refine_every != 0 && refiner_ != nullptr) {
    const std::size_t before = iteration_ - batch.size();
    if (iteration_ / options_.refine_every >
        before / options_.refine_every) {
      std::size_t best_j = 0;
      for (std::size_t j = 1; j < batch.size(); ++j)
        if (rewards[j] > rewards[best_j]) best_j = j;
      const EvalResult truth = refiner_->evaluate(batch[best_j]);
      if (fast_.refine(batch[best_j], truth)) {
        ++result_.refinements;
        obs::counter_add("search.refinements");
      }
    }
  }
  obs::counter_add("search.iterations", batch.size());
  obs::counter_add("search.batches");
  return rewards;
}

double SearchLoop::submit(const CandidateDesign& candidate) {
  return submit(std::span<const CandidateDesign>(&candidate, 1)).front();
}

void SearchOptions::validate() const {
  YOSO_REQUIRE(iterations >= 1, "SearchOptions: iterations must be >= 1");
  YOSO_REQUIRE(batch_size >= 1, "SearchOptions: batch_size must be >= 1");
  YOSO_REQUIRE(top_n >= 1,
               "SearchOptions: top_n must be >= 1 (the finalist pool feeds "
               "Step 3)");
  YOSO_REQUIRE(inducing_points >= 1,
               "SearchOptions: inducing_points must be >= 1");
  YOSO_REQUIRE(refine_every == 0 || predictor == GpBackend::kSparse,
               "SearchOptions: refine_every requires the sparse predictor "
               "backend (the exact GP has no incremental update path)");
}

SearchResult SearchDriver::run(Evaluator& fast, Evaluator* accurate,
                               ExecContextPtr exec) {
  options_.validate();
  if (exec != nullptr) {
    fast.set_exec_context(exec);
    if (accurate != nullptr) accurate->set_exec_context(exec);
  }
  SearchResult result;
  SearchLoop loop(options_, fast, result,
                  options_.refine_every != 0 ? accurate : nullptr);
  Rng rng(options_.seed ^ rng_salt());
  {
    YOSO_TRACE_SPAN("search.step2_propose");
    search(loop, rng);
  }
  result.iterations_run = loop.iterations_done();
  result.finalists = loop.take_finalists();
  {
    YOSO_TRACE_SPAN("search.step3_rerank");
    rerank_finalists(result, options_.reward, accurate);
  }
  obs::counter_add("search.finalists", result.finalists.size());
  return result;
}

void rerank_finalists(SearchResult& result, const RewardParams& reward,
                      Evaluator* accurate) {
  if (accurate != nullptr && !result.finalists.empty()) {
    std::vector<CandidateDesign> candidates;
    candidates.reserve(result.finalists.size());
    for (const RankedCandidate& f : result.finalists)
      candidates.push_back(f.candidate);
    const std::vector<EvalResult> evals = accurate->evaluate_batch(candidates);
    for (std::size_t i = 0; i < result.finalists.size(); ++i)
      result.finalists[i].accurate_result = evals[i];
  } else {
    for (RankedCandidate& f : result.finalists)
      f.accurate_result = f.fast_result;
  }
  for (RankedCandidate& f : result.finalists) {
    f.accurate_reward = reward.compute(f.accurate_result);
    f.feasible = reward.feasible(f.accurate_result);
  }
  std::stable_sort(result.finalists.begin(), result.finalists.end(),
                   [](const RankedCandidate& a, const RankedCandidate& b) {
                     return a.accurate_reward > b.accurate_reward;
                   });
  // Best feasible finalist wins; if none is feasible, take the best overall
  // so callers still get a solution to report.
  for (const RankedCandidate& f : result.finalists) {
    if (f.feasible) {
      result.best = f;
      return;
    }
  }
  if (!result.finalists.empty()) result.best = result.finalists.front();
}

void YosoSearch::search(SearchLoop& loop, Rng& rng) {
  ControllerOptions copt = options_.controller;
  copt.seed = options_.seed;
  LstmController controller(space_.cardinalities(), copt);
  ReinforceTrainer trainer(controller, options_.reinforce);
  const std::size_t round = std::max<std::size_t>(1, options_.batch_size);

  // A round's episodes are sampled together from the same weights; their
  // feedback follows the round's evaluation, in proposal order.
  std::vector<Episode> episodes;
  std::vector<CandidateDesign> batch;
  batch.reserve(std::min(round, options_.iterations));
  std::vector<double> rewards;
  std::size_t it = 0;
  while (it < options_.iterations) {
    const std::size_t k = std::min(round, options_.iterations - it);
    {
      YOSO_TRACE_SPAN("rl.sample");
      episodes.clear();  // free the last round's caches first
      episodes = controller.sample_round(rng, k);
    }
    {
      YOSO_TRACE_SPAN("core.decode");
      batch.clear();
      for (const Episode& ep : episodes)
        batch.push_back(space_.decode(ep.actions));
    }
    {
      YOSO_TRACE_SPAN("core.submit");
      rewards = loop.submit(batch);
    }
    for (std::size_t j = 0; j < k; ++j)
      trainer.feedback(episodes[j], rewards[j]);
    it += k;
  }
}

void RandomSearchDriver::search(SearchLoop& loop, Rng& rng) {
  RandomSearcher searcher(space_.cardinalities());
  const std::size_t round = std::max<std::size_t>(1, options_.batch_size);

  std::vector<CandidateDesign> batch;
  batch.reserve(std::min(round, options_.iterations));
  std::size_t it = 0;
  while (it < options_.iterations) {
    const std::size_t k = std::min(round, options_.iterations - it);
    batch.clear();
    for (std::size_t j = 0; j < k; ++j)
      batch.push_back(space_.decode(searcher.propose(rng)));
    loop.submit(batch);
    it += k;
  }
}

}  // namespace yoso
