#include "core/extended_space.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "accel/config.h"
#include "accel/simulator.h"
#include "arch/network.h"
#include "base/contract.h"
#include "core/design_space.h"
#include "core/reward.h"
#include "predictor/perf_predictor.h"
#include "rl/controller.h"
#include "rl/reinforce.h"
#include "surrogate/accuracy_model.h"
#include "util/rng.h"

namespace yoso {

ExtendedDesignSpace::ExtendedDesignSpace(ConfigSpace config_space,
                                         std::vector<int> normals_per_stage,
                                         std::vector<int> stem_channel_options)
    : base_(std::move(config_space)),
      normals_per_stage_(std::move(normals_per_stage)),
      stem_channel_options_(std::move(stem_channel_options)) {
  if (normals_per_stage_.empty() || stem_channel_options_.empty())
    throw std::invalid_argument("ExtendedDesignSpace: empty skeleton options");
}

int ExtendedDesignSpace::num_actions() const {
  return base_.num_actions() + 2;
}

std::vector<int> ExtendedDesignSpace::cardinalities() const {
  std::vector<int> cards = base_.cardinalities();
  cards.push_back(static_cast<int>(normals_per_stage_.size()));
  cards.push_back(static_cast<int>(stem_channel_options_.size()));
  return cards;
}

NetworkSkeleton ExtendedDesignSpace::skeleton_for(int depth_index,
                                                  int stem_index) const {
  YOSO_REQUIRE(depth_index >= 0 &&
                   depth_index < static_cast<int>(normals_per_stage_.size()),
               "skeleton_for: depth_index ", depth_index, " out of range");
  YOSO_REQUIRE(stem_index >= 0 &&
                   stem_index <
                       static_cast<int>(stem_channel_options_.size()),
               "skeleton_for: stem_index ", stem_index, " out of range");
  NetworkSkeleton s = default_skeleton();
  s.cells.clear();
  const int d = normals_per_stage_[static_cast<std::size_t>(depth_index)];
  s.cells.reserve(2 * static_cast<std::size_t>(d + 1));
  for (int stage = 0; stage < 2; ++stage) {
    for (int i = 0; i < d; ++i) s.cells.push_back(CellKind::kNormal);
    s.cells.push_back(CellKind::kReduction);
  }
  s.stem_channels =
      stem_channel_options_[static_cast<std::size_t>(stem_index)];
  return s;
}

ExtendedCandidate ExtendedDesignSpace::decode(
    std::span<const int> actions) const {
  if (actions.size() != static_cast<std::size_t>(num_actions()))
    throw std::invalid_argument("ExtendedDesignSpace::decode: expected " +
                                std::to_string(num_actions()) + " actions");
  const CandidateDesign design =
      base_.decode(actions.first(actions.size() - 2));
  return {design.genotype, design.config,
          skeleton_for(actions[actions.size() - 2], actions.back())};
}

std::vector<int> ExtendedDesignSpace::encode(
    const ExtendedCandidate& candidate) const {
  std::vector<int> actions =
      base_.encode(CandidateDesign{candidate.genotype, candidate.config});
  // Recover the two skeleton indices.
  int depth = -1;
  const int stage_normals =
      static_cast<int>(candidate.skeleton.cells.size()) / 2 - 1;
  for (std::size_t i = 0; i < normals_per_stage_.size(); ++i)
    if (normals_per_stage_[i] == stage_normals) depth = static_cast<int>(i);
  int stem = -1;
  for (std::size_t i = 0; i < stem_channel_options_.size(); ++i)
    if (stem_channel_options_[i] == candidate.skeleton.stem_channels)
      stem = static_cast<int>(i);
  if (depth < 0 || stem < 0)
    throw std::invalid_argument(
        "ExtendedDesignSpace::encode: skeleton not in space");
  actions.push_back(depth);
  actions.push_back(stem);
  return actions;
}

ExtendedCandidate ExtendedDesignSpace::random_candidate(Rng& rng) const {
  std::vector<int> actions;
  for (int card : cardinalities()) actions.push_back(rng.uniform_int(0, card - 1));
  return decode(actions);
}

// ----------------------------------------------------------- evaluators

ExtendedFastEvaluator::ExtendedFastEvaluator(const ExtendedDesignSpace& space,
                                             const SystolicSimulator& simulator,
                                             std::size_t predictor_samples,
                                             std::uint64_t seed)
    : predictor_(default_skeleton()) {
  YOSO_REQUIRE(predictor_samples > 0,
               "ExtendedFastEvaluator: predictor_samples must be positive");
  // Sample uniformly across skeleton choices so the GP sees the whole MAC
  // range the extended space spans.
  Rng rng(seed);
  std::vector<PerfSample> samples;
  samples.reserve(predictor_samples);
  for (std::size_t i = 0; i < predictor_samples; ++i) {
    const ExtendedCandidate c = space.random_candidate(rng);
    PerfSample s;
    s.genotype = c.genotype;
    s.config = c.config;
    const SimulationResult r =
        simulator.simulate_network(c.genotype, c.skeleton, c.config);
    s.energy_mj = r.energy_mj;
    s.latency_ms = r.latency_ms;
    s.features = codesign_features(c.genotype, c.config, c.skeleton);
    samples.push_back(std::move(s));
  }
  predictor_.fit(samples);
}

EvalResult ExtendedFastEvaluator::evaluate(
    const ExtendedCandidate& candidate) const {
  // The accuracy surrogate is skeleton-aware: construct per call (cheap —
  // it only stores parameters; the cost is in feature extraction).
  AccuracyModel accuracy(candidate.skeleton, accuracy_params_,
                         accuracy_seed_);
  EvalResult r;
  r.accuracy = accuracy.hypernet_accuracy(candidate.genotype);
  const auto features =
      codesign_features(candidate.genotype, candidate.config,
                        candidate.skeleton);
  r.energy_mj =
      std::max(1e-3, std::exp(predictor_.energy_model().predict(features)));
  r.latency_ms =
      std::max(1e-3, std::exp(predictor_.latency_model().predict(features)));
  return r;
}

EvalResult ExtendedAccurateEvaluator::evaluate(
    const ExtendedCandidate& candidate) const {
  AccuracyModel accuracy(candidate.skeleton);
  EvalResult r;
  r.accuracy = 1.0 - accuracy.test_error(candidate.genotype) / 100.0;
  const SimulationResult sim = simulator_.simulate_network(
      candidate.genotype, candidate.skeleton, candidate.config);
  r.latency_ms = sim.latency_ms;
  r.energy_mj = sim.energy_mj;
  return r;
}

// -------------------------------------------------------------- search

ExtendedSearchResult ExtendedSearch::run(
    const ExtendedFastEvaluator& fast,
    const ExtendedAccurateEvaluator* accurate) {
  options_.validate();
  ExtendedSearchResult result;
  ControllerOptions copt = options_.controller;
  copt.seed = options_.seed;
  LstmController controller(space_.cardinalities(), copt);
  ReinforceTrainer trainer(controller, options_.reinforce);
  Rng rng(options_.seed ^ 0xE57ull);

  std::vector<ExtendedRanked> pool;
  auto offer = [&](const ExtendedCandidate& candidate, double reward,
                   const EvalResult& eval) {
    for (const auto& e : pool)
      if (e.candidate == candidate) return;
    if (pool.size() < options_.top_n ||
        reward > pool.back().fast_reward) {
      ExtendedRanked e;
      e.candidate = candidate;
      e.fast_reward = reward;
      e.fast_result = eval;
      pool.push_back(std::move(e));
      std::sort(pool.begin(), pool.end(),
                [](const ExtendedRanked& a, const ExtendedRanked& b) {
                  return a.fast_reward > b.fast_reward;
                });
      if (pool.size() > options_.top_n) pool.pop_back();
    }
  };

  if (options_.trace_every != 0)
    result.trace.reserve(
        (options_.iterations + options_.trace_every - 1) /
        options_.trace_every);
  for (std::size_t it = 0; it < options_.iterations; ++it) {
    Episode ep = controller.sample(rng);
    const ExtendedCandidate candidate = space_.decode(ep.actions);
    const EvalResult eval = fast.evaluate(candidate);
    const double reward = options_.reward.compute(eval);
    trainer.feedback(ep, reward);
    offer(candidate, reward, eval);
    result.best_fast_reward = std::max(result.best_fast_reward, reward);
    if (options_.trace_every != 0 && it % options_.trace_every == 0)
      result.trace.push_back(
          {it, reward, eval,
           CandidateDesign{candidate.genotype, candidate.config}});
  }

  for (ExtendedRanked& f : pool) {
    f.accurate_result =
        accurate != nullptr ? accurate->evaluate(f.candidate) : f.fast_result;
    f.accurate_reward = options_.reward.compute(f.accurate_result);
    f.feasible = options_.reward.feasible(f.accurate_result);
  }
  std::sort(pool.begin(), pool.end(),
            [](const ExtendedRanked& a, const ExtendedRanked& b) {
              return a.accurate_reward > b.accurate_reward;
            });
  result.finalists = std::move(pool);
  for (const ExtendedRanked& f : result.finalists) {
    if (f.feasible) {
      result.best = f;
      break;
    }
  }
  if (!result.best && !result.finalists.empty())
    result.best = result.finalists.front();
  return result;
}

}  // namespace yoso
