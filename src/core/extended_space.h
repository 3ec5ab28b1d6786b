#pragma once
// Extension: searching the network skeleton too.
//
// Table 1 of the paper lists <N_Cells, R_cells> — how many normal and
// reduction cells form the network — among the co-design variables, but the
// experiments fix the skeleton to 4+2 cells and a fixed stem width.  This
// module widens the action sequence with two skeleton actions (normal cells
// per stage, stem channels), giving a 46-action joint space in which the
// controller can also trade network depth/width against hardware cost.
//
// Everything reuses the fixed-skeleton machinery; only the evaluator pair
// differs because accuracy and performance now depend on the candidate's
// own skeleton.

#include <limits>
#include <optional>
#include <span>

#include "accel/config.h"
#include "accel/simulator.h"
#include "arch/genotype.h"
#include "arch/network.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"
#include "core/search.h"
#include "predictor/perf_predictor.h"
#include "rl/reinforce.h"
#include "surrogate/accuracy_model.h"
#include "util/rng.h"

namespace yoso {

/// A candidate in the extended space: design + its own skeleton.
struct ExtendedCandidate {
  Genotype genotype;
  AcceleratorConfig config;
  NetworkSkeleton skeleton;

  bool operator==(const ExtendedCandidate& other) const {
    return genotype == other.genotype && config == other.config &&
           skeleton.cells == other.skeleton.cells &&
           skeleton.stem_channels == other.skeleton.stem_channels;
  }
};

class ExtendedDesignSpace {
 public:
  explicit ExtendedDesignSpace(
      ConfigSpace config_space = default_config_space(),
      std::vector<int> normals_per_stage = {1, 2, 3},
      std::vector<int> stem_channel_options = {16, 24, 32});

  /// 40 DNN + 4 hardware + 2 skeleton actions.
  int num_actions() const;
  std::vector<int> cardinalities() const;

  ExtendedCandidate decode(std::span<const int> actions) const;
  std::vector<int> encode(const ExtendedCandidate& candidate) const;
  ExtendedCandidate random_candidate(Rng& rng) const;

  /// Builds the paper-style stacking (N^d R N^d R) for a depth choice.
  NetworkSkeleton skeleton_for(int depth_index, int stem_index) const;

  const ConfigSpace& config_space() const { return base_.config_space(); }

 private:
  DesignSpace base_;
  std::vector<int> normals_per_stage_;
  std::vector<int> stem_channel_options_;
};

/// Fast evaluator over the extended space: the accuracy surrogate and one
/// GP pair are shared, with samples drawn across all skeleton choices so
/// the predictor generalises over them (skeleton statistics enter through
/// the MAC/parameter features).
class ExtendedFastEvaluator {
 public:
  ExtendedFastEvaluator(const ExtendedDesignSpace& space,
                        const SystolicSimulator& simulator,
                        std::size_t predictor_samples, std::uint64_t seed);

  EvalResult evaluate(const ExtendedCandidate& candidate) const;

 private:
  AccuracyModelParams accuracy_params_;
  std::uint64_t accuracy_seed_ = 2020;
  PerformancePredictor predictor_;
};

/// Accurate evaluator (per-candidate skeleton simulation + surrogate
/// full-training error).
class ExtendedAccurateEvaluator {
 public:
  explicit ExtendedAccurateEvaluator(
      SystolicSimulator simulator = SystolicSimulator(
          {}, SimFidelity::kCycleLevel))
      : simulator_(simulator) {}

  EvalResult evaluate(const ExtendedCandidate& candidate) const;

 private:
  SystolicSimulator simulator_;
};

/// One reranked finalist of the extended search.
struct ExtendedRanked {
  ExtendedCandidate candidate;
  double fast_reward = 0.0;
  double accurate_reward = 0.0;
  EvalResult fast_result;
  EvalResult accurate_result;
  bool feasible = false;
};

struct ExtendedSearchResult {
  std::vector<SearchTracePoint> trace;  ///< candidate field holds design only
  std::vector<ExtendedRanked> finalists;
  std::optional<ExtendedRanked> best;
  double best_fast_reward = -std::numeric_limits<double>::infinity();
};

/// RL search over the 46-action space (same controller/REINFORCE settings
/// as YosoSearch).
class ExtendedSearch {
 public:
  ExtendedSearch(const ExtendedDesignSpace& space, SearchOptions options)
      : space_(space), options_(std::move(options)) {}

  /// Throws ContractViolation when options.validate() rejects the options.
  ExtendedSearchResult run(const ExtendedFastEvaluator& fast,
                           const ExtendedAccurateEvaluator* accurate);

 private:
  const ExtendedDesignSpace& space_;
  SearchOptions options_;
};

}  // namespace yoso
