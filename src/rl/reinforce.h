#pragma once
// REINFORCE training loop around the LSTM controller (paper Eq. 3-4):
// the controller proposes an action sequence, the caller scores it with the
// multi-objective reward, and feedback() applies the policy gradient with a
// moving-average baseline (variance reduction that "significantly expedites
// the search") and an entropy bonus.

#include "rl/controller.h"
#include "util/rng.h"
#include "util/stats.h"

namespace yoso {

struct ReinforceOptions {
  double lr = 0.0035;            ///< Adam learning rate (paper §IV.C)
  double baseline_decay = 0.95;  ///< moving-average baseline decay
  double entropy_weight = 1e-4;  ///< paper: entropy weighted by 0.0001
  int batch_size = 1;            ///< episodes per Adam update
  double max_grad_norm = 5.0;
  bool use_baseline = true;      ///< off for the ablation bench
};

class ReinforceTrainer {
 public:
  ReinforceTrainer(LstmController& controller, ReinforceOptions options)
      : controller_(controller),
        options_(options),
        baseline_(options.baseline_decay) {}

  /// Feeds back the reward for an episode; accumulates the gradient and
  /// applies an Adam update every batch_size episodes.
  void feedback(const Episode& episode, double reward);

  double baseline_value() const {
    return baseline_.empty() ? 0.0 : baseline_.value();
  }
  std::size_t episodes_seen() const { return episodes_; }

 private:
  LstmController& controller_;
  ReinforceOptions options_;
  MovingAverage baseline_;
  std::size_t episodes_ = 0;
  int pending_ = 0;
};

/// Uniform-random baseline searcher over the same action space.
class RandomSearcher {
 public:
  explicit RandomSearcher(std::vector<int> cardinalities)
      : cardinalities_(std::move(cardinalities)) {}

  std::vector<int> propose(Rng& rng) const;

 private:
  std::vector<int> cardinalities_;
};

}  // namespace yoso
