#include "rl/reinforce.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rl/controller.h"
#include "util/rng.h"

namespace yoso {

void ReinforceTrainer::feedback(const Episode& episode, double reward) {
  const double b =
      options_.use_baseline && !baseline_.empty() ? baseline_.value() : 0.0;
  const double advantage = reward - b;
  {
    YOSO_TRACE_SPAN("rl.backward");
    controller_.accumulate_gradient(episode, advantage,
                                    options_.entropy_weight);
  }
  baseline_.add(reward);
  ++episodes_;
  obs::counter_add("rl.episodes");
  if (++pending_ >= options_.batch_size) {
    YOSO_TRACE_SPAN("rl.adam");
    controller_.update(options_.lr, options_.max_grad_norm);
    pending_ = 0;
    obs::counter_add("rl.updates");
  }
}

std::vector<int> RandomSearcher::propose(Rng& rng) const {
  std::vector<int> actions(cardinalities_.size());
  for (std::size_t i = 0; i < cardinalities_.size(); ++i)
    actions[i] = rng.uniform_int(0, cardinalities_[i] - 1);
  return actions;
}

}  // namespace yoso
