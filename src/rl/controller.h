#pragma once
// LSTM-based RL controller (paper §III.C).
//
// The controller treats a candidate co-design as an action sequence
// lambda = (d_1..d_S, c_1..c_L): 40 DNN actions + 4 hardware actions, each
// with its own cardinality.  An LSTM with 120 hidden units samples actions
// autoregressively through per-step softmax heads; the previously generated
// action is embedded and fed as the next input (zero input at the first
// step).  Sampling logits use the ENAS-style temperature and tanh-constant
// squashing (§IV.C: temperature 1.1, tanh constant 2.5).
//
// REINFORCE with a moving-average baseline and an entropy bonus updates the
// parameters (Eq. 4); the optimiser is Adam (lr 0.0035 in the paper).

#include <cstdint>
#include <vector>

#include "rl/param_store.h"
#include "util/rng.h"

namespace yoso {

struct ControllerOptions {
  int hidden_size = 120;   ///< LSTM hidden units (paper: 120)
  int embed_size = 32;     ///< action-embedding width
  double temperature = 1.1;
  double tanh_constant = 2.5;
  std::uint64_t seed = 1;
};

/// One sampled action sequence with everything needed for the policy
/// gradient.  The caches are flat, one row per step t = 0..T-1: row t of an
/// array with width W starts at t * W.  The head arrays hold step t's
/// card_t entries right after step t-1's, sum(card) in all.
struct Episode {
  std::vector<int> actions;
  double log_prob = 0.0;  ///< sum over steps of log pi(a_t)
  double entropy = 0.0;   ///< sum over steps of H(pi_t)

  std::vector<double> x;          ///< LSTM inputs (T x E)
  std::vector<double> gates;      ///< activations i, f, g, o (T x 4H)
  std::vector<double> c, h;       ///< cell and hidden states (T x H)
  std::vector<double> tanh_c;     ///< tanh(c), for the backward pass (T x H)
  std::vector<double> probs;      ///< head softmax
  std::vector<double> head_tanh;  ///< tanh(u / temperature) of head logits u
};

class LstmController {
 public:
  /// `cardinalities`: the per-step action-space sizes (44 entries for the
  /// full co-design space).
  LstmController(std::vector<int> cardinalities, ControllerOptions options);

  std::size_t param_count() const { return store_.size(); }

  /// Samples `k` action sequences (with caches for a later gradient pass)
  /// from the current weights, stepping them in lockstep.  The result is
  /// bit for bit that of k sample() calls, and `rng` ends in the same state.
  std::vector<Episode> sample_round(Rng& rng, std::size_t k);

  /// Samples one action sequence: sample_round(rng, 1).
  Episode sample(Rng& rng);

  /// Accumulates the REINFORCE gradient of
  ///   L = -(advantage) * log pi(a) - entropy_weight * H(pi)
  /// for one episode into the parameter store.
  void accumulate_gradient(const Episode& episode, double advantage,
                           double entropy_weight);

  /// Applies an Adam step (after one or more accumulate_gradient calls) and
  /// zeroes gradients.  Gradients are clipped to `max_grad_norm`.
  void update(double lr, double max_grad_norm = 5.0);

 private:
  std::vector<int> cardinalities_;
  ControllerOptions options_;
  ParamStore store_;

  // LSTM weights.
  ParamView w_x_;  // (4H, E)
  ParamView w_h_;  // (4H, H)
  ParamView b_;    // (4H)
  ParamView start_;  // (E) input at t = 0
  // Per-step action embeddings (card_{t-1} x E) for t >= 1.
  std::vector<ParamView> embed_;
  // Per-step output heads (card_t x H) + bias (card_t).
  std::vector<ParamView> head_w_;
  std::vector<ParamView> head_b_;

  /// The forward pass of `lanes` (1 or lstm::kLanes) episodes stepped
  /// together; `u` holds their uniform draws, T per episode.
  void forward(Episode* episodes, const double* u, std::size_t lanes);

  // Work buffers reused across calls; all but uniforms_ are sized in the
  // constructor.  The lane buffers interleave the episodes of a forward
  // pass: entry i of lane k is at [i * lanes + k].
  std::size_t heads_ = 0;           // sum of the cardinalities
  std::vector<double> lane_x_;      // inputs (E x lanes)
  std::vector<double> lane_h_;      // hidden state (H x lanes)
  std::vector<double> lane_gates_;  // gate pre-activations (4H x lanes)
  std::vector<double> lane_head_;   // head logits (max card x lanes)
  std::vector<double> uniforms_;    // a round's draws, episode-major
  std::vector<double> dpre_;        // gate pre-activation grads (T x 4H)
  std::vector<double> du_;          // head logit grads (max card)
  std::vector<double> dh_, dh_next_, dc_next_;  // (H)
  std::vector<double> dx_;                      // input grads (E)
};

}  // namespace yoso
