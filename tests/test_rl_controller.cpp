#include <cmath>
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "rl/controller.h"
#include "rl/param_store.h"
#include "util/rng.h"

namespace yoso {
namespace {

std::vector<int> toy_cards() { return {2, 3, 4, 6}; }

TEST(ParamStore, AllocAndViews) {
  ParamStore store;
  Rng rng(1);
  const ParamView a = store.alloc(10, rng, 0.5);
  const ParamView b = store.alloc(5, rng);
  EXPECT_EQ(store.size(), 15u);
  EXPECT_EQ(a.offset, 0u);
  EXPECT_EQ(b.offset, 10u);
  for (double v : store.value(a)) {
    EXPECT_GE(v, -0.5);
    EXPECT_LE(v, 0.5);
  }
}

TEST(ParamStore, AdamStepMovesAgainstGradient) {
  ParamStore store;
  Rng rng(2);
  const ParamView v = store.alloc(3, rng, 0.0);
  store.grad(v)[0] = 1.0;
  store.grad(v)[1] = -1.0;
  store.adam_step(0.1);
  EXPECT_LT(store.value(v)[0], 0.0);
  EXPECT_GT(store.value(v)[1], 0.0);
  EXPECT_DOUBLE_EQ(store.value(v)[2], 0.0);
}

TEST(ParamStore, GradNormAndScale) {
  ParamStore store;
  Rng rng(3);
  const ParamView v = store.alloc(2, rng, 0.0);
  store.grad(v)[0] = 3.0;
  store.grad(v)[1] = 4.0;
  EXPECT_DOUBLE_EQ(store.grad_norm(), 5.0);
  store.scale_grad(0.5);
  EXPECT_DOUBLE_EQ(store.grad_norm(), 2.5);
  store.zero_grad();
  EXPECT_DOUBLE_EQ(store.grad_norm(), 0.0);
}

TEST(Controller, RejectsBadActionSpaces) {
  EXPECT_THROW(LstmController({}, {}), std::invalid_argument);
  EXPECT_THROW(LstmController({2, 0}, {}), std::invalid_argument);
}

TEST(Controller, SampleRespectsCardinalities) {
  LstmController ctrl(toy_cards(), {});
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const Episode ep = ctrl.sample(rng);
    ASSERT_EQ(ep.actions.size(), 4u);
    for (std::size_t t = 0; t < 4; ++t) {
      EXPECT_GE(ep.actions[t], 0);
      EXPECT_LT(ep.actions[t], toy_cards()[t]);
    }
  }
}

TEST(Controller, LogProbNegativeEntropyPositive) {
  LstmController ctrl(toy_cards(), {});
  Rng rng(5);
  const Episode ep = ctrl.sample(rng);
  EXPECT_LT(ep.log_prob, 0.0);
  EXPECT_GT(ep.entropy, 0.0);
  // Entropy can't exceed sum of log cardinalities.
  double max_ent = 0.0;
  for (int c : toy_cards()) max_ent += std::log(c);
  EXPECT_LE(ep.entropy, max_ent + 1e-9);
}

/// Splits an episode's flat softmax into its per-step heads, walking it by
/// toy_cards(); the walk must cover it exactly.
std::vector<std::span<const double>> step_probs(const Episode& ep) {
  std::vector<std::span<const double>> steps;
  std::size_t offset = 0;
  for (const int card : toy_cards()) {
    const auto n = static_cast<std::size_t>(card);
    EXPECT_LE(offset + n, ep.probs.size());
    if (offset + n > ep.probs.size()) break;
    steps.emplace_back(ep.probs.data() + offset, n);
    offset += n;
  }
  EXPECT_EQ(offset, ep.probs.size());
  return steps;
}

TEST(Controller, ProbabilitiesNormalised) {
  LstmController ctrl(toy_cards(), {});
  Rng rng(6);
  const Episode ep = ctrl.sample(rng);
  for (const auto p : step_probs(ep)) {
    double sum = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Controller, TanhConstantBoundsLogits) {
  // With squashing z in [-C, C], any softmax probability is bounded away
  // from 0 by e^{-2C} / card.
  ControllerOptions opt;
  opt.tanh_constant = 2.5;
  LstmController ctrl(toy_cards(), opt);
  Rng rng(7);
  const Episode ep = ctrl.sample(rng);
  const double floor = std::exp(-2.0 * 2.5) / 6.0;
  for (const auto p : step_probs(ep))
    for (double v : p) EXPECT_GE(v, floor * 0.99);
}

TEST(Controller, SameSeedSameBehaviour) {
  ControllerOptions opt;
  opt.seed = 77;
  LstmController a(toy_cards(), opt);
  LstmController b(toy_cards(), opt);
  Rng ra(8), rb(8);
  const Episode ea = a.sample(ra);
  const Episode eb = b.sample(rb);
  EXPECT_EQ(ea.actions, eb.actions);
  EXPECT_DOUBLE_EQ(ea.log_prob, eb.log_prob);
}

TEST(Controller, GradientAccumulationThenUpdateChangesPolicy) {
  LstmController ctrl(toy_cards(), {});
  Rng rng(9);
  // Strongly reinforce a specific episode many times.
  for (int i = 0; i < 50; ++i) {
    const Episode ep = ctrl.sample(rng);
    const double reward = ep.actions[0] == 1 ? 1.0 : -1.0;
    ctrl.accumulate_gradient(ep, reward, 0.0);
    ctrl.update(0.05);
  }
  // Policy should now prefer action 1 at step 0.
  int hits = 0;
  for (int i = 0; i < 100; ++i)
    hits += ctrl.sample(rng).actions[0] == 1 ? 1 : 0;
  EXPECT_GT(hits, 70);
}

TEST(Controller, UpdateZeroesGradients) {
  // After update() no gradient is left, so a second update() has nothing
  // to clip: a tiny clip norm must give the same parameters as the default
  // one.  (The second step still moves them through Adam's momentum.)
  const auto probs_after_second_update = [](double max_grad_norm) {
    LstmController ctrl(toy_cards(), {});
    Rng rng(10);
    ctrl.accumulate_gradient(ctrl.sample(rng), 1.0, 1e-4);
    ctrl.update(0.01);
    ctrl.update(0.01, max_grad_norm);
    Rng probe(12);
    return ctrl.sample(probe).probs;
  };
  EXPECT_EQ(probs_after_second_update(5.0), probs_after_second_update(1e-12));
}

/// Bit-level equality, so -0.0 differs from 0.0 and a NaN equals itself.
void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b, const char* field) {
  ASSERT_EQ(a.size(), b.size()) << field;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << field << "[" << i << "]";
}

void expect_same_episode(const Episode& a, const Episode& b) {
  EXPECT_EQ(a.actions, b.actions);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.log_prob),
            std::bit_cast<std::uint64_t>(b.log_prob));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.entropy),
            std::bit_cast<std::uint64_t>(b.entropy));
  expect_same_bits(a.x, b.x, "x");
  expect_same_bits(a.gates, b.gates, "gates");
  expect_same_bits(a.c, b.c, "c");
  expect_same_bits(a.h, b.h, "h");
  expect_same_bits(a.tanh_c, b.tanh_c, "tanh_c");
  expect_same_bits(a.probs, b.probs, "probs");
  expect_same_bits(a.head_tanh, b.head_tanh, "head_tanh");
}

// A lockstep round is k sample() calls on a twin controller, bit for bit,
// and leaves the Rng where they do.  k reaches a lone episode, a short
// round, one full block of lstm::kLanes lanes and a block plus a tail; the
// 7-way head reaches a 4-row pass plus single rows.
TEST(Controller, SampleRoundMatchesSampleCalls) {
  const std::vector<int> cards = {2, 3, 4, 6, 7, 5, 1, 6, 3, 2};
  for (const std::size_t k : {1u, 3u, 8u, 11u}) {
    SCOPED_TRACE(k);
    LstmController lockstep(cards, {});
    LstmController single(cards, {});
    // A few updates, so the weights are not the initial draw.
    Rng train(k);
    for (int i = 0; i < 3; ++i) {
      for (LstmController* ctrl : {&lockstep, &single}) {
        Rng rng = train;
        ctrl->accumulate_gradient(ctrl->sample(rng), 0.7, 1e-4);
        ctrl->update(0.05);
      }
      train.next_u64();
    }
    Rng round_rng(40 + k), single_rng(40 + k);
    const std::vector<Episode> round = lockstep.sample_round(round_rng, k);
    ASSERT_EQ(round.size(), k);
    for (const Episode& ep : round)
      expect_same_episode(ep, single.sample(single_rng));
    EXPECT_EQ(round_rng.next_u64(), single_rng.next_u64());
  }
}

TEST(Controller, ParamCountScalesWithSpace) {
  LstmController small({2, 2}, {});
  LstmController large(std::vector<int>(44, 6), {});
  EXPECT_GT(large.param_count(), small.param_count());
  EXPECT_GT(small.param_count(), 0u);
}

class HiddenSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(HiddenSizeSweep, SamplesValidAtAnyWidth) {
  ControllerOptions opt;
  opt.hidden_size = GetParam();
  LstmController ctrl(toy_cards(), opt);
  Rng rng(11);
  const Episode ep = ctrl.sample(rng);
  EXPECT_EQ(ep.actions.size(), 4u);
  EXPECT_TRUE(std::isfinite(ep.log_prob));
}

INSTANTIATE_TEST_SUITE_P(Widths, HiddenSizeSweep,
                         ::testing::Values(8, 32, 120));

}  // namespace
}  // namespace yoso
