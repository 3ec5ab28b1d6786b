#include <gtest/gtest.h>

#include <vector>

#include "rl/controller.h"
#include "rl/reinforce.h"
#include "util/rng.h"

namespace yoso {
namespace {

std::vector<int> toy_cards() { return {3, 3, 3, 3, 3, 3}; }

TEST(ReinforceTrainer, BaselineTracksRewards) {
  LstmController ctrl(toy_cards(), {});
  ReinforceOptions opt;
  opt.baseline_decay = 0.5;
  ReinforceTrainer trainer(ctrl, opt);
  EXPECT_DOUBLE_EQ(trainer.baseline_value(), 0.0);
  Rng rng(1);
  const Episode ep = ctrl.sample(rng);
  trainer.feedback(ep, 2.0);
  EXPECT_DOUBLE_EQ(trainer.baseline_value(), 2.0);
  trainer.feedback(ctrl.sample(rng), 4.0);
  EXPECT_DOUBLE_EQ(trainer.baseline_value(), 3.0);
  EXPECT_EQ(trainer.episodes_seen(), 2u);
}

TEST(ReinforceTrainer, LearnsToyObjective) {
  LstmController ctrl(toy_cards(), {});
  ReinforceTrainer trainer(ctrl, {});
  Rng rng(2);
  for (int it = 0; it < 1500; ++it) {
    const Episode ep = ctrl.sample(rng);
    double r = 0.0;
    for (int a : ep.actions) r += a == 2 ? 1.0 : 0.0;
    trainer.feedback(ep, r / 6.0);
  }
  // Action 2 should now carry the largest softmax mass at almost every
  // step (all six heads have 3 actions).
  const Episode ep = ctrl.sample(rng);
  ASSERT_EQ(ep.probs.size(), 18u);
  int correct = 0;
  for (std::size_t t = 0; t < 6; ++t) {
    const double* p = ep.probs.data() + 3 * t;
    correct += p[2] > p[0] && p[2] > p[1] ? 1 : 0;
  }
  EXPECT_GE(correct, 5);
}

TEST(ReinforceTrainer, BatchedUpdatesDeferAdam) {
  LstmController ctrl(toy_cards(), {});
  ReinforceOptions opt;
  opt.batch_size = 4;
  ReinforceTrainer trainer(ctrl, opt);
  Rng rng(3);
  // The softmax of a fixed-seed sample shows whether the weights moved.
  const auto probe_probs = [&ctrl] {
    Rng probe(30);
    return ctrl.sample(probe).probs;
  };
  const std::vector<double> before = probe_probs();
  // Three feedbacks: still pending, no Adam step applied yet.
  for (int i = 0; i < 3; ++i) trainer.feedback(ctrl.sample(rng), 1.0);
  EXPECT_EQ(probe_probs(), before);
  trainer.feedback(ctrl.sample(rng), 1.0);  // fourth triggers update
  EXPECT_NE(probe_probs(), before);
  EXPECT_EQ(trainer.episodes_seen(), 4u);
}

TEST(ReinforceTrainer, NoBaselineModeRuns) {
  LstmController ctrl(toy_cards(), {});
  ReinforceOptions opt;
  opt.use_baseline = false;
  ReinforceTrainer trainer(ctrl, opt);
  Rng rng(4);
  for (int i = 0; i < 20; ++i) trainer.feedback(ctrl.sample(rng), 0.5);
  EXPECT_EQ(trainer.episodes_seen(), 20u);
}

TEST(RandomSearcher, UniformOverSpace) {
  RandomSearcher searcher({2, 5});
  Rng rng(5);
  std::vector<int> counts0(2, 0), counts1(5, 0);
  for (int i = 0; i < 7000; ++i) {
    const auto a = searcher.propose(rng);
    ASSERT_EQ(a.size(), 2u);
    ++counts0[static_cast<std::size_t>(a[0])];
    ++counts1[static_cast<std::size_t>(a[1])];
  }
  EXPECT_NEAR(counts0[0], 3500, 350);
  for (int c : counts1) EXPECT_NEAR(c, 1400, 250);
}

}  // namespace
}  // namespace yoso
