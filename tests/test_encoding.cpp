#include <gtest/gtest.h>

#include "arch/encoding.h"
#include "arch/genotype.h"
#include "arch/ops.h"
#include "util/rng.h"

namespace yoso {
namespace {

TEST(Encoding, FortyActions) {
  EXPECT_EQ(kDnnActionCount, 40);
  EXPECT_EQ(dnn_action_steps().size(), 40u);
}

TEST(Encoding, StepMetadata) {
  const auto steps = dnn_action_steps();
  // First node (node 2) of the normal cell: two inputs with cardinality 2,
  // then two ops with cardinality 6.
  EXPECT_EQ(steps[0].kind, ActionStep::Kind::kInput);
  EXPECT_EQ(steps[0].cardinality, 2);
  EXPECT_EQ(steps[1].cardinality, 2);
  EXPECT_EQ(steps[2].kind, ActionStep::Kind::kOp);
  EXPECT_EQ(steps[2].cardinality, 6);
  EXPECT_EQ(steps[3].cardinality, 6);
  // Last node (node 6) of the reduction cell: inputs have cardinality 6.
  EXPECT_EQ(steps[36].cardinality, 6);
  EXPECT_EQ(steps[36].kind, ActionStep::Kind::kInput);
  EXPECT_NE(steps[36].name.find("reduction.node6"), std::string::npos);
}

TEST(Encoding, InputCardinalityGrowsWithNode) {
  const auto steps = dnn_action_steps();
  for (int cell = 0; cell < 2; ++cell) {
    for (int n = 0; n < kInteriorNodes; ++n) {
      const std::size_t base = static_cast<std::size_t>(cell) * 20 +
                               static_cast<std::size_t>(n) * 4;
      EXPECT_EQ(steps[base].cardinality, n + 2);
      EXPECT_EQ(steps[base + 1].cardinality, n + 2);
    }
  }
}

TEST(Encoding, RoundTripRandom) {
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    const Genotype g = random_genotype(rng);
    const auto actions = encode_genotype(g);
    ASSERT_EQ(actions.size(), 40u);
    const Genotype back = decode_genotype(actions);
    EXPECT_EQ(back, g);
  }
}

TEST(Encoding, ActionsRespectCardinalities) {
  Rng rng(32);
  const auto steps = dnn_action_steps();
  for (int i = 0; i < 100; ++i) {
    const auto actions = encode_genotype(random_genotype(rng));
    for (std::size_t t = 0; t < actions.size(); ++t) {
      EXPECT_GE(actions[t], 0);
      EXPECT_LT(actions[t], steps[t].cardinality);
    }
  }
}

TEST(Encoding, DecodeWrongLengthThrows) {
  std::vector<int> actions(39, 0);
  EXPECT_THROW(decode_genotype(actions), std::invalid_argument);
  actions.assign(41, 0);
  EXPECT_THROW(decode_genotype(actions), std::invalid_argument);
}

TEST(Encoding, DecodeOutOfRangeThrows) {
  Rng rng(33);
  auto actions = encode_genotype(random_genotype(rng));
  actions[0] = 2;  // node 2 input has cardinality 2
  EXPECT_THROW(decode_genotype(actions), std::invalid_argument);
  actions[0] = -1;
  EXPECT_THROW(decode_genotype(actions), std::invalid_argument);
  actions[0] = 0;
  actions[2] = 6;  // op_a has kNumOps (6) choices
  EXPECT_THROW(decode_genotype(actions), std::invalid_argument);
  actions[2] = -1;
  EXPECT_THROW(decode_genotype(actions), std::invalid_argument);
}

TEST(Encoding, AllZeroActionsDecode) {
  const std::vector<int> zeros(40, 0);
  const Genotype g = decode_genotype(zeros);
  EXPECT_TRUE(validate_genotype(g));
  for (const NodeSpec& s : g.normal.nodes) {
    EXPECT_EQ(s.input_a, 0);
    EXPECT_EQ(s.op_a, Op::kConv3x3);
  }
}

}  // namespace
}  // namespace yoso
