#include <gtest/gtest.h>

#include <array>

#include "accel/config.h"
#include "arch/genotype.h"
#include "arch/ops.h"
#include "base/contract.h"
#include "core/design_space.h"
#include "util/rng.h"

namespace yoso {
namespace {

TEST(DesignSpace, FortyFourActions) {
  DesignSpace space;
  EXPECT_EQ(space.num_actions(), 44);  // S=40 DNN + L=4 hardware
  EXPECT_EQ(space.cardinalities().size(), 44u);
  EXPECT_EQ(space.action_names().size(), 44u);
}

TEST(DesignSpace, HardwareActionsAppendedLast) {
  DesignSpace space;
  const auto cards = space.cardinalities();
  const auto names = space.action_names();
  EXPECT_EQ(names[40], "hw.pe_shape");
  EXPECT_EQ(names[43], "hw.dataflow");
  EXPECT_EQ(cards[43], kNumDataflows);
  EXPECT_EQ(cards[40],
            static_cast<int>(space.config_space().pe_shapes.size()));
}

TEST(DesignSpace, EncodeDecodeRoundTrip) {
  DesignSpace space;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const CandidateDesign c = space.random_candidate(rng);
    const auto actions = space.encode(c);
    ASSERT_EQ(actions.size(), 44u);
    EXPECT_EQ(space.decode(actions), c);
  }
}

TEST(DesignSpace, RandomCandidatesValidAndInRange) {
  DesignSpace space;
  const auto cards = space.cardinalities();
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const CandidateDesign c = space.random_candidate(rng);
    EXPECT_TRUE(validate_genotype(c.genotype));
    const auto actions = space.encode(c);
    for (std::size_t t = 0; t < actions.size(); ++t) {
      EXPECT_GE(actions[t], 0);
      EXPECT_LT(actions[t], cards[t]);
    }
  }
}

TEST(DesignSpace, DecodeRejectsWrongLength) {
  DesignSpace space;
  EXPECT_THROW(space.decode(std::vector<int>(43, 0)), std::invalid_argument);
  EXPECT_THROW(space.decode(std::vector<int>(45, 0)), std::invalid_argument);
}

TEST(DesignSpace, DecodeRejectsOutOfRangeHardwareAction) {
  DesignSpace space;
  std::vector<int> actions(44, 0);
  actions[43] = kNumDataflows;  // one past the last dataflow
  EXPECT_THROW(space.decode(actions), std::invalid_argument);
}

TEST(DesignSpace, JointSpaceIsHuge) {
  DesignSpace space;
  // The paper speaks of ~10^15 relevant solutions inside an even larger raw
  // space; our exact count must be at least that.
  EXPECT_GT(space.log10_size(), 15.0);
}

TEST(DesignSpace, CustomConfigSpaceRespected) {
  ConfigSpace cs;
  cs.pe_shapes = {{8, 8}};
  cs.g_buf_kb_options = {256};
  cs.r_buf_byte_options = {128};
  DesignSpace space(cs);
  EXPECT_EQ(space.cardinalities()[40], 1);
  Rng rng(3);
  const CandidateDesign c = space.random_candidate(rng);
  EXPECT_EQ(c.config.pe_rows, 8);
  EXPECT_EQ(c.config.g_buf_kb, 256);
}

/// `a` with one field changed: a node field moves to another value below 8,
/// or a config field moves by 1, 2^8, 2^16 or 2^24 (the larger steps keep
/// the low bytes, so a key that truncates a field would alias them).
CandidateDesign mutate_one_field(const CandidateDesign& a, Rng& rng) {
  CandidateDesign b = a;
  constexpr int kNodeFields = 2 * kInteriorNodes * 4;
  const int field = rng.uniform_int(0, kNodeFields + 5 - 1);
  if (field < kNodeFields) {
    CellGenotype& cell =
        field < kNodeFields / 2 ? b.genotype.normal : b.genotype.reduction;
    NodeSpec& node =
        cell.nodes[static_cast<std::size_t>(field / 4 % kInteriorNodes)];
    const auto moved = [&rng](int v) {
      return (v + rng.uniform_int(1, 7)) % 8;
    };
    const auto moved_op = [&moved](Op op) {
      return static_cast<Op>(moved(static_cast<int>(op)));
    };
    switch (field % 4) {
      case 0: node.input_a = moved(node.input_a); break;
      case 1: node.input_b = moved(node.input_b); break;
      case 2: node.op_a = moved_op(node.op_a); break;
      default: node.op_b = moved_op(node.op_b);
    }
    return b;
  }
  constexpr std::array<int, 4> kSteps = {1, 1 << 8, 1 << 16, 1 << 24};
  const int step = kSteps[static_cast<std::size_t>(rng.uniform_int(0, 3))];
  AcceleratorConfig& c = b.config;
  switch (field - kNodeFields) {
    case 0: c.pe_rows += step; break;
    case 1: c.pe_cols += step; break;
    case 2: c.g_buf_kb += step; break;
    case 3: c.r_buf_bytes += step; break;
    default:
      c.dataflow = static_cast<Dataflow>(static_cast<int>(c.dataflow) + step);
  }
  return b;
}

TEST(CandidateKey, EqualExactlyWhenCandidatesEqual) {
  const DesignSpace space;
  Rng rng(11);
  CandidateDesign previous = space.random_candidate(rng);
  for (int i = 0; i < 3000; ++i) {
    const CandidateDesign a = space.random_candidate(rng);
    const CandidateDesign b = mutate_one_field(a, rng);
    ASSERT_NE(a, b);
    EXPECT_NE(candidate_key(a), candidate_key(b)) << i;
    const CandidateDesign copy = a;
    EXPECT_EQ(candidate_key(a), candidate_key(copy)) << i;
    EXPECT_EQ(candidate_key(a) == candidate_key(previous), a == previous) << i;
    previous = a;
  }
}

TEST(CandidateKey, NodeFieldOutsideOneByteThrows) {
  Rng rng(12);
  CandidateDesign c = DesignSpace().random_candidate(rng);
  c.genotype.reduction.nodes[4].input_b = 256;
  EXPECT_THROW(candidate_key(c), ContractViolation);
}

}  // namespace
}  // namespace yoso
