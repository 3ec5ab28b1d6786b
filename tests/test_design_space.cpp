#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "accel/config.h"
#include "arch/genotype.h"
#include "arch/network.h"
#include "arch/ops.h"
#include "base/contract.h"
#include "core/design_space.h"
#include "util/rng.h"

namespace yoso {
namespace {

/// The 46-action space: 1-3 normal cells per stage, stem 16/24/32.
DesignSpace skeleton_choice_space() {
  return DesignSpace(default_config_space(), {1, 2, 3}, {16, 24, 32});
}

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

TEST(DesignSpace, SkeletonChoicesGiveFortySixActions) {
  const DesignSpace space = skeleton_choice_space();
  EXPECT_EQ(space.num_actions(), 46);
  const auto cards = space.cardinalities();
  ASSERT_EQ(cards.size(), 46u);
  EXPECT_EQ(cards[44], 3);  // normal cells {1,2,3}
  EXPECT_EQ(cards[45], 3);  // stem {16,24,32}
  const auto names = space.action_names();
  ASSERT_EQ(names.size(), 46u);
  EXPECT_EQ(names[45], "skeleton.stem_channels");
  EXPECT_NEAR(space.log10_size(), DesignSpace().log10_size() + std::log10(9.0),
              1e-9);
}

TEST(DesignSpace, ResolveSkeletonBuildsPaperPattern) {
  const NetworkSkeleton base = default_skeleton();
  CandidateDesign c;
  EXPECT_EQ(resolve_skeleton(base, c).cells, base.cells);  // 0 keeps base
  EXPECT_EQ(resolve_skeleton(base, c).stem_channels, base.stem_channels);
  c.normal_cells = 2;
  c.stem_channels = 32;
  const NetworkSkeleton s = resolve_skeleton(base, c);
  // N N R N N R
  ASSERT_EQ(s.cells.size(), 6u);
  EXPECT_EQ(s.cells[0], CellKind::kNormal);
  EXPECT_EQ(s.cells[2], CellKind::kReduction);
  EXPECT_EQ(s.cells[5], CellKind::kReduction);
  EXPECT_EQ(s.stem_channels, 32);
  EXPECT_EQ(s.input_height, base.input_height);
  EXPECT_EQ(s.num_classes, base.num_classes);
  // 1 normal cell: N R N R.
  c.normal_cells = 1;
  EXPECT_EQ(resolve_skeleton(base, c).cells,
            (std::vector<CellKind>{CellKind::kNormal, CellKind::kReduction,
                                   CellKind::kNormal, CellKind::kReduction}));
}

TEST(DesignSpace, SkeletonChoiceEncodeDecodeRoundTrip) {
  const DesignSpace space = skeleton_choice_space();
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const CandidateDesign c = space.random_candidate(rng);
    const auto actions = space.encode(c);
    ASSERT_EQ(actions.size(), 46u);
    EXPECT_EQ(space.decode(actions), c);
  }
}

TEST(DesignSpace, SkeletonChoiceDecodeRejectsWrongLength) {
  const DesignSpace space = skeleton_choice_space();
  EXPECT_THROW(space.decode(std::vector<int>(44, 0)), std::invalid_argument);
}

TEST(DesignSpace, RandomCandidatesCoverSkeletons) {
  const DesignSpace space = skeleton_choice_space();
  Rng rng(5);
  std::set<std::pair<int, int>> skeletons;
  for (int i = 0; i < 100; ++i) {
    const CandidateDesign c = space.random_candidate(rng);
    skeletons.insert({c.normal_cells, c.stem_channels});
  }
  EXPECT_EQ(skeletons.size(), 9u);  // every (normal cells, stem) pair
}

TEST(DesignSpace, EncodeRejectsChoiceNotInSpace) {
  const DesignSpace choices = skeleton_choice_space();
  Rng rng(8);
  CandidateDesign c = choices.random_candidate(rng);
  c.stem_channels = 20;  // not one of {16, 24, 32}
  EXPECT_THROW(choices.encode(c), ContractViolation);
  c.stem_channels = 16;
  c.normal_cells = 0;  // the fixed-skeleton value
  EXPECT_THROW(choices.encode(c), ContractViolation);
  // A fixed-skeleton space offers no choice at all.
  const DesignSpace fixed;
  CandidateDesign d = fixed.random_candidate(rng);
  EXPECT_NO_THROW(fixed.encode(d));
  d.normal_cells = 2;
  EXPECT_THROW(fixed.encode(d), ContractViolation);
}

TEST(DesignSpace, RejectsMalformedSkeletonChoices) {
  const ConfigSpace cs = default_config_space();
  EXPECT_THROW(DesignSpace(cs, {1, 2}, {}), ContractViolation);   // half set
  EXPECT_THROW(DesignSpace(cs, {}, {16}), ContractViolation);     // half set
  EXPECT_THROW(DesignSpace(cs, {1, 1}, {16}), ContractViolation); // duplicate
  EXPECT_THROW(DesignSpace(cs, {0, 1}, {16}), ContractViolation); // below 1
  EXPECT_THROW(DesignSpace(cs, {1}, {256}), ContractViolation);   // above 255
  EXPECT_NO_THROW(DesignSpace(cs, {255}, {1}));
}

/// `a` with one field changed: a node field moves to another value below 8,
/// a config field moves by 1, 2^8, 2^16 or 2^24 (the larger steps keep the
/// low bytes, so a key that truncates a field would alias them), or a
/// skeleton choice moves to another byte value.
CandidateDesign mutate_one_field(const CandidateDesign& a, Rng& rng) {
  CandidateDesign b = a;
  constexpr int kNodeFields = 2 * kInteriorNodes * 4;
  const int field = rng.uniform_int(0, kNodeFields + 5 + 2 - 1);
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
  if (field >= kNodeFields + 5) {
    std::uint8_t& choice =
        field == kNodeFields + 5 ? b.normal_cells : b.stem_channels;
    choice = static_cast<std::uint8_t>(choice + rng.uniform_int(1, 255));
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
  for (const DesignSpace& space : {DesignSpace(), skeleton_choice_space()}) {
    Rng rng(11);
    CandidateDesign previous = space.random_candidate(rng);
    for (int i = 0; i < 3000; ++i) {
      const CandidateDesign a = space.random_candidate(rng);
      const CandidateDesign b = mutate_one_field(a, rng);
      ASSERT_NE(a, b);
      EXPECT_NE(candidate_key(a), candidate_key(b)) << i;
      const CandidateDesign copy = a;
      EXPECT_EQ(candidate_key(a), candidate_key(copy)) << i;
      EXPECT_EQ(candidate_key(a) == candidate_key(previous), a == previous)
          << i;
      previous = a;
    }
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
