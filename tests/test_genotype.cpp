#include <gtest/gtest.h>
#include <set>

#include "arch/genotype.h"
#include "arch/ops.h"
#include "util/rng.h"

namespace yoso {
namespace {

CellGenotype chain_cell() {
  // Each node reads the two immediately previous nodes.
  CellGenotype c;
  for (int n = 0; n < kInteriorNodes; ++n) {
    NodeSpec s;
    s.input_a = n;      // node index n (previous interior or input)
    s.input_b = n + 1;  // the immediately preceding node
    s.op_a = Op::kConv3x3;
    s.op_b = Op::kDwConv3x3;
    c.nodes[n] = s;
  }
  return c;
}

TEST(Genotype, ChainCellIsValid) {
  std::string error;
  EXPECT_TRUE(validate_cell(chain_cell(), &error)) << error;
  EXPECT_TRUE(error.empty());
}

TEST(Genotype, ForwardReferenceInvalid) {
  CellGenotype c = chain_cell();
  c.nodes[0].input_a = 2;  // node 2 cannot read itself
  EXPECT_FALSE(validate_cell(c));
  c = chain_cell();
  c.nodes[0].input_b = 5;  // nor a later node
  EXPECT_FALSE(validate_cell(c));
}

TEST(Genotype, NegativeInputInvalid) {
  CellGenotype c = chain_cell();
  c.nodes[2].input_a = -1;
  EXPECT_FALSE(validate_cell(c));
}

TEST(Genotype, BadOpInvalid) {
  CellGenotype c = chain_cell();
  c.nodes[1].op_a = static_cast<Op>(17);
  EXPECT_FALSE(validate_cell(c));
}

TEST(Genotype, ValidateGenotypeNamesBadCell) {
  Genotype g;
  g.normal = chain_cell();
  g.reduction = chain_cell();
  g.reduction.nodes[0].input_a = 3;
  std::string error;
  EXPECT_FALSE(validate_genotype(g, &error));
  EXPECT_NE(error.find("reduction"), std::string::npos);
}

TEST(Genotype, LooseEndsChainIsLastNode) {
  // In the chain cell every interior node except the last feeds a successor.
  const auto loose = loose_end_nodes(chain_cell());
  ASSERT_EQ(loose.size(), 1u);
  EXPECT_EQ(loose[0], kNodesPerCell - 1);
}

TEST(Genotype, LooseEndsAllUnused) {
  // Every node reads only the two cell inputs -> all interior nodes loose.
  CellGenotype c;
  for (int n = 0; n < kInteriorNodes; ++n)
    c.nodes[n] = {0, 1, Op::kConv3x3, Op::kConv3x3};
  const auto loose = loose_end_nodes(c);
  EXPECT_EQ(loose.size(), static_cast<std::size_t>(kInteriorNodes));
}

TEST(Genotype, LooseEndsSortedAscending) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const auto loose = loose_end_nodes(random_cell(rng));
    EXPECT_FALSE(loose.empty());
    for (std::size_t j = 1; j < loose.size(); ++j)
      EXPECT_LT(loose[j - 1], loose[j]);
    for (int node : loose) {
      EXPECT_GE(node, 2);
      EXPECT_LT(node, kNodesPerCell);
    }
  }
}

TEST(Genotype, ToStringMentionsOps) {
  const std::string s = to_string(chain_cell());
  EXPECT_NE(s.find("conv3x3"), std::string::npos);
  EXPECT_NE(s.find("dwconv3x3"), std::string::npos);
}

TEST(Genotype, SpaceSizeMatchesFormula) {
  // prod_{i=2..6} i^2 * 36 = (2*3*4*5*6)^2 * 36^5
  const double expected =
      720.0 * 720.0 * 36.0 * 36.0 * 36.0 * 36.0 * 36.0;
  EXPECT_NEAR(cell_space_size(), expected, expected * 1e-12);
  EXPECT_NEAR(genotype_space_size(), expected * expected,
              expected * expected * 1e-12);
}

TEST(Genotype, SpaceSizeIsAstronomical) {
  // The paper quotes ~5x10^11 for a restricted counting; our full count is
  // larger but must exceed 10^10 regardless.
  EXPECT_GT(genotype_space_size(), 1e10);
}

class RandomGenotypeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGenotypeSweep, AlwaysValid) {
  Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    const Genotype g = random_genotype(rng);
    std::string error;
    EXPECT_TRUE(validate_genotype(g, &error)) << error;
  }
}

TEST_P(RandomGenotypeSweep, SamplesDiverse) {
  Rng rng(GetParam());
  std::set<std::string> seen;
  for (int i = 0; i < 50; ++i) seen.insert(to_string(random_genotype(rng)));
  EXPECT_GT(seen.size(), 45u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGenotypeSweep,
                         ::testing::Values(1ull, 7ull, 99ull, 12345ull));

}  // namespace
}  // namespace yoso
