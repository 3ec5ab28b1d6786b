#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "accel/config.h"
#include "arch/genotype.h"
#include "arch/ops.h"
#include "core/design_space.h"
#include "core/serialize.h"
#include "util/rng.h"

namespace yoso {
namespace {

// The writers are injective: two designs print the same string exactly when
// they are equal.  Every tenth design repeats an earlier one, so both sides
// of the equivalence are exercised.
template <typename Design, typename Draw, typename Print>
void expect_prints_equal_iff_equal(Draw draw, Print print) {
  std::vector<Design> designs;
  for (std::size_t i = 0; i < 200; ++i)
    designs.push_back(i % 10 == 9 ? designs[i / 2] : draw());
  std::vector<std::string> printed;
  for (const Design& d : designs) printed.push_back(print(d));
  for (std::size_t i = 0; i < designs.size(); ++i)
    for (std::size_t j = i + 1; j < designs.size(); ++j)
      EXPECT_EQ(printed[i] == printed[j], designs[i] == designs[j])
          << printed[i] << " vs " << printed[j];
}

TEST(Serialize, CellRoundTrip) {
  Rng rng(1);
  expect_prints_equal_iff_equal<CellGenotype>(
      [&] { return random_cell(rng); }, serialize_cell);
}

TEST(Serialize, GenotypeRoundTrip) {
  Rng rng(2);
  expect_prints_equal_iff_equal<Genotype>(
      [&] { return random_genotype(rng); }, serialize_genotype);
}

TEST(Serialize, GenotypeFormatIsStable) {
  Genotype g;
  for (int n = 0; n < kInteriorNodes; ++n) {
    g.normal.nodes[n] = {0, 1, Op::kConv3x3, Op::kMaxPool3x3};
    g.reduction.nodes[n] = {n, n + 1, Op::kDwConv5x5, Op::kAvgPool3x3};
  }
  const std::string s = serialize_genotype(g);
  EXPECT_EQ(s.rfind("normal=0,1,conv3x3,maxpool3x3;", 0), 0u);
  EXPECT_NE(s.find("|reduction=0,1,dwconv5x5,avgpool3x3;"), std::string::npos);
}

TEST(Serialize, ConfigRoundTrip) {
  const std::vector<AcceleratorConfig> configs =
      default_config_space().enumerate();
  std::set<std::string> printed;
  for (const AcceleratorConfig& c : configs) printed.insert(c.to_string());
  EXPECT_EQ(printed.size(), configs.size());
}

TEST(Serialize, CandidateRoundTrip) {
  DesignSpace space;
  Rng rng(3);
  expect_prints_equal_iff_equal<CandidateDesign>(
      [&] { return space.random_candidate(rng); }, serialize_candidate);
}

}  // namespace
}  // namespace yoso
