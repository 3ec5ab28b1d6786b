#include "accel/config.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <string>

namespace yoso {
namespace {

TEST(Dataflow, NamesRoundTrip) {
  std::set<std::string> names;
  for (int i = 0; i < kNumDataflows; ++i)
    names.insert(dataflow_name(static_cast<Dataflow>(i)));
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumDataflows));
  EXPECT_EQ(dataflow_name(Dataflow::kWeightStationary), "WS");
  EXPECT_EQ(dataflow_name(Dataflow::kNoLocalReuse), "NLR");
}

TEST(AcceleratorConfig, ToStringMatchesPaperStyle) {
  AcceleratorConfig c{16, 32, 512, 512, Dataflow::kOutputStationary};
  EXPECT_EQ(c.to_string(), "16*32/512KB/512B/OS");
  EXPECT_EQ(c.num_pes(), 512);
}

TEST(ConfigSpace, DefaultCoversTable1Ranges) {
  const ConfigSpace space = default_config_space();
  // Table 2 shapes must be present.
  std::set<std::pair<int, int>> shapes(space.pe_shapes.begin(),
                                       space.pe_shapes.end());
  EXPECT_TRUE(shapes.count({16, 32}));
  EXPECT_TRUE(shapes.count({14, 16}));
  EXPECT_TRUE(shapes.count({16, 20}));
  EXPECT_TRUE(shapes.count({8, 8}));
  // Buffer ranges from Table 1.
  EXPECT_EQ(space.g_buf_kb_options.front(), 108);
  EXPECT_EQ(space.g_buf_kb_options.back(), 1024);
  EXPECT_EQ(space.r_buf_byte_options.front(), 64);
  EXPECT_EQ(space.r_buf_byte_options.back(), 1024);
}

TEST(ConfigSpace, FourActions) {
  const ConfigSpace space = default_config_space();
  EXPECT_EQ(ConfigSpace::kActionCount, 4);
  EXPECT_EQ(space.cardinality(3), kNumDataflows);
  EXPECT_THROW(space.cardinality(4), std::invalid_argument);
}

TEST(ConfigSpace, SizeIsProductOfCardinalities) {
  const ConfigSpace space = default_config_space();
  std::size_t expected = 1;
  for (int a = 0; a < ConfigSpace::kActionCount; ++a)
    expected *= static_cast<std::size_t>(space.cardinality(a));
  EXPECT_EQ(space.size(), expected);
  EXPECT_EQ(space.enumerate().size(), expected);
}

TEST(ConfigSpace, EncodeDecodeRoundTrip) {
  const ConfigSpace space = default_config_space();
  for (const AcceleratorConfig& c : space.enumerate()) {
    const auto actions = space.encode(c);
    EXPECT_EQ(space.decode(actions), c);
  }
}

TEST(ConfigSpace, DecodeRejectsBadActions) {
  const ConfigSpace space = default_config_space();
  EXPECT_THROW(space.decode(std::vector<int>{0, 0, 0}), std::invalid_argument);
  EXPECT_THROW(space.decode(std::vector<int>{-1, 0, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW(space.decode(std::vector<int>{0, 99, 0, 0}),
               std::invalid_argument);
}

TEST(ConfigSpace, EncodeRejectsForeignConfig) {
  const ConfigSpace space = default_config_space();
  AcceleratorConfig c{7, 7, 512, 512, Dataflow::kWeightStationary};
  EXPECT_THROW(space.encode(c), std::invalid_argument);
}

TEST(ConfigSpace, EnumerateHasNoDuplicates) {
  const ConfigSpace space = default_config_space();
  std::set<std::string> seen;
  for (const AcceleratorConfig& c : space.enumerate())
    seen.insert(c.to_string());
  EXPECT_EQ(seen.size(), space.size());
}

}  // namespace
}  // namespace yoso
