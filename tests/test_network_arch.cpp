#include <gtest/gtest.h>

#include "arch/genotype.h"
#include "arch/network.h"
#include "arch/ops.h"
#include "arch/zoo.h"
#include "util/rng.h"

namespace yoso {
namespace {

Genotype simple_genotype() {
  Genotype g;
  for (int n = 0; n < kInteriorNodes; ++n) {
    g.normal.nodes[n] = {0, 1, Op::kConv3x3, Op::kMaxPool3x3};
    g.reduction.nodes[n] = {0, 1, Op::kDwConv5x5, Op::kAvgPool3x3};
  }
  return g;
}

TEST(LayerModel, ConvMacsAndParams) {
  Layer l;
  l.kind = LayerKind::kConv;
  l.in_h = 8;
  l.in_w = 8;
  l.in_c = 4;
  l.out_c = 6;
  l.kernel = 3;
  l.stride = 1;
  EXPECT_EQ(l.out_h(), 8);
  EXPECT_EQ(l.macs(), 8LL * 8 * 9 * 4 * 6);
  EXPECT_EQ(l.params(), 9LL * 4 * 6);
}

TEST(LayerModel, StrideHalvesOutput) {
  Layer l;
  l.kind = LayerKind::kConv;
  l.in_h = 9;
  l.in_w = 9;
  l.in_c = 1;
  l.out_c = 1;
  l.kernel = 3;
  l.stride = 2;
  EXPECT_EQ(l.out_h(), 5);  // ceil(9/2)
  EXPECT_EQ(l.out_w(), 5);
}

TEST(LayerModel, DepthwiseMacs) {
  Layer l;
  l.kind = LayerKind::kDwConv;
  l.in_h = 4;
  l.in_w = 4;
  l.in_c = 8;
  l.out_c = 8;
  l.kernel = 3;
  l.stride = 1;
  EXPECT_EQ(l.macs(), 4LL * 4 * 9 * 8);
  EXPECT_EQ(l.params(), 9LL * 8);
}

TEST(LayerModel, PoolHasNoMacsOrParams) {
  Layer l;
  l.kind = LayerKind::kPool;
  l.in_h = 4;
  l.in_w = 4;
  l.in_c = 8;
  l.out_c = 8;
  l.kernel = 3;
  l.stride = 1;
  EXPECT_EQ(l.macs(), 0);
  EXPECT_EQ(l.params(), 0);
  EXPECT_GT(l.input_accesses(), 0);
}

TEST(LayerModel, FullyConnected) {
  Layer l;
  l.kind = LayerKind::kFullyConnected;
  l.in_h = 1;
  l.in_w = 1;
  l.in_c = 64;
  l.out_c = 10;
  EXPECT_EQ(l.macs(), 640);
  EXPECT_EQ(l.params(), 650);  // weights + bias
  EXPECT_EQ(l.output_elements(), 10);
}

TEST(ExtractLayers, StemFirstClassifierLast) {
  const auto layers = extract_layers(simple_genotype(), default_skeleton());
  ASSERT_GT(layers.size(), 3u);
  EXPECT_EQ(layers.front().name, "stem");
  EXPECT_EQ(layers.front().in_c, 3);
  EXPECT_EQ(layers.back().kind, LayerKind::kFullyConnected);
  EXPECT_EQ(layers.back().out_c, 10);
  EXPECT_EQ(layers[layers.size() - 2].name, "global_avg_pool");
}

TEST(ExtractLayers, LayerCountMatchesStructure) {
  const auto skeleton = default_skeleton();
  const auto layers = extract_layers(simple_genotype(), skeleton);
  // stem + per cell (2 preprocess + 10 node ops) + gap + fc
  const std::size_t expected = 1 + skeleton.cells.size() * 12 + 2;
  EXPECT_EQ(layers.size(), expected);
}

TEST(ExtractLayers, ReductionHalvesSpatialAndDoublesFilters) {
  const auto skeleton = default_skeleton();  // N N R N N R at 32x32, stem 24
  const auto layers = extract_layers(simple_genotype(), skeleton);
  // Find the first op of cell 2 (the first reduction) reading a cell input:
  // it must have stride 2 and 48 channels.
  bool found = false;
  for (const auto& l : layers) {
    if (l.name.rfind("cell2.node2", 0) == 0) {
      EXPECT_EQ(l.stride, 2);
      EXPECT_EQ(l.in_c, 48);
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
  // Ops inside the last normal cells run at 16x16.
  for (const auto& l : layers) {
    if (l.name.rfind("cell3.node", 0) == 0 && l.stride == 1) {
      EXPECT_EQ(l.in_h, 16);
    }
  }
}

TEST(ExtractLayers, PreprocessAlignsAfterReduction) {
  const auto layers = extract_layers(simple_genotype(), default_skeleton());
  // Cell 3 follows the reduction cell 2: its pre0 input comes from cell 1
  // (32x32) and must be strided to 16x16.
  for (const auto& l : layers) {
    if (l.name == "cell3.pre0") {
      EXPECT_EQ(l.in_h, 32);
      EXPECT_EQ(l.stride, 2);
    }
    if (l.name == "cell3.pre1") {
      EXPECT_EQ(l.in_h, 16);
      EXPECT_EQ(l.stride, 1);
    }
  }
}

TEST(ExtractLayers, InvalidGenotypeThrows) {
  Genotype g = simple_genotype();
  g.normal.nodes[0].input_a = 5;
  EXPECT_THROW(extract_layers(g, default_skeleton()), std::invalid_argument);
}

TEST(ExtractLayers, EmptySkeletonThrows) {
  NetworkSkeleton s = default_skeleton();
  s.cells.clear();
  EXPECT_THROW(extract_layers(simple_genotype(), s), std::invalid_argument);
}

TEST(ExtractLayers, TinySkeletonShapes) {
  const auto skeleton = tiny_skeleton(12, 8);
  const auto layers = extract_layers(simple_genotype(), skeleton);
  EXPECT_EQ(layers.front().in_h, 12);
  EXPECT_EQ(layers.front().out_c, 8);
}

TEST(NetworkStats, AggregatesAreConsistent) {
  const auto layers = extract_layers(simple_genotype(), default_skeleton());
  const auto stats = network_stats(layers);
  EXPECT_EQ(stats.num_layers, layers.size());
  EXPECT_GT(stats.total_macs, 0);
  EXPECT_GT(stats.total_params, 0);
  EXPECT_GT(stats.num_weight_layers, 0u);
  EXPECT_LT(stats.num_weight_layers, stats.num_layers);
  std::int64_t macs = 0;
  for (const auto& l : layers) macs += l.macs();
  EXPECT_EQ(stats.total_macs, macs);
}

TEST(NetworkStats, ConvHeavyCostsMoreThanPoolHeavy) {
  Genotype convs, pools;
  for (int n = 0; n < kInteriorNodes; ++n) {
    convs.normal.nodes[n] = {0, 1, Op::kConv5x5, Op::kConv3x3};
    convs.reduction.nodes[n] = {0, 1, Op::kConv5x5, Op::kConv3x3};
    pools.normal.nodes[n] = {0, 1, Op::kMaxPool3x3, Op::kAvgPool3x3};
    pools.reduction.nodes[n] = {0, 1, Op::kMaxPool3x3, Op::kAvgPool3x3};
  }
  const auto skeleton = default_skeleton();
  const auto sc = network_stats(extract_layers(convs, skeleton));
  const auto sp = network_stats(extract_layers(pools, skeleton));
  EXPECT_GT(sc.total_macs, 5 * sp.total_macs);
  EXPECT_GT(sc.total_params, sp.total_params);
}

class SkeletonSweep : public ::testing::TestWithParam<int> {};

TEST_P(SkeletonSweep, RandomGenotypesExtractCleanly) {
  const int hw = GetParam();
  Rng rng(hw);
  const auto skeleton = tiny_skeleton(hw, 8);
  for (int i = 0; i < 20; ++i) {
    const auto layers = extract_layers(random_genotype(rng), skeleton);
    for (const auto& l : layers) {
      EXPECT_GT(l.in_h, 0) << l.name;
      EXPECT_GT(l.in_c, 0) << l.name;
      EXPECT_GE(l.macs(), 0) << l.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SkeletonSweep, ::testing::Values(8, 12, 16, 32));

}  // namespace
}  // namespace yoso
