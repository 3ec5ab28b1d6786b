#include <gtest/gtest.h>

#include "arch/genotype.h"
#include "arch/ops.h"
#include "nn/cell.h"
#include "nn/module.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace yoso {
namespace {

Tensor random_tensor(std::vector<int> shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

CellGenotype chain_cell(Op op = Op::kConv3x3) {
  CellGenotype c;
  for (int n = 0; n < kInteriorNodes; ++n)
    c.nodes[n] = {n, n + 1, op, op};
  return c;
}

CellGenotype fanout_cell() {
  // All nodes read the two inputs -> 5 loose ends.
  CellGenotype c;
  for (int n = 0; n < kInteriorNodes; ++n)
    c.nodes[n] = {0, 1, Op::kDwConv3x3, Op::kMaxPool3x3};
  return c;
}

TEST(OpBank, CreatesModulesLazilyAndCachesThem) {
  OpBank bank(4, false, 1);
  EXPECT_EQ(bank.size(), 0u);
  Module* a = bank.edge(2, 0, Op::kConv3x3);
  EXPECT_EQ(bank.size(), 1u);
  Module* b = bank.edge(2, 0, Op::kConv3x3);
  EXPECT_EQ(a, b);
  bank.edge(2, 1, Op::kConv3x3);
  bank.edge(2, 0, Op::kConv5x5);
  EXPECT_EQ(bank.size(), 3u);
}

TEST(OpBank, DeterministicWeightsPerEdge) {
  OpBank bank1(4, false, 99);
  OpBank bank2(4, false, 99);
  std::vector<Param*> p1, p2;
  bank1.edge(3, 1, Op::kConv3x3)->collect_params(p1);
  bank2.edge(3, 1, Op::kConv3x3)->collect_params(p2);
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i)
    for (std::size_t j = 0; j < p1[i]->value.numel(); ++j)
      EXPECT_FLOAT_EQ(p1[i]->value[j], p2[i]->value[j]);
}

TEST(CellModule, NormalCellPreservesShape) {
  Rng rng(1);
  CellModule cell(4, false, 7);
  const Tensor s0 = random_tensor({2, 6, 8, 8}, rng);
  const Tensor s1 = random_tensor({2, 6, 8, 8}, rng);
  const CellGenotype path = chain_cell();
  const Tensor out = cell.forward(path, s0, s1);
  EXPECT_EQ(out.dim(0), 2);
  EXPECT_EQ(out.dim(1), cell.out_channels(path));
  EXPECT_EQ(out.dim(2), 8);
  EXPECT_EQ(out.dim(3), 8);
}

TEST(CellModule, ReductionCellHalvesSpatial) {
  Rng rng(2);
  CellModule cell(8, true, 7);
  const Tensor s0 = random_tensor({1, 6, 8, 8}, rng);
  const Tensor s1 = random_tensor({1, 6, 8, 8}, rng);
  const Tensor out = cell.forward(chain_cell(), s0, s1);
  EXPECT_EQ(out.dim(2), 4);
  EXPECT_EQ(out.dim(3), 4);
}

TEST(CellModule, OutChannelsTracksLooseEnds) {
  CellModule cell(4, false, 7);
  EXPECT_EQ(cell.out_channels(chain_cell()), 4);       // 1 loose end
  EXPECT_EQ(cell.out_channels(fanout_cell()), 20);     // 5 loose ends
}

TEST(CellModule, MismatchedInputsAligned) {
  // s0 at 8x8 (pre-reduction), s1 at 4x4: pre0 must stride.
  Rng rng(3);
  CellModule cell(4, false, 7);
  const Tensor s0 = random_tensor({1, 6, 8, 8}, rng);
  const Tensor s1 = random_tensor({1, 6, 4, 4}, rng);
  const Tensor out = cell.forward(fanout_cell(), s0, s1);
  EXPECT_EQ(out.dim(2), 4);
}

TEST(CellModule, InvalidPathThrows) {
  Rng rng(4);
  CellModule cell(4, false, 7);
  CellGenotype bad = chain_cell();
  bad.nodes[0].input_b = 6;
  const Tensor s = random_tensor({1, 4, 4, 4}, rng);
  EXPECT_THROW(cell.forward(bad, s, s), std::invalid_argument);
}

TEST(CellModule, BackwardShapesMatchInputs) {
  Rng rng(5);
  CellModule cell(4, false, 7);
  const Tensor s0 = random_tensor({2, 5, 6, 6}, rng);
  const Tensor s1 = random_tensor({2, 7, 6, 6}, rng);
  const Tensor out = cell.forward(fanout_cell(), s0, s1);
  const auto [g0, g1] = cell.backward(Tensor(out.shape(), 1.0f));
  EXPECT_EQ(g0.shape(), s0.shape());
  EXPECT_EQ(g1.shape(), s1.shape());
}

TEST(CellModule, BackwardWithoutForwardThrows) {
  CellModule cell(4, false, 7);
  EXPECT_THROW(cell.backward(Tensor({1, 4, 4, 4})), std::logic_error);
}

TEST(CellModule, GradientCheckThroughCell) {
  // End-to-end numerical check through the DAG (small sizes).
  Rng rng(6);
  CellModule cell(2, false, 11);
  CellGenotype path;
  path.nodes[0] = {0, 1, Op::kConv3x3, Op::kAvgPool3x3};
  path.nodes[1] = {2, 0, Op::kDwConv3x3, Op::kConv3x3};
  path.nodes[2] = {1, 3, Op::kMaxPool3x3, Op::kConv3x3};
  path.nodes[3] = {2, 4, Op::kConv3x3, Op::kDwConv3x3};
  path.nodes[4] = {5, 0, Op::kAvgPool3x3, Op::kConv3x3};

  Tensor s0 = random_tensor({1, 2, 3, 3}, rng);
  Tensor s1 = random_tensor({1, 2, 3, 3}, rng);
  Tensor out = cell.forward(path, s0, s1);
  Tensor v = random_tensor(out.shape(), rng);
  auto readout = [&](const Tensor& y) {
    double acc = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i)
      acc += static_cast<double>(y[i]) * v[i];
    return acc;
  };
  auto [g0, g1] = cell.backward(v);

  const float eps = 1e-2f;
  for (std::size_t i = 0; i < s0.numel(); i += 3) {
    Tensor sp = s0;
    sp[i] += eps;
    Tensor sm = s0;
    sm[i] -= eps;
    cell.clear_cache();
    const double lp = readout(cell.forward(path, sp, s1));
    cell.clear_cache();
    const double lm = readout(cell.forward(path, sm, s1));
    cell.clear_cache();
    EXPECT_NEAR(g0[i], (lp - lm) / (2.0 * eps), 5e-2) << "s0 grad " << i;
  }
  for (std::size_t i = 0; i < s1.numel(); i += 3) {
    Tensor sp = s1;
    sp[i] += eps;
    Tensor sm = s1;
    sm[i] -= eps;
    cell.clear_cache();
    const double lp = readout(cell.forward(path, s0, sp));
    cell.clear_cache();
    const double lm = readout(cell.forward(path, s0, sm));
    cell.clear_cache();
    EXPECT_NEAR(g1[i], (lp - lm) / (2.0 * eps), 5e-2) << "s1 grad " << i;
  }
}

TEST(CellModule, DuplicateEdgeInOneNodeIsSafe) {
  // Both branches of a node pick the identical (input, op) edge: the shared
  // module is called twice and must backprop via its cache stack.
  Rng rng(7);
  CellModule cell(3, false, 13);
  CellGenotype path;
  path.nodes[0] = {1, 1, Op::kConv3x3, Op::kConv3x3};  // duplicate edge
  for (int n = 1; n < kInteriorNodes; ++n)
    path.nodes[n] = {n + 1, n + 1, Op::kAvgPool3x3, Op::kMaxPool3x3};
  const Tensor s = random_tensor({1, 3, 4, 4}, rng);
  const Tensor out = cell.forward(path, s, s);
  EXPECT_NO_THROW(cell.backward(Tensor(out.shape(), 1.0f)));
}

TEST(CellModule, ParamsGrowWithDistinctPaths) {
  Rng rng(8);
  CellModule cell(2, false, 17);
  const Tensor s = random_tensor({1, 2, 4, 4}, rng);
  std::vector<Param*> params;
  cell.collect_params(params);
  EXPECT_TRUE(params.empty());
  cell.forward(chain_cell(Op::kConv3x3), s, s);
  cell.clear_cache();
  params.clear();
  cell.collect_params(params);
  const std::size_t after_first = params.size();
  EXPECT_GT(after_first, 0u);
  cell.forward(chain_cell(Op::kConv5x5), s, s);
  cell.clear_cache();
  params.clear();
  cell.collect_params(params);
  EXPECT_GT(params.size(), after_first);
}

TEST(CellModule, PoolOnlyPathHasOnlyPreprocessParams) {
  Rng rng(9);
  CellModule cell(2, false, 19);
  CellGenotype pools;
  for (int n = 0; n < kInteriorNodes; ++n)
    pools.nodes[n] = {0, 1, Op::kMaxPool3x3, Op::kAvgPool3x3};
  const Tensor s = random_tensor({1, 2, 4, 4}, rng);
  cell.forward(pools, s, s);
  cell.clear_cache();
  std::vector<Param*> params;
  cell.collect_params(params);
  // Only the two preprocessing 1x1 convs have weights.
  EXPECT_EQ(params.size(), 2u);
}

}  // namespace
}  // namespace yoso
