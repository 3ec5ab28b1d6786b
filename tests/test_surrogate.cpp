#include <gtest/gtest.h>

#include "arch/genotype.h"
#include "arch/ops.h"
#include "arch/zoo.h"
#include "surrogate/accuracy_model.h"
#include "util/rng.h"
#include "util/stats.h"

namespace yoso {
namespace {

Genotype all_op_genotype(Op op) {
  Genotype g;
  for (int n = 0; n < kInteriorNodes; ++n) {
    g.normal.nodes[n] = {n, n + 1, op, op};
    g.reduction.nodes[n] = {n, n + 1, op, op};
  }
  return g;
}

TEST(CellDepth, ChainIsMaxDepth) {
  const Genotype g = all_op_genotype(Op::kConv3x3);
  EXPECT_EQ(cell_depth(g.normal), kInteriorNodes);
}

TEST(CellDepth, FanoutIsDepthOne) {
  CellGenotype c;
  for (int n = 0; n < kInteriorNodes; ++n)
    c.nodes[n] = {0, 1, Op::kConv3x3, Op::kConv3x3};
  EXPECT_EQ(cell_depth(c), 1);
}

TEST(ArchFeatures, FractionsSumToOne) {
  Rng rng(1);
  for (int i = 0; i < 30; ++i) {
    const auto f =
        ArchFeatures::compute(random_genotype(rng), default_skeleton());
    EXPECT_NEAR(f.conv_frac + f.dw_frac + f.pool_frac, 1.0, 1e-12);
    EXPECT_GE(f.k5_frac, 0.0);
    EXPECT_LE(f.k5_frac, 1.0);
    EXPECT_GT(f.log10_macs, 6.0);
    EXPECT_GE(f.loose_normal, 1.0);
    EXPECT_LE(f.loose_normal, 5.0);
  }
}

TEST(ArchFeatures, PureOpMixes) {
  const auto conv =
      ArchFeatures::compute(all_op_genotype(Op::kConv3x3), default_skeleton());
  EXPECT_DOUBLE_EQ(conv.conv_frac, 1.0);
  EXPECT_DOUBLE_EQ(conv.pool_frac, 0.0);
  const auto pool = ArchFeatures::compute(all_op_genotype(Op::kMaxPool3x3),
                                          default_skeleton());
  EXPECT_DOUBLE_EQ(pool.pool_frac, 1.0);
  const auto k5 =
      ArchFeatures::compute(all_op_genotype(Op::kConv5x5), default_skeleton());
  EXPECT_DOUBLE_EQ(k5.k5_frac, 1.0);
}

TEST(AccuracyModel, Deterministic) {
  AccuracyModel m;
  Rng rng(2);
  const Genotype g = random_genotype(rng);
  EXPECT_DOUBLE_EQ(m.test_error(g), m.test_error(g));
  EXPECT_DOUBLE_EQ(m.hypernet_error(g), m.hypernet_error(g));
}

TEST(AccuracyModel, ZooLandsInPaperBand) {
  AccuracyModel m;
  for (const auto& ref : reference_models()) {
    const double err = m.test_error(ref.genotype);
    EXPECT_GT(err, 2.4) << ref.name;
    EXPECT_LT(err, 4.2) << ref.name;
    // Within ~0.5 points of the paper's Table-2 value.
    EXPECT_NEAR(err, ref.paper_test_error, 0.55) << ref.name;
  }
}

TEST(AccuracyModel, PreservesPaperExtremes) {
  // Darts_v2 and PnasNet bracket the Table-2 accuracy range; EnasNet sits
  // within a hair of Darts_v2 in the paper too (2.89 vs 2.82), so a small
  // tolerance absorbs the near-tie.
  AccuracyModel m;
  const double best = m.test_error(reference_model("Darts_v2").genotype);
  const double worst = m.test_error(reference_model("PnasNet").genotype);
  for (const auto& ref : reference_models()) {
    const double err = m.test_error(ref.genotype);
    EXPECT_GE(err, best - 0.08) << ref.name;
    EXPECT_LE(err, worst + 0.08) << ref.name;
  }
}

TEST(AccuracyModel, ConvBeatsPoolHeavy) {
  AccuracyModel m;
  EXPECT_LT(m.test_error(all_op_genotype(Op::kConv3x3)),
            m.test_error(all_op_genotype(Op::kAvgPool3x3)));
}

TEST(AccuracyModel, ErrorsClampedToValidBand) {
  AccuracyModel m;
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    const Genotype g = random_genotype(rng);
    const double err = m.test_error(g);
    EXPECT_GT(err, 2.0);
    EXPECT_LT(err, 9.5);
    const double h = m.hypernet_error(g);
    EXPECT_GT(h, 0.4);
    EXPECT_LT(h, 90.1);
    EXPECT_NEAR(m.hypernet_accuracy(g), 1.0 - h / 100.0, 1e-12);
  }
}

TEST(AccuracyModel, HypernetUnderperformsFullTraining) {
  // Inherited weights score worse than fully trained models (Fig 5(b)'s
  // proxy axis sits below the true-accuracy axis).
  AccuracyModel m;
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    const Genotype g = random_genotype(rng);
    EXPECT_GT(m.hypernet_error(g), m.test_error(g));
  }
}

TEST(AccuracyModel, HypernetCorrelatesWithTrueError) {
  // The Fig-5(b) property: one-shot scores rank models like full training.
  AccuracyModel m;
  Rng rng(5);
  std::vector<double> proxy, truth;
  for (int i = 0; i < 130; ++i) {
    const Genotype g = random_genotype(rng);
    proxy.push_back(m.hypernet_error(g));
    truth.push_back(m.test_error(g));
  }
  EXPECT_GT(pearson(proxy, truth), 0.75);
  EXPECT_GT(spearman(proxy, truth), 0.7);
}

TEST(AccuracyModel, CustomParamsRespected) {
  AccuracyModelParams p;
  p.error_floor = 5.0;
  p.error_ceil = 6.0;
  AccuracyModel m(default_skeleton(), p);
  Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    const double err = m.test_error(random_genotype(rng));
    EXPECT_GE(err, 4.4);  // floor * 0.9 slack for residual
    EXPECT_LE(err, 6.0);
  }
}

// The residual hashes the node fields without validating them, so an
// invalid genotype must still be rejected through ArchFeatures::compute,
// before anything indexes the cell by its inputs.
TEST(AccuracyModel, RejectsInvalidGenotype) {
  const AccuracyModel m;
  Genotype self_loop = all_op_genotype(Op::kConv3x3);
  self_loop.normal.nodes[0].input_a = 2;  // node 2 reading itself
  Genotype out_of_range = all_op_genotype(Op::kConv3x3);
  out_of_range.reduction.nodes[4].input_b = 9;
  Genotype bad_op = all_op_genotype(Op::kConv3x3);
  bad_op.normal.nodes[1].op_b = static_cast<Op>(kNumOps);
  for (const Genotype& g : {self_loop, out_of_range, bad_op}) {
    EXPECT_THROW(m.test_error(g), std::invalid_argument);
    EXPECT_THROW(m.hypernet_error(g), std::invalid_argument);
    EXPECT_THROW(m.hypernet_accuracy(g), std::invalid_argument);
  }
}

TEST(AccuracyModel, DifferentSeedsDifferentResiduals) {
  AccuracyModel a(default_skeleton(), {}, 1);
  AccuracyModel b(default_skeleton(), {}, 2);
  Rng rng(7);
  const Genotype g = random_genotype(rng);
  EXPECT_NE(a.test_error(g), b.test_error(g));
}

}  // namespace
}  // namespace yoso
