#include <gtest/gtest.h>

#include "core/pareto.h"
#include "core/reward.h"

namespace yoso {
namespace {

TEST(Hypervolume, RectangleForSinglePoint) {
  const std::vector<ParetoPoint> points = {{1.0, 1.0}};
  EXPECT_DOUBLE_EQ(hypervolume_2d(points, {3.0, 3.0}), 4.0);
}

TEST(Hypervolume, UnionOfTwoPoints) {
  const std::vector<ParetoPoint> points = {{1.0, 2.0}, {2.0, 1.0}};
  // Each rectangle is 2x1 / 1x2 to ref (3,3): union = 2+2+... compute:
  // area = (2-1)*(3-2) + (3-2)*(3-1) = 1 + 2 = 3.
  EXPECT_DOUBLE_EQ(hypervolume_2d(points, {3.0, 3.0}), 3.0);
}

TEST(Hypervolume, DominatedPointAddsNothing) {
  const std::vector<ParetoPoint> a = {{1.0, 1.0}};
  const std::vector<ParetoPoint> b = {{1.0, 1.0}, {2.0, 2.0}};
  EXPECT_DOUBLE_EQ(hypervolume_2d(a, {4.0, 4.0}),
                   hypervolume_2d(b, {4.0, 4.0}));
}

TEST(Hypervolume, PointsBeyondReferenceClipped) {
  const std::vector<ParetoPoint> points = {{5.0, 5.0}};
  EXPECT_DOUBLE_EQ(hypervolume_2d(points, {3.0, 3.0}), 0.0);
}

TEST(Hypervolume, MoreDiversityMoreVolume) {
  const std::vector<ParetoPoint> narrow = {{2.0, 2.0}};
  const std::vector<ParetoPoint> wide = {{2.0, 2.0}, {1.0, 2.5}, {2.5, 1.0}};
  EXPECT_GT(hypervolume_2d(wide, {4.0, 4.0}),
            hypervolume_2d(narrow, {4.0, 4.0}));
}

TEST(TradeoffPoints, ProjectionAxes) {
  const std::vector<EvalResult> results = {{0.97, 0.5, 4.0}};
  const auto pe = to_tradeoff_points(results, TradeoffMetric::kEnergy);
  EXPECT_NEAR(pe[0].first, 3.0, 1e-9);   // error %
  EXPECT_DOUBLE_EQ(pe[0].second, 4.0);   // energy
  const auto pl = to_tradeoff_points(results, TradeoffMetric::kLatency);
  EXPECT_DOUBLE_EQ(pl[0].second, 0.5);
}

}  // namespace
}  // namespace yoso
