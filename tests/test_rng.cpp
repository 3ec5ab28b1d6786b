#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace yoso {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(13);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) EXPECT_NEAR(c, n / 7, n / 7 / 5);
}

TEST(Rng, UniformIndexZeroThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(17);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntBadRangeThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(29);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

TEST(Rng, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(31);
  std::vector<double> w = {0.0, 0.0, 0.0, 0.0};
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.weighted_index(w));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, WeightedIndexErrors) {
  Rng rng(1);
  EXPECT_THROW(rng.weighted_index(std::vector<double>{}),
               std::invalid_argument);
  EXPECT_THROW(rng.weighted_index(std::vector<double>{1.0, -0.5}),
               std::invalid_argument);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(37);
  const auto p = rng.permutation(100);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, PermutationEmpty) {
  Rng rng(1);
  EXPECT_TRUE(rng.permutation(0).empty());
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(41);
  Rng child = parent.fork();
  // Child stream should not reproduce the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (parent.next_u64() == child.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(43);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, StreamsStayInBoundsAndDeterministic) {
  Rng a(GetParam()), b(GetParam());
  for (int i = 0; i < 500; ++i) {
    const double u = a.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_DOUBLE_EQ(u, b.uniform());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ull, 1ull, 42ull, 0xFFFFFFFFull,
                                           0xDEADBEEFCAFEull,
                                           ~std::uint64_t{0}));

}  // namespace
}  // namespace yoso
