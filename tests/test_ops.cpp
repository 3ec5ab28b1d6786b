#include "arch/ops.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

namespace yoso {
namespace {

TEST(Ops, KernelSizes) {
  EXPECT_EQ(op_kernel_size(Op::kConv3x3), 3);
  EXPECT_EQ(op_kernel_size(Op::kConv5x5), 5);
  EXPECT_EQ(op_kernel_size(Op::kDwConv3x3), 3);
  EXPECT_EQ(op_kernel_size(Op::kDwConv5x5), 5);
  EXPECT_EQ(op_kernel_size(Op::kMaxPool3x3), 3);
  EXPECT_EQ(op_kernel_size(Op::kAvgPool3x3), 3);
}

TEST(Ops, Classification) {
  EXPECT_TRUE(op_is_conv(Op::kConv3x3));
  EXPECT_TRUE(op_is_conv(Op::kConv5x5));
  EXPECT_FALSE(op_is_conv(Op::kDwConv3x3));
  EXPECT_TRUE(op_is_depthwise(Op::kDwConv5x5));
  EXPECT_FALSE(op_is_depthwise(Op::kMaxPool3x3));
  EXPECT_TRUE(op_is_pool(Op::kAvgPool3x3));
  EXPECT_FALSE(op_is_pool(Op::kConv5x5));
}

TEST(Ops, ExactlyOneCategoryPerOp) {
  for (Op op : all_ops()) {
    const int categories = (op_is_conv(op) ? 1 : 0) +
                           (op_is_depthwise(op) ? 1 : 0) +
                           (op_is_pool(op) ? 1 : 0);
    EXPECT_EQ(categories, 1) << op_name(op);
  }
}

TEST(Ops, WeightsOnlyForConvs) {
  EXPECT_TRUE(op_has_weights(Op::kConv3x3));
  EXPECT_TRUE(op_has_weights(Op::kDwConv5x5));
  EXPECT_FALSE(op_has_weights(Op::kMaxPool3x3));
  EXPECT_FALSE(op_has_weights(Op::kAvgPool3x3));
}

TEST(Ops, NameRoundTrip) {
  std::set<std::string> names;
  for (Op op : all_ops()) names.insert(op_name(op));
  EXPECT_EQ(names.size(), all_ops().size());
}

TEST(Ops, UnknownNameThrows) {
  EXPECT_THROW(op_name(static_cast<Op>(kNumOps)), std::invalid_argument);
}

TEST(Ops, SixOps) {
  EXPECT_EQ(kNumOps, 6);
  EXPECT_EQ(all_ops().size(), 6u);
}

}  // namespace
}  // namespace yoso
