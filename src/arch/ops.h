#pragma once
// The candidate operation set of the YOSO DNN search space (paper §III.D):
// conv3x3, conv5x5, DWconv3x3, DWconv5x5, max pooling, average pooling.
// ReLU is the only activation used.

#include <array>
#include <string>

namespace yoso {

enum class Op : int {
  kConv3x3 = 0,
  kConv5x5 = 1,
  kDwConv3x3 = 2,
  kDwConv5x5 = 3,
  kMaxPool3x3 = 4,
  kAvgPool3x3 = 5,
};

inline constexpr int kNumOps = 6;

inline constexpr std::array<Op, kNumOps> all_ops() {
  return {Op::kConv3x3,   Op::kConv5x5,    Op::kDwConv3x3,
          Op::kDwConv5x5, Op::kMaxPool3x3, Op::kAvgPool3x3};
}

/// Kernel size of the operation (3 or 5).
int op_kernel_size(Op op);

/// True for conv3x3 / conv5x5 (dense convolutions).
bool op_is_conv(Op op);

/// True for the two depthwise convolutions.
bool op_is_depthwise(Op op);

/// True for max/avg pooling.
bool op_is_pool(Op op);

/// Whether the op has trainable weights.
bool op_has_weights(Op op);

std::string op_name(Op op);

}  // namespace yoso
