#include "arch/ops.h"

#include <stdexcept>

namespace yoso {

int op_kernel_size(Op op) {
  switch (op) {
    case Op::kConv3x3:
    case Op::kDwConv3x3:
    case Op::kMaxPool3x3:
    case Op::kAvgPool3x3:
      return 3;
    case Op::kConv5x5:
    case Op::kDwConv5x5:
      return 5;
  }
  throw std::invalid_argument("op_kernel_size: invalid op");
}

bool op_is_conv(Op op) {
  return op == Op::kConv3x3 || op == Op::kConv5x5;
}

bool op_is_depthwise(Op op) {
  return op == Op::kDwConv3x3 || op == Op::kDwConv5x5;
}

bool op_is_pool(Op op) {
  return op == Op::kMaxPool3x3 || op == Op::kAvgPool3x3;
}

bool op_has_weights(Op op) {
  return op_is_conv(op) || op_is_depthwise(op);
}

std::string op_name(Op op) {
  switch (op) {
    case Op::kConv3x3: return "conv3x3";
    case Op::kConv5x5: return "conv5x5";
    case Op::kDwConv3x3: return "dwconv3x3";
    case Op::kDwConv5x5: return "dwconv5x5";
    case Op::kMaxPool3x3: return "maxpool3x3";
    case Op::kAvgPool3x3: return "avgpool3x3";
  }
  throw std::invalid_argument("op_name: invalid op");
}

}  // namespace yoso
