#include "arch/encoding.h"

#include "arch/genotype.h"
#include "arch/ops.h"
#include "base/contract.h"

namespace yoso {

namespace {

void append_cell_steps(std::vector<ActionStep>& steps, const char* cell_name) {
  steps.reserve(steps.size() + 4 * static_cast<std::size_t>(kInteriorNodes));
  for (int n = 0; n < kInteriorNodes; ++n) {
    const int node_index = n + 2;
    const std::string prefix =
        std::string(cell_name) + ".node" + std::to_string(node_index) + ".";
    steps.push_back({ActionStep::Kind::kInput, node_index, prefix + "input_a"});
    steps.push_back({ActionStep::Kind::kInput, node_index, prefix + "input_b"});
    steps.push_back({ActionStep::Kind::kOp, kNumOps, prefix + "op_a"});
    steps.push_back({ActionStep::Kind::kOp, kNumOps, prefix + "op_b"});
  }
}

void append_cell_actions(std::vector<int>& actions, const CellGenotype& cell) {
  actions.reserve(actions.size() + 4 * cell.nodes.size());
  for (const NodeSpec& spec : cell.nodes) {
    actions.push_back(spec.input_a);
    actions.push_back(spec.input_b);
    actions.push_back(static_cast<int>(spec.op_a));
    actions.push_back(static_cast<int>(spec.op_b));
  }
}

CellGenotype decode_cell(std::span<const int> actions, std::size_t offset) {
  CellGenotype cell;
  cell.nodes.reserve(kInteriorNodes);
  for (int n = 0; n < kInteriorNodes; ++n) {
    const std::size_t base = offset + static_cast<std::size_t>(n) * 4;
    NodeSpec spec;
    spec.input_a = actions[base];
    spec.input_b = actions[base + 1];
    spec.op_a = static_cast<Op>(actions[base + 2]);
    spec.op_b = static_cast<Op>(actions[base + 3]);
    cell.nodes.push_back(spec);
  }
  return cell;
}

}  // namespace

std::vector<ActionStep> dnn_action_steps() {
  std::vector<ActionStep> steps;
  steps.reserve(kDnnActionCount);
  append_cell_steps(steps, "normal");
  append_cell_steps(steps, "reduction");
  return steps;
}

std::vector<int> encode_genotype(const Genotype& g) {
  std::string error;
  YOSO_REQUIRE(validate_genotype(g, &error),
               "encode_genotype: invalid genotype: ", error);
  std::vector<int> actions;
  actions.reserve(kDnnActionCount);
  append_cell_actions(actions, g.normal);
  append_cell_actions(actions, g.reduction);
  return actions;
}

Genotype decode_genotype(std::span<const int> actions) {
  YOSO_REQUIRE(actions.size() == static_cast<std::size_t>(kDnnActionCount),
               "decode_genotype: expected ", kDnnActionCount,
               " actions, got ", actions.size());
  // validate_genotype range-checks every input and op of the decoded cells.
  Genotype g;
  g.normal = decode_cell(actions, 0);
  g.reduction =
      decode_cell(actions, static_cast<std::size_t>(kInteriorNodes) * 4);
  std::string error;
  YOSO_REQUIRE(validate_genotype(g, &error),
               "decode_genotype: decoded invalid genotype: ", error);
  return g;
}

}  // namespace yoso
