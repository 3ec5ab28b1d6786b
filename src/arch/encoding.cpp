#include "arch/encoding.h"

#include "arch/genotype.h"
#include "arch/ops.h"
#include "base/contract.h"

namespace yoso {

std::vector<ActionStep> dnn_action_steps() {
  std::vector<ActionStep> steps;
  steps.reserve(kDnnActionCount);
  for (const char* cell_name : {"normal", "reduction"}) {
    for (int n = 0; n < kInteriorNodes; ++n) {
      const int node_index = n + 2;
      const std::string prefix =
          std::string(cell_name) + ".node" + std::to_string(node_index) + ".";
      steps.push_back(
          {ActionStep::Kind::kInput, node_index, prefix + "input_a"});
      steps.push_back(
          {ActionStep::Kind::kInput, node_index, prefix + "input_b"});
      steps.push_back({ActionStep::Kind::kOp, kNumOps, prefix + "op_a"});
      steps.push_back({ActionStep::Kind::kOp, kNumOps, prefix + "op_b"});
    }
  }
  return steps;
}

std::vector<int> encode_genotype(const Genotype& g) {
  std::string error;
  YOSO_REQUIRE(validate_genotype(g, &error),
               "encode_genotype: invalid genotype: ", error);
  std::vector<int> actions;
  actions.reserve(kDnnActionCount);
  for (const CellGenotype* cell : {&g.normal, &g.reduction})
    for (const NodeSpec& spec : cell->nodes)
      actions.insert(actions.end(),
                     {spec.input_a, spec.input_b, static_cast<int>(spec.op_a),
                      static_cast<int>(spec.op_b)});
  return actions;
}

Genotype decode_genotype(std::span<const int> actions) {
  YOSO_REQUIRE(actions.size() == static_cast<std::size_t>(kDnnActionCount),
               "decode_genotype: expected ", kDnnActionCount,
               " actions, got ", actions.size());
  // validate_genotype range-checks every input and op of the decoded cells.
  Genotype g;
  std::size_t at = 0;
  for (CellGenotype* cell : {&g.normal, &g.reduction})
    for (NodeSpec& spec : cell->nodes) {
      spec = {actions[at], actions[at + 1], static_cast<Op>(actions[at + 2]),
              static_cast<Op>(actions[at + 3])};
      at += 4;
    }
  std::string error;
  YOSO_REQUIRE(validate_genotype(g, &error),
               "decode_genotype: decoded invalid genotype: ", error);
  return g;
}

}  // namespace yoso
