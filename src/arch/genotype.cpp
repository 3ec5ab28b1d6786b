#include "arch/genotype.h"

#include <sstream>

#include "arch/ops.h"
#include "util/rng.h"

namespace yoso {

bool validate_cell(const CellGenotype& cell, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  for (int n = 0; n < kInteriorNodes; ++n) {
    const NodeSpec& spec = cell.nodes[static_cast<std::size_t>(n)];
    const int node_index = n + 2;
    if (spec.input_a < 0 || spec.input_a >= node_index)
      return fail("node " + std::to_string(node_index) + ": input_a " +
                  std::to_string(spec.input_a) + " out of range");
    if (spec.input_b < 0 || spec.input_b >= node_index)
      return fail("node " + std::to_string(node_index) + ": input_b " +
                  std::to_string(spec.input_b) + " out of range");
    const int op_a = static_cast<int>(spec.op_a);
    const int op_b = static_cast<int>(spec.op_b);
    if (op_a < 0 || op_a >= kNumOps)
      return fail("node " + std::to_string(node_index) + ": bad op_a");
    if (op_b < 0 || op_b >= kNumOps)
      return fail("node " + std::to_string(node_index) + ": bad op_b");
  }
  if (error != nullptr) error->clear();
  return true;
}

bool validate_genotype(const Genotype& g, std::string* error) {
  std::string local;
  if (!validate_cell(g.normal, &local)) {
    if (error != nullptr) *error = "normal cell: " + local;
    return false;
  }
  if (!validate_cell(g.reduction, &local)) {
    if (error != nullptr) *error = "reduction cell: " + local;
    return false;
  }
  if (error != nullptr) error->clear();
  return true;
}

CellGenotype random_cell(Rng& rng) {
  CellGenotype cell;
  for (int n = 0; n < kInteriorNodes; ++n) {
    const int node_index = n + 2;
    NodeSpec& spec = cell.nodes[static_cast<std::size_t>(n)];
    spec.input_a = rng.uniform_int(0, node_index - 1);
    spec.input_b = rng.uniform_int(0, node_index - 1);
    spec.op_a = static_cast<Op>(rng.uniform_int(0, kNumOps - 1));
    spec.op_b = static_cast<Op>(rng.uniform_int(0, kNumOps - 1));
  }
  return cell;
}

Genotype random_genotype(Rng& rng) {
  Genotype g;
  g.normal = random_cell(rng);
  g.reduction = random_cell(rng);
  return g;
}

std::vector<int> loose_end_nodes(const CellGenotype& cell) {
  std::vector<bool> used(kNodesPerCell, false);
  for (const NodeSpec& spec : cell.nodes) {
    used[static_cast<std::size_t>(spec.input_a)] = true;
    used[static_cast<std::size_t>(spec.input_b)] = true;
  }
  std::vector<int> loose;
  for (int i = 2; i < kNodesPerCell; ++i)
    if (!used[static_cast<std::size_t>(i)]) loose.push_back(i);
  // Degenerate (but valid) genotypes can consume every interior node; fall
  // back to the topmost node as the output so the cell always has one.
  if (loose.empty()) loose.push_back(kNodesPerCell - 1);
  return loose;
}

std::string to_string(const CellGenotype& cell) {
  std::ostringstream ss;
  ss << "[";
  for (std::size_t n = 0; n < cell.nodes.size(); ++n) {
    const NodeSpec& s = cell.nodes[n];
    if (n > 0) ss << " ";
    ss << (n + 2) << ":(" << s.input_a << "," << op_name(s.op_a) << ";"
       << s.input_b << "," << op_name(s.op_b) << ")";
  }
  ss << "]";
  return ss.str();
}

std::string to_string(const Genotype& g) {
  return "normal=" + to_string(g.normal) +
         " reduction=" + to_string(g.reduction);
}

double cell_space_size() {
  double total = 1.0;
  for (int node_index = 2; node_index < kNodesPerCell; ++node_index) {
    const double inputs = static_cast<double>(node_index);
    total *= inputs * inputs * static_cast<double>(kNumOps * kNumOps);
  }
  return total;
}

double genotype_space_size() {
  return cell_space_size() * cell_space_size();
}

}  // namespace yoso
