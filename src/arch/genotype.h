#pragma once
// Cell-based DNN architecture genotype (paper §III.D, Fig 3).
//
// A cell is a DAG of B = 7 nodes.  Nodes 0 and 1 are the outputs of the two
// previous cells; each of the B-2 = 5 interior nodes is computed from two
// earlier nodes, each transformed by an operation from the 6-op candidate
// set:  I_i = theta_(i,j)(I_j) + theta_(i,k)(I_k),  j < i, k < i  (Eq. 5).
// The cell output is the concatenation of interior nodes that feed no other
// node ("loose ends").
//
// A full architecture is two cell genotypes (normal + reduction); reduction
// cells use stride 2 on edges reading the cell inputs.

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "arch/ops.h"
#include "util/rng.h"

namespace yoso {

/// Number of nodes per cell (B in the paper).
inline constexpr int kNodesPerCell = 7;
/// Interior (searched) nodes per cell: nodes 2..6.
inline constexpr int kInteriorNodes = kNodesPerCell - 2;

/// One interior node: two input node indices and the two ops applied to them.
struct NodeSpec {
  int input_a = 0;
  int input_b = 0;
  Op op_a = Op::kConv3x3;
  Op op_b = Op::kConv3x3;

  bool operator==(const NodeSpec&) const = default;
};

/// Genotype of one cell: specs for interior nodes 2..B-1 in order.
struct CellGenotype {
  std::array<NodeSpec, kInteriorNodes> nodes;

  bool operator==(const CellGenotype&) const = default;
};

/// Complete DNN genotype: a normal cell and a reduction cell.
struct Genotype {
  CellGenotype normal;
  CellGenotype reduction;

  bool operator==(const Genotype&) const = default;
};

/// Returns true and clears `error` if the cell genotype is well-formed:
/// every input index j of node i satisfies 0 <= j < i and every op is one
/// of the kNumOps candidates.
bool validate_cell(const CellGenotype& cell, std::string* error = nullptr);

/// Validates both cells of a genotype.
bool validate_genotype(const Genotype& g, std::string* error = nullptr);

/// Uniformly samples a well-formed cell genotype (matches the HyperNet's
/// uniform path-sampling distribution: inputs uniform over predecessors,
/// ops uniform over the 6 candidates — Eq. 6).
CellGenotype random_cell(Rng& rng);

/// Uniformly samples a full genotype.
Genotype random_genotype(Rng& rng);

/// Interior node indices (2-based absolute) whose output feeds no other
/// interior node; these are concatenated to form the cell output.
std::vector<int> loose_end_nodes(const CellGenotype& cell);

/// Human-readable single-line description, e.g. for table printing.
std::string to_string(const CellGenotype& cell);
std::string to_string(const Genotype& g);

/// Total number of distinct cell genotypes (for search-space size reports).
/// Per cell: prod_{i=2..6} (i^2 * 36); full genotype squares it.
double cell_space_size();
double genotype_space_size();

}  // namespace yoso
