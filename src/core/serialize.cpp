#include "core/serialize.h"

#include <sstream>

#include "accel/config.h"
#include "arch/genotype.h"
#include "core/design_space.h"

namespace yoso {

std::string serialize_cell(const CellGenotype& cell) {
  std::ostringstream ss;
  for (std::size_t n = 0; n < cell.nodes.size(); ++n) {
    const NodeSpec& s = cell.nodes[n];
    if (n > 0) ss << ";";
    ss << s.input_a << "," << s.input_b << "," << op_name(s.op_a) << ","
       << op_name(s.op_b);
  }
  return ss.str();
}

std::string serialize_genotype(const Genotype& g) {
  return "normal=" + serialize_cell(g.normal) +
         "|reduction=" + serialize_cell(g.reduction);
}

std::string serialize_candidate(const CandidateDesign& candidate) {
  return serialize_genotype(candidate.genotype) + "@" +
         candidate.config.to_string();
}

}  // namespace yoso
