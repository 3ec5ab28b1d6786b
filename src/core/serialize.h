#pragma once
// Text serialisation for search artefacts.
//
// A co-search produces winners that users need to persist and diff:
// genotypes, accelerator configurations and whole candidates print in a
// compact, human-readable grammar:
//
//   cell     := node(';'node)*                 e.g. "0,1,conv3x3,maxpool3x3;..."
//   node     := input_a','input_b','op_a','op_b
//   genotype := "normal=" cell "|reduction=" cell
//   config   := rows'*'cols'/'gbufKB'/'rbufB'/'dataflow   (paper style)
//   candidate:= genotype "@" config
//
// Export only: the grammar is an output format (CSV exports, reports,
// yoso_serve results), so the library has no parsers for it.  The config
// form is AcceleratorConfig::to_string.

#include <string>

#include "arch/genotype.h"
#include "core/design_space.h"

namespace yoso {

/// Compact single-line cell serialisation.
std::string serialize_cell(const CellGenotype& cell);

/// Full genotype: "normal=<cell>|reduction=<cell>".
std::string serialize_genotype(const Genotype& g);

/// Whole candidate: "<genotype>@<config>".
std::string serialize_candidate(const CandidateDesign& candidate);

}  // namespace yoso
