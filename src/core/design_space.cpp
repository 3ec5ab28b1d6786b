#include "core/design_space.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "accel/config.h"
#include "arch/encoding.h"
#include "arch/genotype.h"
#include "arch/network.h"
#include "base/contract.h"
#include "util/rng.h"

namespace yoso {
namespace {

// Throws unless `choices` is empty or holds distinct values in [1, 255]:
// 0 is the candidate's "keep the base skeleton" value and must stay free.
void require_choices(const std::vector<int>& choices, const char* what) {
  for (auto it = choices.begin(); it != choices.end(); ++it) {
    YOSO_REQUIRE(*it >= 1 && *it <= 255, "DesignSpace: ", what, " choice ",
                 *it, " outside [1, 255]");
    YOSO_REQUIRE(std::find(choices.begin(), it, *it) == it,
                 "DesignSpace: duplicate ", what, " choice ", *it);
  }
}

// The action index of `value` in `choices`; throws when it is not offered.
int choice_index(const std::vector<int>& choices, int value,
                 const char* what) {
  const auto it = std::find(choices.begin(), choices.end(), value);
  YOSO_REQUIRE(it != choices.end(), "DesignSpace::encode: ", what, " ",
               value, " is not a choice of this space");
  return static_cast<int>(it - choices.begin());
}

// choices[index] as a candidate byte; throws on an index out of range.
std::uint8_t choice_at(const std::vector<int>& choices, int index,
                       const char* what) {
  YOSO_REQUIRE(index >= 0 && index < static_cast<int>(choices.size()),
               "DesignSpace::decode: ", what, " action ", index,
               " out of range");
  return static_cast<std::uint8_t>(choices[static_cast<std::size_t>(index)]);
}

}  // namespace

CandidateKey candidate_key(const CandidateDesign& candidate) {
  CandidateKey key{};
  std::size_t at = 0;
  const auto put8 = [&](int v) {
    YOSO_REQUIRE(v >= 0 && v < 256, "candidate_key: node field ", v,
                 " does not fit in one byte");
    key[at++] = static_cast<std::uint8_t>(v);
  };
  for (const CellGenotype* cell :
       {&candidate.genotype.normal, &candidate.genotype.reduction}) {
    for (const NodeSpec& n : cell->nodes) {
      put8(n.input_a);
      put8(n.input_b);
      put8(static_cast<int>(n.op_a));
      put8(static_cast<int>(n.op_b));
    }
  }
  const AcceleratorConfig& c = candidate.config;
  for (const int v : {c.pe_rows, c.pe_cols, c.g_buf_kb, c.r_buf_bytes,
                      static_cast<int>(c.dataflow)}) {
    std::memcpy(&key[at], &v, sizeof v);
    at += sizeof v;
  }
  put8(candidate.normal_cells);
  put8(candidate.stem_channels);
  return key;
}

NetworkSkeleton resolve_skeleton(const NetworkSkeleton& base,
                                 const CandidateDesign& candidate) {
  NetworkSkeleton s = base;
  if (candidate.normal_cells != 0) {
    const auto reductions = static_cast<std::size_t>(
        std::count(base.cells.begin(), base.cells.end(),
                   CellKind::kReduction));
    YOSO_REQUIRE(reductions > 0, "resolve_skeleton: normal_cells ",
                 int{candidate.normal_cells},
                 " needs a base skeleton with a reduction cell");
    s.cells.clear();
    s.cells.reserve(reductions * (candidate.normal_cells + 1u));
    for (std::size_t r = 0; r < reductions; ++r) {
      s.cells.insert(s.cells.end(), candidate.normal_cells,
                     CellKind::kNormal);
      s.cells.push_back(CellKind::kReduction);
    }
  }
  if (candidate.stem_channels != 0) s.stem_channels = candidate.stem_channels;
  return s;
}

DesignSpace::DesignSpace(ConfigSpace config_space,
                         std::vector<int> normal_cell_choices,
                         std::vector<int> stem_channel_choices)
    : config_space_(std::move(config_space)),
      dnn_steps_(dnn_action_steps()),
      normal_cell_choices_(std::move(normal_cell_choices)),
      stem_channel_choices_(std::move(stem_channel_choices)) {
  YOSO_REQUIRE(
      normal_cell_choices_.empty() == stem_channel_choices_.empty(),
      "DesignSpace: normal-cell and stem-width choices come as a pair (got ",
      normal_cell_choices_.size(), " and ", stem_channel_choices_.size(),
      " values)");
  require_choices(normal_cell_choices_, "normal-cell");
  require_choices(stem_channel_choices_, "stem-width");
}

int DesignSpace::num_actions() const {
  return kDnnActionCount + ConfigSpace::kActionCount +
         (searches_skeleton() ? 2 : 0);
}

std::vector<int> DesignSpace::cardinalities() const {
  std::vector<int> cards;
  cards.reserve(static_cast<std::size_t>(num_actions()));
  for (const ActionStep& s : dnn_steps_) cards.push_back(s.cardinality);
  for (int a = 0; a < ConfigSpace::kActionCount; ++a)
    cards.push_back(config_space_.cardinality(a));
  if (searches_skeleton()) {
    cards.push_back(static_cast<int>(normal_cell_choices_.size()));
    cards.push_back(static_cast<int>(stem_channel_choices_.size()));
  }
  return cards;
}

std::vector<std::string> DesignSpace::action_names() const {
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(num_actions()));
  for (const ActionStep& s : dnn_steps_) names.push_back(s.name);
  names.push_back("hw.pe_shape");
  names.push_back("hw.g_buf");
  names.push_back("hw.r_buf");
  names.push_back("hw.dataflow");
  if (searches_skeleton()) {
    names.push_back("skeleton.normal_cells");
    names.push_back("skeleton.stem_channels");
  }
  return names;
}

CandidateDesign DesignSpace::decode(std::span<const int> actions) const {
  if (actions.size() != static_cast<std::size_t>(num_actions()))
    throw std::invalid_argument("DesignSpace::decode: expected " +
                                std::to_string(num_actions()) + " actions");
  CandidateDesign c{
      .genotype = decode_genotype(actions.first(kDnnActionCount)),
      .config = config_space_.decode(
          actions.subspan(kDnnActionCount, ConfigSpace::kActionCount))};
  if (searches_skeleton()) {
    const std::size_t at = kDnnActionCount + ConfigSpace::kActionCount;
    c.normal_cells =
        choice_at(normal_cell_choices_, actions[at], "normal-cell");
    c.stem_channels =
        choice_at(stem_channel_choices_, actions[at + 1], "stem-width");
  }
  return c;
}

std::vector<int> DesignSpace::encode(const CandidateDesign& candidate) const {
  std::vector<int> actions = encode_genotype(candidate.genotype);
  for (int a : config_space_.encode(candidate.config)) actions.push_back(a);
  if (searches_skeleton()) {
    actions.push_back(choice_index(normal_cell_choices_,
                                   candidate.normal_cells, "normal_cells"));
    actions.push_back(choice_index(stem_channel_choices_,
                                   candidate.stem_channels, "stem_channels"));
  } else {
    YOSO_REQUIRE(candidate.normal_cells == 0 && candidate.stem_channels == 0,
                 "DesignSpace::encode: skeleton choice (",
                 int{candidate.normal_cells}, ", ",
                 int{candidate.stem_channels},
                 ") in a fixed-skeleton space");
  }
  return actions;
}

CandidateDesign DesignSpace::random_candidate(Rng& rng) const {
  CandidateDesign c;
  c.genotype = random_genotype(rng);
  std::array<int, ConfigSpace::kActionCount> hw{};
  for (int a = 0; a < ConfigSpace::kActionCount; ++a)
    hw[static_cast<std::size_t>(a)] =
        rng.uniform_int(0, config_space_.cardinality(a) - 1);
  c.config = config_space_.decode(hw);
  if (searches_skeleton()) {
    c.normal_cells = choice_at(
        normal_cell_choices_,
        rng.uniform_int(0, static_cast<int>(normal_cell_choices_.size()) - 1),
        "normal-cell");
    c.stem_channels = choice_at(
        stem_channel_choices_,
        rng.uniform_int(0, static_cast<int>(stem_channel_choices_.size()) - 1),
        "stem-width");
  }
  return c;
}

double DesignSpace::log10_size() const {
  double size = std::log10(genotype_space_size()) +
                std::log10(static_cast<double>(config_space_.size()));
  if (searches_skeleton())
    size += std::log10(static_cast<double>(normal_cell_choices_.size() *
                                           stem_channel_choices_.size()));
  return size;
}

}  // namespace yoso
