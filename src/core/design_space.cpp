#include "core/design_space.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "accel/config.h"
#include "arch/encoding.h"
#include "arch/genotype.h"
#include "base/contract.h"
#include "util/rng.h"

namespace yoso {

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
  return key;
}

DesignSpace::DesignSpace(ConfigSpace config_space)
    : config_space_(std::move(config_space)), dnn_steps_(dnn_action_steps()) {}

int DesignSpace::num_actions() const {
  return kDnnActionCount + ConfigSpace::kActionCount;
}

std::vector<int> DesignSpace::cardinalities() const {
  std::vector<int> cards;
  cards.reserve(static_cast<std::size_t>(num_actions()));
  for (const ActionStep& s : dnn_steps_) cards.push_back(s.cardinality);
  for (int a = 0; a < ConfigSpace::kActionCount; ++a)
    cards.push_back(config_space_.cardinality(a));
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
  return names;
}

CandidateDesign DesignSpace::decode(std::span<const int> actions) const {
  if (actions.size() != static_cast<std::size_t>(num_actions()))
    throw std::invalid_argument("DesignSpace::decode: expected " +
                                std::to_string(num_actions()) + " actions");
  return {decode_genotype(actions.first(kDnnActionCount)),
          config_space_.decode(actions.subspan(kDnnActionCount))};
}

std::vector<int> DesignSpace::encode(const CandidateDesign& candidate) const {
  std::vector<int> actions = encode_genotype(candidate.genotype);
  for (int a : config_space_.encode(candidate.config)) actions.push_back(a);
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
  return c;
}

double DesignSpace::log10_size() const {
  return std::log10(genotype_space_size()) +
         std::log10(static_cast<double>(config_space_.size()));
}

}  // namespace yoso
