#pragma once
// The joint "2-dimensional" co-design space (paper §III.A): a candidate is
// lambda = (d_1..d_S, c_1..c_L) with S = 40 DNN hyper-parameters and L = 4
// accelerator parameters, 44 actions total.  This module concatenates the
// DNN action space (src/arch) and the hardware action space (src/accel)
// into one sequence for the RL controller.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "accel/config.h"
#include "arch/encoding.h"
#include "arch/genotype.h"
#include "base/fnv1a.h"
#include "util/rng.h"

namespace yoso {

/// A fully specified co-design candidate.
struct CandidateDesign {
  Genotype genotype;
  AcceleratorConfig config;

  bool operator==(const CandidateDesign&) const = default;
};

/// A candidate's identity as a fixed-size value: one byte per node field
/// (every input and op of a valid genotype is below 8), then each
/// AcceleratorConfig field at full int width.
using CandidateKey = std::array<std::uint8_t, 2 * kInteriorNodes * 4 + 5 * 4>;

/// The memo and finalist-dedupe key: candidate_key(a) == candidate_key(b)
/// exactly when a == b.  Throws ContractViolation on a node field outside
/// [0, 256).
CandidateKey candidate_key(const CandidateDesign& candidate);

/// The one hash every CandidateKey container uses.
struct CandidateKeyHash {
  std::size_t operator()(const CandidateKey& key) const noexcept {
    return fnv1a64(key);
  }
};

class DesignSpace {
 public:
  explicit DesignSpace(ConfigSpace config_space = default_config_space());

  const ConfigSpace& config_space() const { return config_space_; }

  /// Number of actions (44 for the paper's space).
  int num_actions() const;

  /// Per-step action cardinalities, DNN first then hardware.
  std::vector<int> cardinalities() const;

  /// Human-readable names of each action step.
  std::vector<std::string> action_names() const;

  /// Actions -> candidate; throws on malformed input.
  CandidateDesign decode(std::span<const int> actions) const;

  /// Candidate -> actions.
  std::vector<int> encode(const CandidateDesign& candidate) const;

  /// Uniform random candidate.
  CandidateDesign random_candidate(Rng& rng) const;

  /// log10 of the joint space size (the paper quotes ~10^15 including
  /// hardware choices).
  double log10_size() const;

 private:
  ConfigSpace config_space_;
  std::vector<ActionStep> dnn_steps_;
};

}  // namespace yoso
