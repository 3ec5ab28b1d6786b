#pragma once
// The joint "2-dimensional" co-design space (paper §III.A): a candidate is
// lambda = (d_1..d_S, c_1..c_L) with S = 40 DNN hyper-parameters and L = 4
// accelerator parameters, 44 actions total.  This module concatenates the
// DNN action space (src/arch) and the hardware action space (src/accel)
// into one sequence for the RL controller.
//
// Table 1 of the paper also lists <N_Cells, R_cells> among the co-design
// variables, but its experiments fix the skeleton.  A space built with
// skeleton choices appends two actions (normal cells per stage, stem width),
// 46 in all, so the controller can also trade network depth and width
// against hardware cost; resolve_skeleton() turns a candidate's choices into
// the network it runs on.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "accel/config.h"
#include "arch/encoding.h"
#include "arch/genotype.h"
#include "arch/network.h"
#include "base/fnv1a.h"
#include "util/rng.h"

namespace yoso {

/// A fully specified co-design candidate.
struct CandidateDesign {
  Genotype genotype;
  AcceleratorConfig config;
  /// Skeleton choices: normal cells before each reduction cell, and stem
  /// filters.  0 keeps the evaluator's own skeleton (resolve_skeleton), so
  /// every candidate of a fixed-skeleton space carries 0 in both.
  std::uint8_t normal_cells = 0;
  std::uint8_t stem_channels = 0;

  bool operator==(const CandidateDesign&) const = default;
};

/// A candidate's identity as a fixed-size value: one byte per node field
/// (every input and op of a valid genotype is below 8), then each
/// AcceleratorConfig field at full int width, then the two skeleton choices.
using CandidateKey =
    std::array<std::uint8_t, 2 * kInteriorNodes * 4 + 5 * 4 + 2>;

/// The memo and finalist-dedupe key: candidate_key(a) == candidate_key(b)
/// exactly when a == b.  Throws ContractViolation on a node field outside
/// [0, 256).
CandidateKey candidate_key(const CandidateDesign& candidate);

/// The network `candidate` runs on: `base` with candidate.normal_cells
/// normal cells before each of base's reduction cells (N^d R N^d R for
/// default_skeleton()) and candidate.stem_channels stem filters.  A 0 keeps
/// base's own cells or stem, so a fixed-skeleton candidate resolves to
/// `base` unchanged.  Throws ContractViolation on a nonzero normal_cells
/// when base has no reduction cell.
NetworkSkeleton resolve_skeleton(const NetworkSkeleton& base,
                                 const CandidateDesign& candidate);

/// The one hash every CandidateKey container uses.
struct CandidateKeyHash {
  std::size_t operator()(const CandidateKey& key) const noexcept {
    return fnv1a64(key);
  }
};

class DesignSpace {
 public:
  /// Both choice lists empty (the default) is the paper's fixed-skeleton
  /// space; both non-empty add the two skeleton actions, whose values are
  /// the candidate's normal_cells and stem_channels.  Throws
  /// ContractViolation on one list without the other, a duplicate value, or
  /// a value outside [1, 255].
  explicit DesignSpace(ConfigSpace config_space = default_config_space(),
                       std::vector<int> normal_cell_choices = {},
                       std::vector<int> stem_channel_choices = {});

  const ConfigSpace& config_space() const { return config_space_; }
  const std::vector<int>& normal_cell_choices() const {
    return normal_cell_choices_;
  }
  const std::vector<int>& stem_channel_choices() const {
    return stem_channel_choices_;
  }

  /// Number of actions (44 for the paper's space, 46 with skeleton choices).
  int num_actions() const;

  /// Per-step action cardinalities: DNN, then hardware, then skeleton.
  std::vector<int> cardinalities() const;

  /// Human-readable names of each action step.
  std::vector<std::string> action_names() const;

  /// Actions -> candidate; throws on malformed input.
  CandidateDesign decode(std::span<const int> actions) const;

  /// Candidate -> actions; throws ContractViolation on a skeleton choice
  /// the space does not offer.
  std::vector<int> encode(const CandidateDesign& candidate) const;

  /// Uniform random candidate.
  CandidateDesign random_candidate(Rng& rng) const;

  /// log10 of the joint space size (the paper quotes ~10^15 including
  /// hardware choices).
  double log10_size() const;

 private:
  bool searches_skeleton() const { return !normal_cell_choices_.empty(); }

  ConfigSpace config_space_;
  std::vector<ActionStep> dnn_steps_;
  std::vector<int> normal_cell_choices_;
  std::vector<int> stem_channel_choices_;
};

}  // namespace yoso
