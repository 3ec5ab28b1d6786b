#pragma once
// Accelerator configuration space (paper Table 1).
//
// The hardware template is a systolic array with a two-level on-chip memory
// hierarchy (global buffer + per-PE register buffer) and a configurable
// dataflow.  The four searched hardware parameters (the paper's L = 4
// actions) are:
//   * PE array size       — 8x8 .. 16x32
//   * global buffer size  — 108 .. 1024 KB
//   * register buffer     — 64 .. 1024 B per PE
//   * dataflow            — WS, OS, RS, NLR

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace yoso {

/// Dataflows supported by the systolic-array template (Table 1).
enum class Dataflow : int {
  kWeightStationary = 0,   ///< WS: weights pinned in PEs
  kOutputStationary = 1,   ///< OS: partial sums pinned in PEs
  kRowStationary = 2,      ///< RS: Eyeriss-style row pairs pinned
  kNoLocalReuse = 3,       ///< NLR: no PE-local reuse, gbuf only
};

inline constexpr int kNumDataflows = 4;

std::string dataflow_name(Dataflow df);

/// One point in the accelerator configuration space.
struct AcceleratorConfig {
  int pe_rows = 16;
  int pe_cols = 16;
  int g_buf_kb = 512;     ///< global buffer, kilobytes
  int r_buf_bytes = 256;  ///< per-PE register buffer, bytes
  Dataflow dataflow = Dataflow::kWeightStationary;

  int num_pes() const { return pe_rows * pe_cols; }

  bool operator==(const AcceleratorConfig&) const = default;

  /// Paper-style string: "16*32/512KB/512B/OS".
  std::string to_string() const;
};

/// The discrete option lists for each hardware action.
struct ConfigSpace {
  /// (rows, cols) pairs covering the paper's 8x8..16x32 range.
  std::vector<std::pair<int, int>> pe_shapes;
  std::vector<int> g_buf_kb_options;
  std::vector<int> r_buf_byte_options;
  // dataflows are always the 4 enum values

  /// Number of hardware actions (the paper's L).
  static constexpr int kActionCount = 4;

  /// Cardinality of hardware action `i` (0: PE shape, 1: gbuf, 2: rbuf,
  /// 3: dataflow).
  int cardinality(int action) const;

  /// Total configuration count (product of cardinalities).
  std::size_t size() const;

  /// Action indices -> config.  Throws on out-of-range actions.
  AcceleratorConfig decode(std::span<const int> actions) const;

  /// Config -> action indices.  Throws if the config is not in the space.
  std::vector<int> encode(const AcceleratorConfig& config) const;

  /// Enumerates every configuration (for the two-stage exhaustive search).
  std::vector<AcceleratorConfig> enumerate() const;
};

/// The paper's configuration space (Table 1 ranges, including every PE
/// shape / buffer size that appears in Table 2).
ConfigSpace default_config_space();

}  // namespace yoso
