#pragma once
// Network-level systolic-array simulator (the role nn_dataflow plays in the
// paper): maps every layer of a concrete network onto a configuration and
// accumulates latency and energy.
//
// Two fidelities are provided:
//  * kAnalytical  — closed-form per-layer model (used inside fast sweeps);
//  * kCycleLevel  — walks every tile iteration of every layer with a
//    double-buffered prefetch pipeline and a bank-conflict model.  This is
//    the slow "accurate simulation" the paper replaces with the GP predictor
//    during search and falls back to for the top-N finalists.

#include <vector>

#include "accel/config.h"
#include "accel/mapping.h"
#include "accel/tech.h"
#include "arch/genotype.h"
#include "arch/network.h"

namespace yoso {

enum class SimFidelity { kAnalytical, kCycleLevel };

/// Per-layer simulation outcome.
struct LayerSimResult {
  LayerMapping mapping;
  double cycles = 0.0;     ///< cycle-level refined cycles (== mapping total
                           ///< cycles under kAnalytical)
  double energy_pj = 0.0;  ///< dynamic energy of this layer
};

/// Whole-network simulation outcome.  With batch > 1, energy_mj and
/// latency_ms are per-image (weights amortise across the batch).
struct SimulationResult {
  int batch = 1;
  double throughput_fps = 0.0;  ///< images per second at this batch
  double latency_ms = 0.0;
  double energy_mj = 0.0;  ///< dynamic + static
  // Energy breakdown (mJ).
  double dram_mj = 0.0;
  double gbuf_mj = 0.0;
  double rbuf_mj = 0.0;
  double mac_mj = 0.0;
  double static_mj = 0.0;
  double total_cycles = 0.0;
  double mean_utilization = 0.0;  ///< MAC-weighted PE utilisation
  std::vector<LayerSimResult> layers;
};

class SystolicSimulator {
 public:
  explicit SystolicSimulator(TechnologyParams tech = {},
                             SimFidelity fidelity = SimFidelity::kCycleLevel)
      : tech_(tech), fidelity_(fidelity) {}

  const TechnologyParams& tech() const { return tech_; }
  SimFidelity fidelity() const { return fidelity_; }

  /// Simulates a concrete layer list on a configuration.  `batch` > 1
  /// models throughput-mode inference: weight DRAM traffic is paid once per
  /// batch while activations scale per image; results are per-image.
  ///
  /// Repeated layers are simulated once per call: a layer that equals an
  /// earlier layer of `layers` in every field but `name` (same_shape())
  /// takes a copy of that layer's LayerSimResult instead of re-running the
  /// mapping search and the cycle walk.  This is exact: a layer's result
  /// depends only on those fields, the config, the batch, the technology
  /// and the fidelity.  The cycle walk's jitter is keyed by (in_c, out_c,
  /// kernel) and the step index, never by the layer's position.
  /// result.layers still holds one entry per layer, the totals are still
  /// summed in layer order, and the lookup allocates nothing.  The
  /// `sim.layer_reuses` counter counts the layers answered this way.
  SimulationResult simulate(const std::vector<Layer>& layers,
                            const AcceleratorConfig& config,
                            int batch = 1) const;

  /// Convenience: extract layers from a genotype and simulate.
  SimulationResult simulate_network(const Genotype& genotype,
                                    const NetworkSkeleton& skeleton,
                                    const AcceleratorConfig& config,
                                    int batch = 1) const;

 private:
  /// One layer's mapping, cycles and dynamic energy at `batch`.
  LayerSimResult simulate_layer(const Layer& layer,
                                const AcceleratorConfig& config,
                                int batch) const;
  /// Tile-by-tile pipeline walk used by kCycleLevel.
  double cycle_level_cycles(const Layer& layer, const LayerMapping& mapping,
                            const AcceleratorConfig& config) const;

  TechnologyParams tech_;
  SimFidelity fidelity_;
};

}  // namespace yoso
