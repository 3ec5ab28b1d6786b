#include "accel/simulator.h"

#include <algorithm>
#include <cmath>

#include "accel/config.h"
#include "accel/mapping.h"
#include "arch/genotype.h"
#include "arch/network.h"
#include "base/contract.h"
#include "obs/trace.h"

namespace yoso {

namespace {

/// Deterministic per-step jitter in [0, 1): models bank conflicts and
/// refill misalignment that the analytical model averages away.
double step_jitter(std::uint64_t layer_index, std::uint64_t step) {
  std::uint64_t x = (layer_index + 1) * 0x9E3779B97F4A7C15ull + step;
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Per-image DRAM bytes: the weight share is paid once per batch of `b`.
double dram_per_image(const LayerMapping& m, double b) {
  return (m.dram_bytes - m.dram_weight_bytes) + m.dram_weight_bytes / b;
}

}  // namespace

double SystolicSimulator::cycle_level_cycles(const Layer& layer,
                                             const LayerMapping& mapping,
                                             const AcceleratorConfig& config)
    const {
  const int hp = std::max(layer.out_h(), 1);
  const int n_co =
      (layer.out_c + mapping.tile.t_co - 1) / std::max(mapping.tile.t_co, 1);
  const int n_ci = layer.kind == LayerKind::kDwConv
                       ? n_co
                       : (layer.in_c + mapping.tile.t_ci - 1) /
                             std::max(mapping.tile.t_ci, 1);
  const int n_h = (hp + mapping.tile.t_h - 1) / std::max(mapping.tile.t_h, 1);
  // Walk at cycle-block granularity: one step is a kernel-row pass over one
  // output row for one array column group and one reduction-dimension fold.
  const int col_groups =
      (layer.out_c + config.pe_cols - 1) / config.pe_cols;
  const int reduction_dim = layer.kind == LayerKind::kDwConv
                                ? layer.kernel * layer.kernel
                                : layer.in_c * layer.kernel * layer.kernel;
  const int reduction_groups =
      (reduction_dim + config.pe_rows - 1) / config.pe_rows;
  const long long fine = static_cast<long long>(hp) *
                         std::max(layer.kernel, 1) * std::max(col_groups, 1) *
                         std::max(reduction_groups, 1);
  const long long steps = std::max(
      {1LL, static_cast<long long>(n_co) * n_ci * n_h, fine});

  const double compute_per_step =
      mapping.compute_cycles / static_cast<double>(steps);
  const double dram_per_step =
      mapping.dram_bytes / tech_.dram_bytes_per_cycle /
      static_cast<double>(steps);
  const double gbuf_per_step =
      mapping.gbuf_bytes / tech_.gbuf_bytes_per_cycle /
      static_cast<double>(steps);

  // Double-buffered pipeline: while tile i computes, tile i+1 prefetches.
  // Per-step time is the max of compute and the (jittered) memory legs;
  // the first fetch and the final drain are exposed.
  const auto layer_key =
      static_cast<std::uint64_t>(layer.in_c) * 1315423911ull +
      static_cast<std::uint64_t>(layer.out_c) * 2654435761ull +
      static_cast<std::uint64_t>(layer.kernel);
  double total = dram_per_step;  // first prefetch exposed
  for (long long s = 0; s < steps; ++s) {
    const double conflict =
        1.0 + 0.04 * step_jitter(layer_key, static_cast<std::uint64_t>(s));
    const double mem = std::max(dram_per_step, gbuf_per_step) * conflict;
    total += std::max(compute_per_step, mem);
  }
  total += gbuf_per_step;  // final drain
  total += config.pe_rows + config.pe_cols + 50.0;  // array fill + launch
  return total;
}

LayerSimResult SystolicSimulator::simulate_layer(
    const Layer& layer, const AcceleratorConfig& config, int batch) const {
  LayerSimResult lr;
  lr.mapping = map_layer(layer, config, tech_);
  // Mapping bounds: a tile that escapes the layer extents or collapses to
  // zero would make the traffic model read garbage reuse factors.
  const TileChoice& t = lr.mapping.tile;
  YOSO_CHECK(t.t_co >= 1 && t.t_ci >= 1 && t.t_h >= 1 &&
                 t.t_co <= std::max(layer.out_c, 1) &&
                 t.t_ci <= std::max(layer.in_c, 1) &&
                 t.t_h <= std::max(layer.out_h(), 1),
             "SystolicSimulator::simulate: tile (", t.t_co, ",", t.t_ci, ",",
             t.t_h, ") out of bounds for layer out_c=", layer.out_c,
             " in_c=", layer.in_c, " out_h=", layer.out_h());
  const double image_cycles =
      fidelity_ == SimFidelity::kCycleLevel
          ? cycle_level_cycles(layer, lr.mapping, config)
          : lr.mapping.total_cycles;
  // Per-image quantities: the weight share of DRAM traffic is paid once per
  // batch; activations and compute scale per image.  Weight refills overlap
  // compute for the later images, so per-image cycles shrink by the stall
  // share attributable to weights (approximated via the weight fraction of
  // traffic).
  const double b = static_cast<double>(batch);
  lr.cycles = image_cycles;
  if (batch > 1) {
    const double weight_cycles =
        lr.mapping.dram_weight_bytes / tech_.dram_bytes_per_cycle;
    // Remove the amortised part of weight-fetch time when the layer was
    // memory-bound on weights.
    const double saved = weight_cycles * (1.0 - 1.0 / b);
    lr.cycles = std::max(lr.mapping.compute_cycles, image_cycles - saved);
  }
  lr.energy_pj = dram_per_image(lr.mapping, b) * tech_.e_dram_pj_per_byte +
                 lr.mapping.gbuf_bytes *
                     tech_.gbuf_energy_per_byte(config.g_buf_kb) +
                 lr.mapping.rbuf_bytes * tech_.e_rbuf_pj_per_byte +
                 lr.mapping.macs * tech_.e_mac_pj;
  return lr;
}

SimulationResult SystolicSimulator::simulate(
    const std::vector<Layer>& layers, const AcceleratorConfig& config,
    int batch) const {
  YOSO_REQUIRE(batch >= 1, "SystolicSimulator::simulate: batch=", batch);
  YOSO_REQUIRE(config.pe_rows > 0 && config.pe_cols > 0,
               "SystolicSimulator::simulate: degenerate array ",
               config.pe_rows, "x", config.pe_cols);
  SimulationResult result;
  result.batch = batch;
  result.layers.reserve(layers.size());
  const double e_gbuf = tech_.gbuf_energy_per_byte(config.g_buf_kb);
  const double b = static_cast<double>(batch);

  double weighted_util = 0.0;
  double total_macs = 0.0;
  std::uint64_t reuses = 0;

  for (std::size_t i = 0; i < layers.size(); ++i) {
    // A layer equal to an earlier one in every field but its name takes a
    // copy of that layer's result (see simulator.h for why that is exact).
    std::size_t j = 0;
    while (j < i && !same_shape(layers[j], layers[i])) ++j;
    if (j < i) {
      result.layers.push_back(result.layers[j]);
      ++reuses;
    } else {
      result.layers.push_back(simulate_layer(layers[i], config, batch));
    }
    // Totals are summed in layer order, reused or not.
    const LayerSimResult& lr = result.layers.back();
    result.total_cycles += lr.cycles;
    result.dram_mj +=
        dram_per_image(lr.mapping, b) * tech_.e_dram_pj_per_byte * 1e-9;
    result.gbuf_mj += lr.mapping.gbuf_bytes * e_gbuf * 1e-9;
    result.rbuf_mj += lr.mapping.rbuf_bytes * tech_.e_rbuf_pj_per_byte * 1e-9;
    result.mac_mj += lr.mapping.macs * tech_.e_mac_pj * 1e-9;
    weighted_util += lr.mapping.utilization * lr.mapping.macs;
    total_macs += lr.mapping.macs;
  }
  obs::counter_add("sim.layer_reuses", reuses);

  result.latency_ms = result.total_cycles / (tech_.clock_ghz * 1e6);
  const double static_mw = tech_.p_static_per_pe_mw * config.num_pes() +
                           tech_.p_static_per_gbuf_kb_mw * config.g_buf_kb;
  result.static_mj = static_mw * result.latency_ms * 1e-3;  // mW*ms = uJ
  result.energy_mj = result.dram_mj + result.gbuf_mj + result.rbuf_mj +
                     result.mac_mj + result.static_mj;
  result.mean_utilization =
      total_macs > 0.0 ? weighted_util / total_macs : 0.0;
  result.throughput_fps =
      result.latency_ms > 0.0 ? 1000.0 / result.latency_ms : 0.0;
  return result;
}

SimulationResult SystolicSimulator::simulate_network(
    const Genotype& genotype, const NetworkSkeleton& skeleton,
    const AcceleratorConfig& config, int batch) const {
  // Runs on workers during sample collection / accurate rerank; the span
  // lands in the calling thread's own ring, so this is contention-free.
  YOSO_TRACE_SPAN("sim.network");
  obs::counter_add("sim.networks");
  return simulate(extract_layers(genotype, skeleton), config, batch);
}

}  // namespace yoso
