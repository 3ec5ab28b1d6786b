#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <string>
#include <string_view>
#include <vector>

#include "accel/config.h"
#include "accel/simulator.h"
#include "arch/genotype.h"
#include "arch/network.h"
#include "arch/zoo.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace yoso {
namespace {

AcceleratorConfig base_config() {
  return AcceleratorConfig{16, 32, 512, 512, Dataflow::kOutputStationary};
}

TEST(Simulator, EnergyBreakdownSumsToTotal) {
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  const auto& g = reference_model("Darts_v2").genotype;
  const auto r = sim.simulate_network(g, default_skeleton(), base_config());
  EXPECT_NEAR(r.energy_mj,
              r.dram_mj + r.gbuf_mj + r.rbuf_mj + r.mac_mj + r.static_mj,
              1e-9);
  EXPECT_GT(r.dram_mj, 0.0);
  EXPECT_GT(r.mac_mj, 0.0);
}

TEST(Simulator, ResultsInPaperDecade) {
  // Calibration guard: reference nets on a large config should land in the
  // paper's reported decade (a few mJ, around a millisecond).
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  for (const auto& m : reference_models()) {
    const auto r =
        sim.simulate_network(m.genotype, default_skeleton(), base_config());
    EXPECT_GT(r.energy_mj, 2.0) << m.name;
    EXPECT_LT(r.energy_mj, 40.0) << m.name;
    EXPECT_GT(r.latency_ms, 0.2) << m.name;
    EXPECT_LT(r.latency_ms, 8.0) << m.name;
  }
}

TEST(Simulator, BiggerNetworkCostsMore) {
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  const auto small = sim.simulate_network(
      reference_model("Darts_v1").genotype, default_skeleton(), base_config());
  const auto big = sim.simulate_network(
      reference_model("PnasNet").genotype, default_skeleton(), base_config());
  EXPECT_GT(big.energy_mj, small.energy_mj);
  EXPECT_GT(big.latency_ms, small.latency_ms);
}

TEST(Simulator, MorePesReduceLatency) {
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  const auto& g = reference_model("Darts_v2").genotype;
  AcceleratorConfig small = base_config();
  small.pe_rows = 8;
  small.pe_cols = 8;
  const auto rs = sim.simulate_network(g, default_skeleton(), small);
  const auto rb = sim.simulate_network(g, default_skeleton(), base_config());
  EXPECT_GT(rs.latency_ms, rb.latency_ms);
}

TEST(Simulator, OutputStationaryBeatsNoLocalReuse) {
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  const auto& g = reference_model("Darts_v2").genotype;
  AcceleratorConfig nlr = base_config();
  nlr.dataflow = Dataflow::kNoLocalReuse;
  const auto r_os = sim.simulate_network(g, default_skeleton(), base_config());
  const auto r_nlr = sim.simulate_network(g, default_skeleton(), nlr);
  EXPECT_LT(r_os.latency_ms, r_nlr.latency_ms);
  EXPECT_LT(r_os.energy_mj, r_nlr.energy_mj);
}

TEST(Simulator, CycleLevelRefinesAnalytical) {
  const auto& g = reference_model("EnasNet").genotype;
  SystolicSimulator fast({}, SimFidelity::kAnalytical);
  SystolicSimulator slow({}, SimFidelity::kCycleLevel);
  const auto ra = fast.simulate_network(g, default_skeleton(), base_config());
  const auto rc = slow.simulate_network(g, default_skeleton(), base_config());
  // Same energy model; cycle-level latency differs but stays within 2x.
  EXPECT_NEAR(rc.energy_mj, ra.energy_mj, ra.energy_mj * 0.25);
  EXPECT_GT(rc.latency_ms, ra.latency_ms * 0.5);
  EXPECT_LT(rc.latency_ms, ra.latency_ms * 2.0);
}

TEST(Simulator, DeterministicAcrossCalls) {
  SystolicSimulator sim({}, SimFidelity::kCycleLevel);
  const auto& g = reference_model("NasNet-A").genotype;
  const auto r1 = sim.simulate_network(g, default_skeleton(), base_config());
  const auto r2 = sim.simulate_network(g, default_skeleton(), base_config());
  EXPECT_DOUBLE_EQ(r1.energy_mj, r2.energy_mj);
  EXPECT_DOUBLE_EQ(r1.latency_ms, r2.latency_ms);
}

TEST(Simulator, PerLayerResultsPresent) {
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  const auto skeleton = default_skeleton();
  const auto layers =
      extract_layers(reference_model("Darts_v1").genotype, skeleton);
  const auto r = sim.simulate(layers, base_config());
  ASSERT_EQ(r.layers.size(), layers.size());
  double cycles = 0.0;
  for (const auto& lr : r.layers) {
    EXPECT_GT(lr.cycles, 0.0);
    EXPECT_GE(lr.energy_pj, 0.0);
    cycles += lr.cycles;
  }
  EXPECT_NEAR(cycles, r.total_cycles, 1e-6);
}

TEST(Simulator, MeanUtilizationBounded) {
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  const auto r = sim.simulate_network(reference_model("Darts_v2").genotype,
                                      default_skeleton(), base_config());
  EXPECT_GT(r.mean_utilization, 0.1);
  EXPECT_LE(r.mean_utilization, 1.0);
}

TEST(Simulator, StaticEnergyGrowsWithIdleHardware) {
  // Same network, larger array and buffer -> more static energy even if
  // latency shrinks only modestly.
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  const auto& g = reference_model("Darts_v1").genotype;
  AcceleratorConfig small{8, 8, 108, 64, Dataflow::kOutputStationary};
  AcceleratorConfig large{16, 32, 1024, 1024, Dataflow::kOutputStationary};
  const auto rs = sim.simulate_network(g, default_skeleton(), small);
  const auto rl = sim.simulate_network(g, default_skeleton(), large);
  EXPECT_GT(rl.static_mj / rl.latency_ms, rs.static_mj / rs.latency_ms);
}

TEST(Simulator, BatchOfRandomCandidatesIsFinite) {
  SystolicSimulator sim({}, SimFidelity::kCycleLevel);
  Rng rng(123);
  const auto skeleton = default_skeleton();
  for (int i = 0; i < 10; ++i) {
    const auto g = random_genotype(rng);
    const auto r = sim.simulate_network(g, skeleton, base_config());
    EXPECT_TRUE(std::isfinite(r.energy_mj));
    EXPECT_TRUE(std::isfinite(r.latency_ms));
    EXPECT_GT(r.energy_mj, 0.0);
    EXPECT_GT(r.latency_ms, 0.0);
  }
}

void expect_same_layer(const LayerSimResult& a, const LayerSimResult& b) {
  EXPECT_EQ(a.mapping.tile.t_co, b.mapping.tile.t_co);
  EXPECT_EQ(a.mapping.tile.t_ci, b.mapping.tile.t_ci);
  EXPECT_EQ(a.mapping.tile.t_h, b.mapping.tile.t_h);
  EXPECT_EQ(a.mapping.utilization, b.mapping.utilization);
  EXPECT_EQ(a.mapping.macs, b.mapping.macs);
  EXPECT_EQ(a.mapping.compute_cycles, b.mapping.compute_cycles);
  EXPECT_EQ(a.mapping.stall_cycles, b.mapping.stall_cycles);
  EXPECT_EQ(a.mapping.total_cycles, b.mapping.total_cycles);
  EXPECT_EQ(a.mapping.dram_bytes, b.mapping.dram_bytes);
  EXPECT_EQ(a.mapping.dram_weight_bytes, b.mapping.dram_weight_bytes);
  EXPECT_EQ(a.mapping.gbuf_bytes, b.mapping.gbuf_bytes);
  EXPECT_EQ(a.mapping.rbuf_bytes, b.mapping.rbuf_bytes);
  EXPECT_EQ(a.mapping.buffer_overflow, b.mapping.buffer_overflow);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.energy_pj, b.energy_pj);
}

std::uint64_t counter_value(std::string_view name) {
  for (const auto& c : obs::metrics_registry().snapshot().counters)
    if (c.name == name) return c.value;
  return 0;
}

// simulate() answers a layer equal to an earlier one in every field but
// the name with a copy of that layer's result.  Each layer's result must
// equal the layer simulated on its own, at both fidelities and batch 1 and
// 4, and sim.layer_reuses must count exactly the repeated layers.
TEST(Simulator, RepeatedShapesReuseExactly) {
  obs::set_enabled(true);
  obs::metrics_registry().reset();
  const ConfigSpace space = default_config_space();
  const NetworkSkeleton skeleton = default_skeleton();
  Rng rng(2024);
  for (const SimFidelity fidelity :
       {SimFidelity::kAnalytical, SimFidelity::kCycleLevel}) {
    const SystolicSimulator sim({}, fidelity);
    for (int pair = 0; pair < 4; ++pair) {
      const Genotype g = random_genotype(rng);
      std::vector<int> actions(ConfigSpace::kActionCount);
      for (int a = 0; a < ConfigSpace::kActionCount; ++a)
        actions[static_cast<std::size_t>(a)] =
            rng.uniform_int(0, space.cardinality(a) - 1);
      const AcceleratorConfig config = space.decode(actions);
      const std::vector<Layer> layers = extract_layers(g, skeleton);
      std::uint64_t repeated = 0;
      for (std::size_t i = 0; i < layers.size(); ++i)
        for (std::size_t j = 0; j < i; ++j)
          if (same_shape(layers[j], layers[i])) {
            ++repeated;
            break;
          }
      EXPECT_GT(repeated, 0u);
      for (const int batch : {1, 4}) {
        SCOPED_TRACE(config.to_string() + " batch " + std::to_string(batch));
        const std::uint64_t before = counter_value("sim.layer_reuses");
        const SimulationResult r = sim.simulate(layers, config, batch);
        EXPECT_EQ(counter_value("sim.layer_reuses") - before, repeated);
        ASSERT_EQ(r.layers.size(), layers.size());
        for (std::size_t i = 0; i < layers.size(); ++i) {
          SCOPED_TRACE(layers[i].name);
          expect_same_layer(r.layers[i],
                            sim.simulate({layers[i]}, config, batch).layers[0]);
        }
      }
    }
  }

  // Two layers that differ only in their name: one reuse.  Any other field
  // tells them apart.
  const SystolicSimulator sim({}, SimFidelity::kCycleLevel);
  Layer a;
  a.in_h = a.in_w = 16;
  a.in_c = 24;
  a.out_c = 48;
  a.kernel = 3;
  a.name = "a";
  Layer b = a;
  b.name = "b";
  std::uint64_t before = counter_value("sim.layer_reuses");
  const SimulationResult r = sim.simulate({a, b}, base_config());
  EXPECT_EQ(counter_value("sim.layer_reuses") - before, 1u);
  expect_same_layer(r.layers[0], r.layers[1]);
  b.stride = 2;
  before = counter_value("sim.layer_reuses");
  sim.simulate({a, b}, base_config());
  EXPECT_EQ(counter_value("sim.layer_reuses") - before, 0u);
  obs::set_enabled(false);
  obs::metrics_registry().reset();
}

class GbufSweep : public ::testing::TestWithParam<int> {};

TEST_P(GbufSweep, EnergyFiniteAcrossBufferSizes) {
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  AcceleratorConfig cfg = base_config();
  cfg.g_buf_kb = GetParam();
  const auto r = sim.simulate_network(reference_model("Darts_v2").genotype,
                                      default_skeleton(), cfg);
  EXPECT_TRUE(std::isfinite(r.energy_mj));
  EXPECT_GT(r.energy_mj, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GbufSweep,
                         ::testing::Values(108, 196, 256, 512, 1024));

}  // namespace
}  // namespace yoso
