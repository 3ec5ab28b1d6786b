// Tour of the hardware performance predictor: sample the simulator, fit
// the GP pair, inspect prediction quality and uncertainty, and use the
// predictor to sweep one design axis cheaply (the kind of what-if a
// hardware architect asks during design-space exploration).

#include <cmath>
#include <iostream>

#include "accel/config.h"
#include "accel/simulator.h"
#include "arch/genotype.h"
#include "arch/network.h"
#include "predictor/perf_predictor.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace yoso;

  const NetworkSkeleton skeleton = default_skeleton();
  const ConfigSpace space = default_config_space();
  SystolicSimulator simulator({}, SimFidelity::kCycleLevel);

  // Collect and split samples.
  Rng rng(11);
  std::cout << "simulating 500 random co-designs...\n";
  const auto samples = collect_samples(500, simulator, space, skeleton, rng);
  const std::vector<PerfSample> train(samples.begin(), samples.begin() + 400);
  const std::vector<PerfSample> test(samples.begin() + 400, samples.end());

  PerformancePredictor predictor(skeleton);
  predictor.fit(train);

  // Held-out accuracy.
  std::vector<double> pe, te, pl, tl;
  for (const auto& s : test) {
    pe.push_back(predictor.predict_energy_mj(s.genotype, s.config));
    te.push_back(s.energy_mj);
    pl.push_back(predictor.predict_latency_ms(s.genotype, s.config));
    tl.push_back(s.latency_ms);
  }
  std::cout << "held-out quality: energy rel-err "
            << TextTable::fmt(mean_relative_error(pe, te) * 100.0, 1)
            << " % (r=" << TextTable::fmt(pearson(pe, te), 3)
            << "), latency rel-err "
            << TextTable::fmt(mean_relative_error(pl, tl) * 100.0, 1)
            << " % (r=" << TextTable::fmt(pearson(pl, tl), 3) << ")\n\n";

  // What-if sweep: same network, grow the PE array.
  const Genotype g = random_genotype(rng);
  TextTable sweep({"PE array", "predicted L (ms)", "simulated L (ms)",
                   "predicted E (mJ)", "simulated E (mJ)"});
  for (const auto& [rows, cols] : space.pe_shapes) {
    AcceleratorConfig cfg{rows, cols, 512, 256,
                          Dataflow::kOutputStationary};
    const auto sim = simulator.simulate_network(g, skeleton, cfg);
    sweep.add_row({std::to_string(rows) + "x" + std::to_string(cols),
                   TextTable::fmt(predictor.predict_latency_ms(g, cfg), 2),
                   TextTable::fmt(sim.latency_ms, 2),
                   TextTable::fmt(predictor.predict_energy_mj(g, cfg), 2),
                   TextTable::fmt(sim.energy_mj, 2)});
  }
  std::cout << "what-if: growing the PE array for one fixed network\n";
  sweep.print(std::cout);

  // Uncertainty: the GP knows what it has not seen.
  const auto f_seen =
      codesign_features(train[0].genotype, train[0].config, skeleton);
  AcceleratorConfig rare{8, 8, 1024, 1024, Dataflow::kNoLocalReuse};
  const auto f_rare = codesign_features(g, rare, skeleton);
  const auto [mu_seen, var_seen] = predictor.model().predict_with_variance(
      f_seen, PerformancePredictor::kEnergy);
  const auto [mu_rare, var_rare] = predictor.model().predict_with_variance(
      f_rare, PerformancePredictor::kEnergy);
  std::cout << "\nGP predictive stddev (log-energy): at a training point "
            << TextTable::fmt(std::sqrt(var_seen), 3)
            << ", at an unusual corner " << TextTable::fmt(std::sqrt(var_rare), 3)
            << " -> the model flags extrapolation\n";
  (void)mu_seen;
  (void)mu_rare;
  return 0;
}
