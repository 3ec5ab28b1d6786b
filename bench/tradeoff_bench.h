#pragma once
// Shared driver for Fig 6(b)/(c): run the RL co-search under a
// latency/energy-weighted reward, print the (accuracy, perf) trajectory
// every k-th iteration, and check that the population drifts toward the
// Pareto region.  The paper uses 12000 iterations and plots every 20th.
// Both benches exit 1 when the drift check fails.

#include <functional>
#include <iostream>

#include "accel/simulator.h"
#include "arch/network.h"
#include "bench_common.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"
#include "core/search.h"
#include "util/stats.h"

namespace yoso {

struct TradeoffSpec {
  std::string figure;          // "Fig 6(b)"
  std::string metric_name;     // "energy (mJ)"
  RewardParams reward;
  /// Extracts the traded-off metric from an evaluation.
  std::function<double(const EvalResult&)> metric;
};

/// Returns the shape check's verdict: the late-phase mean reward is above
/// the early-phase one.
inline bool run_tradeoff_bench(const TradeoffSpec& spec) {
  Stopwatch sw;
  bench_banner(spec.figure,
               "search trajectory toward the accuracy-" + spec.metric_name +
                   " trade-off region");

  DesignSpace space;
  const NetworkSkeleton skeleton = default_skeleton();
  SystolicSimulator simulator({}, SimFidelity::kCycleLevel);
  FastEvaluator fast(space, skeleton, simulator,
                     {.predictor_samples = scaled(600, 150), .seed = 23});

  SearchOptions opt;
  opt.iterations = scaled(2400, 300);
  opt.trace_every = std::max<std::size_t>(opt.iterations / 30, 1);
  opt.reward = spec.reward;
  opt.seed = 77;
  std::cout << "iterations: " << opt.iterations
            << " (paper: 12000, every 20th plotted), reward: "
            << opt.reward.to_string() << "\n\n";

  YosoSearch search(space, opt);
  AccurateEvaluator accurate(skeleton);
  const SearchResult result = search.run(fast, &accurate);

  TextTable table({"iteration", "reward", "accuracy", spec.metric_name});
  for (const auto& point : result.trace)
    table.add_row({TextTable::fmt_int(static_cast<long long>(point.iteration)),
                   TextTable::fmt(point.reward, 3),
                   TextTable::fmt(point.result.accuracy, 4),
                   TextTable::fmt(spec.metric(point.result), 3)});
  table.print(std::cout);

  // Drift check: late-phase samples must score better on the combined
  // objective and consume less of the traded metric than early samples.
  std::vector<double> early_m, late_m, early_r, late_r;
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    const auto& p = result.trace[i];
    if (i < result.trace.size() / 4) {
      early_m.push_back(spec.metric(p.result));
      early_r.push_back(p.reward);
    } else if (i >= result.trace.size() * 3 / 4) {
      late_m.push_back(spec.metric(p.result));
      late_r.push_back(p.reward);
    }
  }
  std::cout << "\nearly-phase mean " << spec.metric_name << ": "
            << TextTable::fmt(mean(early_m), 3) << ", late-phase: "
            << TextTable::fmt(mean(late_m), 3) << "\n"
            << "early-phase mean reward: " << TextTable::fmt(mean(early_r), 3)
            << ", late-phase: " << TextTable::fmt(mean(late_r), 3) << "\n";
  if (result.best) {
    const auto& b = *result.best;
    std::cout << "final solution: error "
              << TextTable::fmt((1.0 - b.accurate_result.accuracy) * 100.0, 2)
              << " %, energy " << TextTable::fmt(b.accurate_result.energy_mj, 2)
              << " mJ, latency "
              << TextTable::fmt(b.accurate_result.latency_ms, 2) << " ms, "
              << b.candidate.config.to_string()
              << (b.feasible ? " (feasible)" : " (INFEASIBLE)") << "\n";
  }
  const bool drifts = mean(late_r) > mean(early_r);
  std::cout << "shape check: "
            << (drifts ? "search drifts toward the higher combined-score "
                         "region, as in the paper"
                       : "MISMATCH: no drift toward the Pareto region")
            << "\n";
  bench_footer(sw);
  return drifts;
}

}  // namespace yoso
