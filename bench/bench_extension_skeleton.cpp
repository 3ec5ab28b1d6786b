// Extension — searching the skeleton too.
//
// Table 1 lists <N_Cells, R_cells> among the co-design variables; the
// paper's experiments fix the skeleton to 6 blocks and a fixed stem width.
// This bench compares the fixed-skeleton 44-action search against the
// 46-action search (network depth and stem width become actions) under a
// *tight* energy budget, where shrinking the skeleton is the only way to
// stay feasible without giving up the whole accuracy budget.
//
// Both rows run the same search stack; only the space differs.  Exits 1
// when the shape check fails: the searched row is infeasible, or its
// accurate reward is more than 0.02 below the fixed row's.

#include <cstdint>
#include <iostream>
#include <string>

#include "accel/config.h"
#include "accel/simulator.h"
#include "arch/network.h"
#include "bench_common.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"
#include "core/search.h"

int main() {
  using namespace yoso;
  Stopwatch sw;
  bench_banner("Extension", "fixed skeleton (44 actions) vs searched "
                            "skeleton (46 actions)");

  RewardParams reward = energy_opt_reward();
  reward.t_eer_mj = 4.0;  // tight: the fixed 6-cell skeleton barely fits
  std::cout << "tight energy budget: " << reward.t_eer_mj << " mJ (paper "
            << "default is 9 mJ)\n\n";

  SystolicSimulator simulator({}, SimFidelity::kCycleLevel);
  SearchOptions opt;
  opt.iterations = scaled(1500, 250);
  opt.reward = reward;
  opt.seed = 44;
  const NetworkSkeleton skeleton = default_skeleton();

  TextTable table({"space", "err %", "E (mJ)", "L (ms)", "cells", "stem",
                   "feasible", "config"});
  const auto run_row = [&](const std::string& name, const DesignSpace& space,
                           std::uint64_t seed) {
    FastEvaluator fast(space, skeleton, simulator,
                       {.predictor_samples = scaled(500, 150), .seed = seed});
    AccurateEvaluator accurate(skeleton);
    const RankedCandidate b =
        YosoSearch(space, opt).run(fast, &accurate).best.value();
    const NetworkSkeleton s = resolve_skeleton(skeleton, b.candidate);
    table.add_row(
        {name,
         TextTable::fmt((1.0 - b.accurate_result.accuracy) * 100.0, 2),
         TextTable::fmt(b.accurate_result.energy_mj, 2),
         TextTable::fmt(b.accurate_result.latency_ms, 2),
         TextTable::fmt_int(static_cast<long long>(s.cells.size())),
         TextTable::fmt_int(s.stem_channels), b.feasible ? "yes" : "no",
         b.candidate.config.to_string()});
    return b;
  };
  const RankedCandidate fixed = run_row("fixed skeleton", DesignSpace(), 1);
  const RankedCandidate searched = run_row(
      "searched skeleton",
      DesignSpace(default_config_space(), {1, 2, 3}, {16, 24, 32}), 2);
  table.print(std::cout);

  const bool holds = searched.feasible &&
                     searched.accurate_reward >= fixed.accurate_reward - 0.02;
  std::cout << "\naccurate composite reward: fixed "
            << TextTable::fmt(fixed.accurate_reward, 3) << " vs searched "
            << TextTable::fmt(searched.accurate_reward, 3) << "\n"
            << "shape check: "
            << (holds ? "widening the space to Table 1's skeleton variables "
                        "does not hurt, and under tight budgets helps"
                      : "FAILED: the searched skeleton is infeasible or "
                        "more than 0.02 below the fixed one")
            << "\n";
  bench_footer(sw);
  return holds ? 0 : 1;
}
