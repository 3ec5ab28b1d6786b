// Ablation — the moving-average baseline in REINFORCE (paper Eq. 4: "It is
// very effective to insert the average baseline mechanism that reduces the
// variance of gradient estimation ... which can significantly expedite the
// search").  We run the identical co-search with the baseline enabled and
// disabled across several seeds and compare late-phase reward.  Exits 1
// when the mean late-phase reward with the baseline is below the one
// without it.

#include <iostream>

#include "accel/simulator.h"
#include "arch/network.h"
#include "bench_common.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/search.h"
#include "util/stats.h"

int main() {
  using namespace yoso;
  Stopwatch sw;
  bench_banner("Ablation", "REINFORCE moving-average baseline on/off");

  DesignSpace space;
  const NetworkSkeleton skeleton = default_skeleton();
  SystolicSimulator simulator({}, SimFidelity::kCycleLevel);
  FastEvaluator fast(space, skeleton, simulator,
                     {.predictor_samples = scaled(500, 150), .seed = 17});

  const std::size_t iterations = scaled(1200, 200);
  const std::vector<std::uint64_t> seeds = {11, 22, 33};
  std::cout << "iterations per run: " << iterations << ", seeds: "
            << seeds.size() << "\n\n";

  TextTable table({"baseline", "seed", "late-phase mean reward",
                   "best reward"});
  std::vector<double> with_tail, without_tail;
  for (const bool use_baseline : {true, false}) {
    for (const std::uint64_t seed : seeds) {
      SearchOptions opt;
      opt.iterations = iterations;
      opt.trace_every = std::max<std::size_t>(iterations / 40, 1);
      opt.reward = balanced_reward();
      opt.seed = seed;
      opt.reinforce.use_baseline = use_baseline;
      YosoSearch search(space, opt);
      const SearchResult result = search.run(fast, nullptr);
      std::vector<double> tail;
      for (std::size_t i = result.trace.size() * 3 / 4;
           i < result.trace.size(); ++i)
        tail.push_back(result.trace[i].reward);
      const double tail_mean = mean(tail);
      (use_baseline ? with_tail : without_tail).push_back(tail_mean);
      table.add_row({use_baseline ? "on (paper)" : "off",
                     TextTable::fmt_int(static_cast<long long>(seed)),
                     TextTable::fmt(tail_mean, 3),
                     TextTable::fmt(result.best_fast_reward, 3)});
    }
  }
  table.print(std::cout);
  const bool holds = mean(with_tail) >= mean(without_tail);
  std::cout << "\nmean late-phase reward: baseline on "
            << TextTable::fmt(mean(with_tail), 3) << " vs off "
            << TextTable::fmt(mean(without_tail), 3) << "\n"
            << "shape check: "
            << (holds ? "the baseline expedites the search, as the paper "
                        "states"
                      : "MISMATCH: the baseline does not help at this scale")
            << "\n";
  bench_footer(sw);
  return holds ? 0 : 1;
}
