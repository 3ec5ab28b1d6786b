// Fig 6(a) — RL-based search vs random search on the composite score
// (alpha1 0.5, omega1 -0.4, alpha2 0.5, omega2 -0.4; thresholds 9 mJ /
// 1.2 ms).  The paper runs 10000 iterations and plots every 10th sample;
// the RL searcher gradually finds higher-reward solutions while random
// search stays flat.  Default here: 2000 iterations (YOSO_SCALE=5 for the
// paper's count).  Exits 1 when the shape check fails: RL's late-phase
// mean reward is not above random's, or its best reward is below random's.

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
  bench_banner("Fig 6(a)", "RL search vs random search, composite reward");

  DesignSpace space;
  const NetworkSkeleton skeleton = default_skeleton();
  SystolicSimulator simulator({}, SimFidelity::kCycleLevel);
  FastEvaluator fast(space, skeleton, simulator,
                     {.predictor_samples = scaled(600, 150), .seed = 11});

  SearchOptions opt;
  opt.iterations = scaled(2000, 300);
  opt.trace_every = std::max<std::size_t>(opt.iterations / 40, 1);
  opt.reward = balanced_reward();
  opt.seed = 2020;
  std::cout << "iterations: " << opt.iterations << " (paper: 10000), reward: "
            << opt.reward.to_string() << "\n\n";

  YosoSearch rl(space, opt);
  const SearchResult rl_result = rl.run(fast, nullptr);
  RandomSearchDriver random(space, opt);
  const SearchResult random_result = random.run(fast, nullptr);

  TextTable table({"iteration", "RL reward", "random reward", "RL best-so-far",
                   "random best-so-far"});
  double rl_best = 0.0, rnd_best = 0.0;
  for (std::size_t i = 0; i < rl_result.trace.size(); ++i) {
    rl_best = std::max(rl_best, rl_result.trace[i].reward);
    rnd_best = std::max(rnd_best, random_result.trace[i].reward);
    table.add_row({TextTable::fmt_int(
                       static_cast<long long>(rl_result.trace[i].iteration)),
                   TextTable::fmt(rl_result.trace[i].reward, 3),
                   TextTable::fmt(random_result.trace[i].reward, 3),
                   TextTable::fmt(rl_best, 3), TextTable::fmt(rnd_best, 3)});
  }
  table.print(std::cout);

  auto tail_mean = [](const SearchResult& r) {
    std::vector<double> tail;
    for (std::size_t i = r.trace.size() * 3 / 4; i < r.trace.size(); ++i)
      tail.push_back(r.trace[i].reward);
    return mean(tail);
  };
  const double rl_tail = tail_mean(rl_result);
  const double rnd_tail = tail_mean(random_result);
  const bool holds = rl_tail > rnd_tail && rl_result.best_fast_reward >=
                                               random_result.best_fast_reward;
  std::cout << "\nlate-phase mean reward: RL " << TextTable::fmt(rl_tail, 3)
            << " vs random " << TextTable::fmt(rnd_tail, 3) << "\n"
            << "best reward found:      RL "
            << TextTable::fmt(rl_result.best_fast_reward, 3) << " vs random "
            << TextTable::fmt(random_result.best_fast_reward, 3) << "\n"
            << "shape check: "
            << (holds ? "RL finds better results than random search, as in "
                        "Fig 6(a)"
                      : "MISMATCH vs the paper's Fig 6(a)")
            << "\n";
  bench_footer(sw);
  return holds ? 0 : 1;
}
