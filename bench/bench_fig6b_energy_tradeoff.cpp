// Fig 6(b) — RL search toward the accuracy-energy trade-off region
// (stronger coefficient pair on the energy term; see core/reward.h for the
// coefficient-order note).  Thresholds: t_eer 9 mJ, t_lat 1.2 ms.

#include "tradeoff_bench.h"

int main() {
  yoso::TradeoffSpec spec;
  spec.figure = "Fig 6(b)";
  spec.metric_name = "energy (mJ)";
  spec.reward = yoso::energy_opt_reward();
  spec.metric = [](const yoso::EvalResult& r) { return r.energy_mj; };
  return yoso::run_tradeoff_bench(spec) ? 0 : 1;
}
