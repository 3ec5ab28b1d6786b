// Fig 6(c) — RL search toward the accuracy-latency trade-off region
// (stronger coefficient pair on the latency term).  Thresholds: t_eer 9 mJ,
// t_lat 1.2 ms.

#include "tradeoff_bench.h"

int main() {
  yoso::TradeoffSpec spec;
  spec.figure = "Fig 6(c)";
  spec.metric_name = "latency (ms)";
  spec.reward = yoso::latency_opt_reward();
  spec.metric = [](const yoso::EvalResult& r) { return r.latency_ms; };
  return yoso::run_tradeoff_bench(spec) ? 0 : 1;
}
