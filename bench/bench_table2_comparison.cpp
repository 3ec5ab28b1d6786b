// Table 2 + Fig 7 — single-stage YOSO vs the two-stage method.
//
// Two-stage: each reference network (NasNet-A, DARTS v1/v2, AmoebaNet-A,
// EnasNet, PnasNet) is fixed and every accelerator configuration is
// enumerated to find its best config under the composite score.
// Single-stage: YOSO searches the joint space twice — once latency-weighted
// (yoso_lat) and once energy-weighted (yoso_eer) — then fully evaluates the
// top-10 candidates and keeps the best feasible one.
//
// Fig 7 normalises every row's energy/latency to the best; the paper's
// headline is 1.42x-2.29x energy or 1.79x-3.07x latency reduction at the
// same level of precision.  Exits 1 when the shape check fails: some
// two-stage row beats YOSO on its optimised metric.  The headline bands
// are a report.

#include <iostream>
#include <map>

#include "accel/simulator.h"
#include "arch/network.h"
#include "bench_common.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"
#include "core/search.h"
#include "core/two_stage.h"

namespace {

using namespace yoso;

struct Row {
  std::string name;
  std::string search_time;
  double paper_error, error, energy, latency;
  std::string config;
};

Row yoso_row(const std::string& name, const RewardParams& reward,
             DesignSpace& space, FastEvaluator& fast,
             AccurateEvaluator& accurate, std::uint64_t seed) {
  Stopwatch sw;
  SearchOptions opt;
  opt.iterations = scaled(3000, 400);
  opt.top_n = 10;  // paper: top-10 rerank with full training + simulation
  opt.reward = reward;
  opt.seed = seed;
  YosoSearch search(space, opt);
  const SearchResult result = search.run(fast, &accurate);
  const RankedCandidate& best = result.best.value();
  Row row;
  row.name = name;
  row.search_time = TextTable::fmt(sw.elapsed_seconds(), 0) + " s*";
  row.paper_error = name == "Yoso_lat" ? 3.18 : 3.05;
  row.error = (1.0 - best.accurate_result.accuracy) * 100.0;
  row.energy = best.accurate_result.energy_mj;
  row.latency = best.accurate_result.latency_ms;
  row.config = best.candidate.config.to_string();
  return row;
}

}  // namespace

int main() {
  Stopwatch sw;
  bench_banner("Table 2 / Fig 7", "single-stage YOSO vs the two-stage method");

  DesignSpace space;
  const NetworkSkeleton skeleton = default_skeleton();
  SystolicSimulator simulator({}, SimFidelity::kCycleLevel);
  std::cout << "building the fast evaluator (Step 1)...\n";
  FastEvaluator fast(space, skeleton, simulator,
                     {.predictor_samples = scaled(700, 200), .seed = 3});
  AccurateEvaluator accurate(skeleton);

  // Paper energy/latency per Table 2 row, for side-by-side reporting.
  struct PaperPerf {
    double energy, latency;
  };
  const std::map<std::string, PaperPerf> paper_perf = {
      {"NasNet-A", {15.24, 2.11}},   {"Darts_v1", {10.63, 1.38}},
      {"Darts_v2", {11.01, 1.62}},   {"AmoebaNet-A", {13.67, 1.76}},
      {"EnasNet", {16.65, 2.25}},    {"PnasNet", {17.17, 2.37}},
      {"Yoso_lat", {8.16, 0.77}},    {"Yoso_eer", {7.50, 0.97}}};

  std::cout << "running the two-stage baseline (exhaustive config search per "
               "network, "
            << space.config_space().size() << " configs each)...\n";
  std::vector<Row> rows;
  const auto two_stage = two_stage_baseline(space, accurate,
                                            balanced_reward());
  for (const auto& ts : two_stage) {
    Row row;
    row.name = ts.name;
    row.search_time =
        TextTable::fmt(ts.paper_search_gpu_days, 2) + " GPU-days (paper)";
    row.paper_error = ts.paper_test_error;
    row.error = (1.0 - ts.result.accuracy) * 100.0;
    row.energy = ts.result.energy_mj;
    row.latency = ts.result.latency_ms;
    row.config = ts.design.config.to_string();
    rows.push_back(row);
  }

  std::cout << "running single-stage YOSO searches (Step 2 + Step 3 "
               "top-10 rerank)...\n\n";
  rows.push_back(yoso_row("Yoso_lat", latency_opt_reward(), space, fast,
                          accurate, 101));
  rows.push_back(yoso_row("Yoso_eer", energy_opt_reward(), space, fast,
                          accurate, 202));

  TextTable table({"Model", "Search time", "Err% (paper)", "Err% (ours)",
                   "E mJ (paper)", "E mJ (ours)", "L ms (paper)",
                   "L ms (ours)", "Config (ours)"});
  for (const auto& row : rows) {
    const auto& pp = paper_perf.at(row.name);
    table.add_row({row.name, row.search_time,
                   TextTable::fmt(row.paper_error, 2),
                   TextTable::fmt(row.error, 2), TextTable::fmt(pp.energy, 2),
                   TextTable::fmt(row.energy, 2),
                   TextTable::fmt(pp.latency, 2),
                   TextTable::fmt(row.latency, 2), row.config});
  }
  table.print(std::cout);
  std::cout << "*wall-clock on this machine; the paper reports 0.5 GPU-days "
               "per YOSO run on a P100\n";

  // --- Fig 7: normalised comparison + headline reduction bands. ---
  const Row& yoso_eer = rows[rows.size() - 1];
  const Row& yoso_lat = rows[rows.size() - 2];
  double e_min = 1e300, e_max = 0.0, l_min = 1e300, l_max = 0.0;
  TextTable fig7({"Model", "energy / yoso_eer", "latency / yoso_lat"});
  for (std::size_t i = 0; i + 2 < rows.size() + 0; ++i) {
    const Row& row = rows[i];
    const double er = row.energy / yoso_eer.energy;
    const double lr = row.latency / yoso_lat.latency;
    e_min = std::min(e_min, er);
    e_max = std::max(e_max, er);
    l_min = std::min(l_min, lr);
    l_max = std::max(l_max, lr);
    fig7.add_row({row.name, TextTable::fmt(er, 2) + "x",
                  TextTable::fmt(lr, 2) + "x"});
  }
  std::cout << "\nFig 7 — normalised energy/latency vs the YOSO solutions:\n";
  fig7.print(std::cout);
  const bool holds = e_min > 1.0 && l_min > 1.0;
  std::cout << "\nheadline bands (two-stage / YOSO over the six references):\n"
            << "  energy reduction:  measured " << TextTable::fmt(e_min, 2)
            << "x .. " << TextTable::fmt(e_max, 2)
            << "x   (paper: 1.42x .. 2.29x)\n"
            << "  latency reduction: measured " << TextTable::fmt(l_min, 2)
            << "x .. " << TextTable::fmt(l_max, 2)
            << "x   (paper: 1.79x .. 3.07x)\n"
            << "shape check: "
            << (holds ? "YOSO dominates every two-stage row on its optimised "
                        "metric, as in the paper"
                      : "MISMATCH: some two-stage row beats YOSO")
            << "\n";
  bench_footer(sw);
  return holds ? 0 : 1;
}
