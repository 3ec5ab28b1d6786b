// Extension — batch/throughput mode.
//
// Part 1 — candidate evaluation throughput: the search-loop hot path.  Two
// workloads bracket what the controller produces:
//
//   * memo-cold: every proposal is a distinct design, so the whole stream
//     is scored by the fused block fork-join (the scaling story);
//   * revisit: ~85 % of submissions repeat one of `unique` designs already
//     seen, as a converging RL controller does (the memoization story).
//
// Each is scored per-candidate with Evaluator::evaluate() (the serial
// baseline) and with the batched engine (FastEvaluator::evaluate_batch —
// parallel across an ExecContext + memoized) at 1, 2, 4 and 8 threads.
// Every configuration reports the best of kReps repetitions (min total
// time) to damp scheduler noise; the cache is cleared before every
// repetition so each sees the same hit/miss profile.
//
// `--smoke` runs a trimmed memo-cold sweep and exits non-zero when the
// 8-thread batched engine falls below 0.85x its 1-thread rate — the CI guard
// that threading never becomes a pessimization (on multi-core hosts it is a
// speedup; the tolerance keeps single-core runners honest).
//
// `--emit-profile [PATH]` runs predictor construction plus one memo-cold
// pass with tracing enabled and writes the merged span aggregates as the
// span-cost profile yoso-lint's perf rules consume (the committed copy
// lives at tools/yoso_hot_profile.json; DESIGN.md §15).
//
// Part 2 — inference batch-size sweep: the paper evaluates single-image
// (batch-1) edge inference.  Server-style deployment batches images,
// amortising weight traffic; this sweeps the batch size for the Table-2
// networks and shows how per-image energy falls and saturates at the
// activation-bound floor — and how the best accelerator configuration can
// shift once weights stop dominating.  The full run exits 1, naming the
// row, when a batch step of Darts_v1 or EnasNet fails to lower E/img or
// lowers it by no less than the step before it did.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "accel/config.h"
#include "accel/simulator.h"
#include "arch/network.h"
#include "bench_common.h"
#include "bench_json.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/two_stage.h"
#include "obs/trace.h"
#include "predictor/gp.h"
#include "util/exec_context.h"
#include "util/rng.h"

namespace {

constexpr std::size_t kReps = 3;      // min-of-N repetitions per config
constexpr std::size_t kBatch = 64;    // candidates per evaluate_batch round
constexpr double kSmokeTolerance = 0.85;  // 8t must stay >= this x 1t

// One full pass of `stream` through evaluate_batch in kBatch-sized rounds;
// returns candidates/second for the fastest of kReps repetitions.
double batched_cand_per_s(yoso::FastEvaluator& fast,
                          const std::vector<yoso::CandidateDesign>& stream,
                          double& sink) {
  using namespace yoso;
  double best_s = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    fast.clear_cache();
    Stopwatch sw;
    for (std::size_t i = 0; i < stream.size(); i += kBatch) {
      const std::size_t n = std::min(kBatch, stream.size() - i);
      sink += fast
                  .evaluate_batch(std::span<const CandidateDesign>(
                      stream.data() + i, n))
                  .front()
                  .energy_mj;
    }
    best_s = std::min(best_s, sw.elapsed_seconds());
  }
  return static_cast<double>(stream.size()) / best_s;
}

/// Part 1.  Returns false when the smoke gate fails (only checked with
/// `smoke` set; the full bench always passes).
bool bench_candidate_throughput(yoso::BenchJson& json, bool smoke) {
  using namespace yoso;
  DesignSpace space;
  const NetworkSkeleton skeleton = default_skeleton();
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  FastEvaluator fast(space, skeleton, sim,
                     {.predictor_samples = smoke ? 60 : scaled(300, 100),
                      .seed = 11,
                      .exec = ExecContext::create(bench_threads())});

  Rng rng(29);
  const std::size_t unique = smoke ? 40 : scaled(300, 50);
  const std::size_t total = smoke ? 240 : scaled(2000, 400);
  // Memo-cold stream: `total` fresh draws (collisions in this space are
  // vanishingly rare), so every candidate is scored, none served by the memo.
  std::vector<CandidateDesign> cold;
  cold.reserve(total);
  for (std::size_t i = 0; i < total; ++i)
    cold.push_back(space.random_candidate(rng));
  // Revisit stream: proposals drawn from a pool of `unique` designs.
  std::vector<CandidateDesign> pool;
  pool.reserve(unique);
  for (std::size_t i = 0; i < unique; ++i)
    pool.push_back(space.random_candidate(rng));
  std::vector<CandidateDesign> revisit;
  revisit.reserve(total);
  for (std::size_t i = 0; i < total; ++i)
    revisit.push_back(pool[rng.uniform_index(unique)]);

  // Serial baseline: one candidate at a time through evaluate(), no memo.
  double sink = 0.0;
  double serial_s = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    Stopwatch sw;
    for (const CandidateDesign& c : cold) sink += fast.evaluate(c).energy_mj;
    serial_s = std::min(serial_s, sw.elapsed_seconds());
  }
  const double serial_cps = static_cast<double>(total) / serial_s;

  TextTable table({"mode", "threads", "cand/s", "speedup"});
  table.add_row({"serial evaluate()", "1", TextTable::fmt(serial_cps, 0),
                 "1.00"});
  json.field("proposals", static_cast<double>(total));
  json.field("distinct_revisit", static_cast<double>(unique));
  json.field("repetitions", static_cast<double>(kReps));
  json.record("serial_evaluate");
  json.value("threads", 1.0);
  json.value("cand_per_s", serial_cps);
  json.value("speedup", 1.0);

  double cold_1t = 0.0;
  double cold_8t = 0.0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    fast.set_exec_context(ExecContext::create(threads));
    const double cold_cps = batched_cand_per_s(fast, cold, sink);
    if (threads == 1) cold_1t = cold_cps;
    if (threads == 8) cold_8t = cold_cps;
    table.add_row({"batched cold",
                   TextTable::fmt_int(static_cast<long long>(threads)),
                   TextTable::fmt(cold_cps, 0),
                   TextTable::fmt(cold_cps / serial_cps, 2)});
    json.record("batched_cold");
    json.value("threads", static_cast<double>(threads));
    json.value("batch", static_cast<double>(kBatch));
    json.value("cand_per_s", cold_cps);
    json.value("speedup", cold_cps / serial_cps);
    if (!smoke) {
      const double memo_cps = batched_cand_per_s(fast, revisit, sink);
      table.add_row({"batched+memo",
                     TextTable::fmt_int(static_cast<long long>(threads)),
                     TextTable::fmt(memo_cps, 0),
                     TextTable::fmt(memo_cps / serial_cps, 2)});
      json.record("batched_memo");
      json.value("threads", static_cast<double>(threads));
      json.value("batch", static_cast<double>(kBatch));
      json.value("cand_per_s", memo_cps);
      json.value("speedup", memo_cps / serial_cps);
    }
  }
  std::cout << "\ncandidate evaluation throughput (" << total
            << " proposals, batch " << kBatch << ", best of " << kReps
            << " reps):\n";
  table.print(std::cout);
  std::cout << "cache now holds " << fast.cache_size()
            << " designs  [checksum " << TextTable::fmt(sink, 1) << "]\n";

  if (smoke) {
    const bool ok = cold_8t >= kSmokeTolerance * cold_1t;
    std::cout << "smoke gate: 8t " << TextTable::fmt(cold_8t, 0)
              << " cand/s vs 1t " << TextTable::fmt(cold_1t, 0)
              << " cand/s (ratio " << TextTable::fmt(cold_8t / cold_1t, 2)
              << ", floor " << TextTable::fmt(kSmokeTolerance, 2) << ") — "
              << (ok ? "PASS" : "FAIL") << "\n";
    json.record("smoke_gate");
    json.value("ratio_8t_over_1t", cold_8t / cold_1t);
    json.value("floor", kSmokeTolerance);
    json.value("pass", ok ? 1.0 : 0.0);
    return ok;
  }

  // Observability overhead guard (docs/OBSERVABILITY.md budget): the same
  // batched memo-cold workload with the layer disabled (every instrument is
  // one relaxed load) and enabled (spans + counters recording).  The
  // disabled number must track the batched_cold records above; the enabled
  // delta is the price of --metrics-out/--trace-out.
  fast.set_exec_context(ExecContext::create(bench_threads()));
  double cps_by_mode[2] = {0.0, 0.0};
  for (const bool on : {false, true}) {
    obs::set_enabled(on);
    cps_by_mode[on ? 1 : 0] = batched_cand_per_s(fast, cold, sink);
  }
  obs::set_enabled(false);
  const double overhead_pct =
      100.0 * (cps_by_mode[0] - cps_by_mode[1]) / cps_by_mode[0];
  std::cout << "observability guard: disabled "
            << TextTable::fmt(cps_by_mode[0], 0) << " cand/s, enabled "
            << TextTable::fmt(cps_by_mode[1], 0) << " cand/s  (overhead "
            << TextTable::fmt(overhead_pct, 1) << " %)\n";
  json.record("obs_guard");
  json.value("disabled_cand_per_s", cps_by_mode[0]);
  json.value("enabled_cand_per_s", cps_by_mode[1]);
  json.value("overhead_pct", overhead_pct);
  return true;
}

/// `--emit-profile`: one instrumented predictor build + memo-cold pass,
/// span aggregates written as the yoso-lint hot-set profile.
int emit_profile(const std::string& path) {
  using namespace yoso;
  obs::set_enabled(true);
  DesignSpace space;
  const NetworkSkeleton skeleton = default_skeleton();
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  // Predictor construction runs Step-1 collection and the GP fits under
  // tracing, so step1.* / sim.* / gp.fit land in the profile alongside the
  // eval.* spans from the batched pass below.
  FastEvaluator fast(space, skeleton, sim,
                     {.predictor_samples = 60,
                      .seed = 11,
                      .exec = ExecContext::create(bench_threads())});
  Rng rng(29);
  constexpr std::size_t kProfileStream = 256;
  std::vector<CandidateDesign> stream;
  stream.reserve(kProfileStream);
  for (std::size_t i = 0; i < kProfileStream; ++i)
    stream.push_back(space.random_candidate(rng));
  double sink = 0.0;
  (void)batched_cand_per_s(fast, stream, sink);

  // Same build + memo-cold pass on the sparse predictor backend, plus a few
  // online refinements, so the gp.sparse_fit / gp.sparse_select /
  // gp.sparse_update spans land in the profile and the perf-lint hot set
  // covers the sparse paths too.
  FastEvaluator sparse_fast(space, skeleton, sim,
                            {.predictor_samples = 60,
                             .seed = 11,
                             .predictor_backend = GpBackend::kSparse,
                             .inducing_points = 32,
                             .exec = ExecContext::create(bench_threads())});
  (void)batched_cand_per_s(sparse_fast, stream, sink);
  AccurateEvaluator accurate(skeleton, sim);
  for (std::size_t i = 0; i < 4; ++i)
    (void)sparse_fast.refine(stream[i], accurate.evaluate(stream[i]));

  const std::vector<obs::SpanAggregate> spans = obs::summarize_spans();
  obs::set_enabled(false);
  std::ofstream os(path);
  if (!os) {
    std::cerr << "emit-profile: cannot open " << path << " for writing\n";
    return 1;
  }
  os << "{\n  \"tool\": \"bench_throughput\",\n  \"schema\": 1,\n"
     << "  \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanAggregate& s = spans[i];
    os << "    {\"name\": \"" << s.name << "\", \"count\": " << s.count
       << ", \"total_ns\": " << s.total_ns << ", \"self_ns\": " << s.self_ns
       << "}" << (i + 1 < spans.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  os.close();
  std::cout << "emit-profile: wrote " << spans.size() << " span(s) to "
            << path << "  [checksum " << TextTable::fmt(sink, 1) << "]\n";
  for (const obs::SpanAggregate& s : spans)
    std::cout << "  " << s.name << "  count " << s.count << "  self "
              << s.self_ns << " ns\n";
  return os ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace yoso;
  const bool smoke =
      argc > 1 && std::string_view(argv[1]) == std::string_view("--smoke");
  if (argc > 1 && std::string_view(argv[1]) ==
                      std::string_view("--emit-profile")) {
    return emit_profile(argc > 2 ? argv[2] : "yoso_hot_profile.json");
  }
  Stopwatch sw;
  bench_banner("Extension", smoke ? "candidate-throughput smoke"
                                  : "candidate-throughput + batch-size sweep");

  BenchJson json(smoke ? "throughput_smoke" : "throughput");
  const bool ok = bench_candidate_throughput(json, smoke);
  const std::string json_path = json.write();
  std::cout << "[wrote " << (json_path.empty() ? "<failed>" : json_path)
            << "]\n";
  if (smoke) {
    bench_footer(sw);
    return ok ? 0 : 1;
  }

  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  const NetworkSkeleton skeleton = default_skeleton();
  const AcceleratorConfig cfg{16, 32, 512, 512,
                              Dataflow::kOutputStationary};

  // The shape check reads the rows below: every batch step must lower
  // E/img (by more than 0) and by less than the step before it did.
  TextTable table({"model", "batch", "E/img (mJ)", "L/img (ms)",
                   "throughput (fps)"});
  std::vector<std::string> shape_failures;
  for (const char* name : {"Darts_v1", "EnasNet"}) {
    const auto& g = reference_model(name).genotype;
    double prev_e = 0.0;
    double prev_drop = 0.0;
    int prev_batch = 0;
    for (int batch : {1, 2, 4, 8, 16}) {
      const auto r = sim.simulate_network(g, skeleton, cfg, batch);
      table.add_row({name, TextTable::fmt_int(batch),
                     TextTable::fmt(r.energy_mj, 2),
                     TextTable::fmt(r.latency_ms, 2),
                     TextTable::fmt(r.throughput_fps, 0)});
      if (prev_batch != 0) {
        const double drop = prev_e - r.energy_mj;
        const bool saturating = prev_batch == 1 || drop < prev_drop;
        if (!(drop > 0.0) || !saturating) {
          std::ostringstream why;
          why << name << " batch " << batch << ": E/img " << prev_e
              << " -> " << r.energy_mj << " mJ (drop " << drop;
          if (prev_batch != 1) why << ", previous drop " << prev_drop;
          why << ")";
          shape_failures.push_back(why.str());
        }
        prev_drop = drop;
      }
      prev_e = r.energy_mj;
      prev_batch = batch;
    }
  }
  table.print(std::cout);

  // Does the best config change with batching?  Compare the exhaustive best
  // config at batch 1 vs batch 16 for one network.
  const auto& g = reference_model("Darts_v2").genotype;
  const ConfigSpace space = default_config_space();
  TextTable best({"batch", "best config (min E/img)", "E/img (mJ)"});
  for (int batch : {1, 16}) {
    double best_e = 1e18;
    AcceleratorConfig best_cfg{};
    for (const AcceleratorConfig& c : space.enumerate()) {
      const auto r = sim.simulate_network(g, skeleton, c, batch);
      if (r.energy_mj < best_e) {
        best_e = r.energy_mj;
        best_cfg = c;
      }
    }
    best.add_row({TextTable::fmt_int(batch), best_cfg.to_string(),
                  TextTable::fmt(best_e, 2)});
  }
  std::cout << "\nenergy-optimal configuration vs batch (Darts_v2):\n";
  best.print(std::cout);
  std::cout << "\nshape check: per-image energy decreases monotonically with "
               "batch and saturates at the activation-traffic floor: "
            << (shape_failures.empty() ? "OK" : "MISMATCH") << "\n";
  for (const std::string& f : shape_failures)
    std::cout << "  MISMATCH " << f << "\n";
  bench_footer(sw);
  return shape_failures.empty() ? 0 : 1;
}
