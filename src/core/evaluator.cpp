#include "core/evaluator.h"

#include <algorithm>
#include <array>

#include "accel/simulator.h"
#include "arch/network.h"
#include "base/contract.h"
#include "core/design_space.h"
#include "core/reward.h"
#include "obs/trace.h"
#include "predictor/gp.h"
#include "predictor/perf_predictor.h"
#include "surrogate/accuracy_model.h"
#include "util/exec_context.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace yoso {
namespace {

// Memoization stops growing past this many distinct designs (~129 MB at
// the ~123 B per entry measured over 108k inserts); further misses are
// still computed, just not retained.
constexpr std::size_t kMaxCacheEntries = 1u << 20;

// Misses are scored in blocks of this many rows, one parallel_for index per
// block.  Fixed — never derived from the thread count or batch size — so
// the work decomposition (and therefore everything about the results) is
// identical at any parallelism.
constexpr std::size_t kMissBlock = 8;

}  // namespace

std::vector<EvalResult> Evaluator::evaluate_batch(
    std::span<const CandidateDesign> batch) {
  std::vector<EvalResult> results;
  results.reserve(batch.size());
  for (const CandidateDesign& c : batch) results.push_back(evaluate(c));
  return results;
}

FastEvaluator::FastEvaluator(const DesignSpace& space,
                             const NetworkSkeleton& skeleton,
                             const SystolicSimulator& simulator,
                             FastEvaluatorOptions options)
    : accuracy_(skeleton),
      predictor_(skeleton, options.predictor_backend,
                 options.inducing_points),
      skeletons_{{.skeleton = skeleton}},
      exec_(options.exec != nullptr ? std::move(options.exec)
                                    : ExecContext::serial()) {
  YOSO_REQUIRE(options.predictor_samples > 0,
               "FastEvaluator: predictor_samples must be positive");
  CandidateDesign choice;
  for (const int n : space.normal_cell_choices())
    for (const int s : space.stem_channel_choices()) {
      choice.normal_cells = static_cast<std::uint8_t>(n);
      choice.stem_channels = static_cast<std::uint8_t>(s);
      skeletons_.push_back({choice.normal_cells, choice.stem_channels,
                            resolve_skeleton(skeleton, choice)});
    }
  // Draws match collect_samples' ConfigSpace form (genotype, then the
  // config actions) and add the space's skeleton choices after them, so a
  // fixed-skeleton space collects the same samples as it.
  Rng rng(options.seed);
  const std::vector<PerfSample> samples = collect_samples(
      options.predictor_samples, simulator,
      [&](Rng& r) {
        const CandidateDesign c = space.random_candidate(r);
        return SampleDraw{c.genotype, c.config, &skeleton_of(c)};
      },
      rng, &pool());
  predictor_.fit(samples, &pool());
}

FastEvaluator::FastEvaluator(const NetworkSkeleton& skeleton,
                             const std::vector<PerfSample>& samples,
                             GpBackend predictor_backend,
                             std::size_t inducing_points)
    : accuracy_(skeleton),
      predictor_(skeleton, predictor_backend, inducing_points),
      skeletons_{{.skeleton = skeleton}},
      exec_(ExecContext::serial()) {
  predictor_.fit(samples);
}

FastEvaluator::FastEvaluator(AccuracyModel accuracy,
                             PerformancePredictor predictor,
                             ExecContextPtr exec)
    : accuracy_(std::move(accuracy)),
      predictor_(std::move(predictor)),
      skeletons_{{.skeleton = predictor_.skeleton()}},
      exec_(exec != nullptr ? std::move(exec) : ExecContext::serial()) {
  YOSO_REQUIRE(predictor_.fitted(),
               "FastEvaluator: restored predictor is not fitted");
}

const NetworkSkeleton& FastEvaluator::skeleton_of(
    const CandidateDesign& candidate) const {
  const auto it = std::find_if(
      skeletons_.begin(), skeletons_.end(), [&](const SkeletonEntry& e) {
        return e.normal_cells == candidate.normal_cells &&
               e.stem_channels == candidate.stem_channels;
      });
  YOSO_REQUIRE(it != skeletons_.end(), "FastEvaluator: skeleton choice (",
               int{candidate.normal_cells}, ", ",
               int{candidate.stem_channels},
               ") is not in the space this evaluator was built for");
  return it->skeleton;
}

bool FastEvaluator::refine(const CandidateDesign& candidate,
                           const EvalResult& accurate) {
  if (!predictor_.refine(codesign_features(candidate.genotype,
                                           candidate.config,
                                           skeleton_of(candidate)),
                         accurate.latency_ms, accurate.energy_mj))
    return false;
  // Every memoized latency/energy prediction predates the refinement; a
  // stale hit would silently diverge from what evaluate() now computes, so
  // the whole cache goes.  Refinements are infrequent (every --refine-every
  // iterations) and misses repopulate it, so the cost is a short warm-up.
  clear_cache();
  obs::counter_add("eval.refinements", 1);
  return true;
}

void FastEvaluator::set_exec_context(ExecContextPtr exec) {
  exec_ = exec != nullptr ? std::move(exec) : ExecContext::serial();
}

void FastEvaluator::score_rows(std::span<const CandidateDesign* const> rows,
                               std::span<EvalResult> out) const {
  constexpr std::size_t dim = kCodesignFeatureDim;
  YOSO_CHECK(rows.size() <= kMissBlock && out.size() == rows.size(),
             "FastEvaluator::score_rows: ", rows.size(), " rows into ",
             out.size(), " results (one block holds ", kMissBlock, ")");
  std::array<double, kMissBlock * dim> feats{};
  std::array<double, kMissBlock> lat{};
  std::array<double, kMissBlock> en{};
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const CandidateDesign& cand = *rows[j];
    const ArchFeatures af =
        ArchFeatures::compute(cand.genotype, skeleton_of(cand));
    out[j].accuracy = accuracy_.hypernet_accuracy(cand.genotype, af);
    codesign_features_into(af, cand.config, feats.data() + j * dim);
  }
  predictor_.predict_latency_energy_batch(feats.data(), rows.size(),
                                          lat.data(), en.data());
  for (std::size_t j = 0; j < rows.size(); ++j) {
    out[j].latency_ms = std::max(1e-3, lat[j]);
    out[j].energy_mj = std::max(1e-3, en[j]);
  }
}

EvalResult FastEvaluator::evaluate(const CandidateDesign& candidate) {
  const CandidateDesign* row = &candidate;
  EvalResult r;
  score_rows({&row, 1}, {&r, 1});
  return r;
}

std::vector<EvalResult> FastEvaluator::evaluate_batch(
    std::span<const CandidateDesign> batch) {
  // The calling thread *is* the coordinator; the guard makes that visible
  // to -Wthread-safety so the cache_ access below is proven legal — and
  // stays illegal inside worker lambdas, which hold no capabilities.
  ThreadRoleGuard coordinator(coordinator_);
  YOSO_TRACE_SPAN("eval.fast_batch");

  const std::size_t n = batch.size();
  std::vector<EvalResult> results(n);
  if (n == 0) return results;

  // Probe (parallel, read-only): candidate keys + memo lookups.  Workers
  // consult `snap`, a const view of the cache bound here while the
  // coordinator role is held: probes strictly precede this batch's inserts
  // and unordered_map nodes are pointer-stable, so concurrent find() is
  // race-free — while the coordinator-only *write* discipline stays
  // machine-checked (naming cache_ in a worker lambda still fails
  // -Wthread-safety; see the tsa.negative fixture).
  std::vector<CandidateKey> keys(n);
  std::vector<const EvalResult*> hit(n, nullptr);
  {
    YOSO_TRACE_SPAN("eval.probe");
    const auto& snap = cache_;
    pool().parallel_for(0, n, [&](std::size_t i) {
      keys[i] = candidate_key(batch[i]);
      const auto it = snap.find(keys[i]);
      if (it != snap.end()) hit[i] = &it->second;
    });
  }

  // Misses: first occurrence of every key not already cached, in batch
  // order.  Only these are scored; duplicates are computed once.
  std::vector<std::size_t> miss;
  miss.reserve(n);
  std::unordered_map<CandidateKey, std::size_t, CandidateKeyHash> miss_slot;
  for (std::size_t i = 0; i < n; ++i) {
    if (hit[i] != nullptr) continue;
    if (miss_slot.emplace(keys[i], miss.size()).second) miss.push_back(i);
  }

  // One fork-join over fixed blocks of misses, each scored by score_rows
  // on one thread.  Per-element results are identical to evaluate(): each
  // candidate's chain is self-contained and the blocking is fixed.
  std::vector<EvalResult> computed(miss.size());
  if (!miss.empty()) {
    YOSO_TRACE_SPAN("eval.pipeline");
    const std::size_t m = miss.size();
    const std::size_t blocks = (m + kMissBlock - 1) / kMissBlock;
    pool().parallel_for(0, blocks, [&](std::size_t b) {
      const std::size_t lo = b * kMissBlock;
      const std::size_t cnt = std::min(kMissBlock, m - lo);
      std::array<const CandidateDesign*, kMissBlock> rows{};
      for (std::size_t j = 0; j < cnt; ++j) rows[j] = &batch[miss[lo + j]];
      score_rows({rows.data(), cnt}, {computed.data() + lo, cnt});
    });
  }
  obs::counter_add("eval.cache_misses", miss.size());
  obs::counter_add("eval.cache_hits", n - miss.size());

  // The insert log: merged on the coordinator in proposal (miss-list)
  // order, so the cache contents are independent of the thread count.
  for (std::size_t j = 0; j < miss.size(); ++j)
    if (cache_.size() < kMaxCacheEntries)
      cache_.emplace(keys[miss[j]], computed[j]);

  // Hits resolve through the probe snapshot's stable pointers; misses (and
  // their in-batch duplicates) through the computed slots.
  for (std::size_t i = 0; i < n; ++i)
    results[i] =
        hit[i] != nullptr ? *hit[i] : computed[miss_slot.at(keys[i])];
  return results;
}

AccurateEvaluator::AccurateEvaluator(NetworkSkeleton skeleton,
                                     SystolicSimulator simulator,
                                     ExecContextPtr exec)
    : skeleton_(std::move(skeleton)),
      accuracy_(skeleton_),
      simulator_(simulator),
      exec_(exec != nullptr ? std::move(exec) : ExecContext::serial()) {}

void AccurateEvaluator::set_exec_context(ExecContextPtr exec) {
  exec_ = exec != nullptr ? std::move(exec) : ExecContext::serial();
}

EvalResult AccurateEvaluator::evaluate(const CandidateDesign& candidate) {
  const NetworkSkeleton skeleton = resolve_skeleton(skeleton_, candidate);
  const ArchFeatures af = ArchFeatures::compute(candidate.genotype, skeleton);
  EvalResult r;
  r.accuracy = 1.0 - accuracy_.test_error(candidate.genotype, af) / 100.0;
  const SimulationResult sim = simulator_.simulate_network(
      candidate.genotype, skeleton, candidate.config);
  r.latency_ms = sim.latency_ms;
  r.energy_mj = sim.energy_mj;
  return r;
}

std::vector<EvalResult> AccurateEvaluator::evaluate_batch(
    std::span<const CandidateDesign> batch) {
  YOSO_TRACE_SPAN("eval.accurate_batch");
  obs::counter_add("eval.accurate_evals", batch.size());
  std::vector<EvalResult> results(batch.size());
  pool().parallel_for(0, batch.size(), [&](std::size_t i) {
    results[i] = evaluate(batch[i]);
  });
  return results;
}

}  // namespace yoso
