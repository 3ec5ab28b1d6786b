#pragma once
// Candidate evaluators (paper Fig 2).
//
// FastEvaluator — used inside the search loop:
//   * accuracy from the one-shot HyperNet proxy (surrogate hypernet mode;
//     see src/surrogate for why a calibrated analytic model stands in for a
//     GPU-trained HyperNet at bench scale), and
//   * latency/energy from the Gaussian-process performance predictor.
//
// AccurateEvaluator — used for Step-3 top-N reranking and for the two-stage
// baseline: "fully trained" accuracy (surrogate test-error mode) and the
// cycle-level systolic-array simulation.
//
// Both share one interface so the search driver is evaluator-agnostic, and
// the HyperNet-backed evaluator in examples/ plugs in the same way.
//
// Parallelism comes from one injected ExecContext (util/exec_context.h):
// evaluators never own a pool, so a Fast+Accurate pair sharing a context
// shares its workers instead of oversubscribing the machine.  A null /
// omitted context means serial.
//
// Skeletons: each evaluator is built on a base skeleton, and a candidate
// runs on resolve_skeleton(base, candidate) (core/design_space.h), so one
// evaluator pair serves a space with skeleton choices as well as the
// paper's fixed-skeleton space.
//
// Batched evaluation: evaluate_batch() scores a span of candidates at once.
// Both bundled evaluators are pure functions of the candidate after
// construction (the GP, the accuracy surrogate and the simulator are all
// read-only and deterministic).  FastEvaluator probes its memo in parallel,
// then scores the batch's distinct misses in one parallel_for over fixed
// 8-row blocks — each block computes the accuracy proxy, the GP feature
// rows and one predict of the GP's latency and energy targets on one
// thread — and memoizes results keyed by the lossless candidate_key() (two
// designs share an entry exactly when they compare equal), which pays off
// when the controller revisits designs.  evaluate() runs the same block chain on one
// row, so results are identical to per-candidate evaluation at any thread
// count: the blocking is fixed, every per-row computation chain is
// self-contained, and all stateful bookkeeping stays on the coordinator.
//
// The memo cache is *coordinator-only writable* state: workers probe a
// read-only snapshot of it (probes strictly precede this batch's inserts),
// and the coordinator merges the insert log in proposal order — that is
// what keeps its contents (and hence eviction behaviour) independent of the
// thread count.  The discipline is machine-proven, not prose: cache_ is
// YOSO_GUARDED_BY the coordinator_ thread role, so under clang
// -Wthread-safety a worker lambda that touches it fails to compile (the
// clang-gated ctest `tsa.negative` demonstrates the diagnostic).

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "accel/simulator.h"
#include "arch/network.h"
#include "base/thread_annotations.h"
#include "core/design_space.h"
#include "core/reward.h"
#include "predictor/gp.h"
#include "predictor/perf_predictor.h"
#include "surrogate/accuracy_model.h"
#include "util/exec_context.h"
#include "util/thread_pool.h"

namespace yoso {

class Evaluator {
 public:
  virtual ~Evaluator() = default;

  virtual EvalResult evaluate(const CandidateDesign& candidate) = 0;

  /// Scores `batch` in order.  The base implementation is a serial loop over
  /// evaluate(); overrides may parallelize but must return results identical
  /// to that loop.
  virtual std::vector<EvalResult> evaluate_batch(
      std::span<const CandidateDesign> batch);

  /// Injects the execution context batch evaluation runs on (null = serial).
  /// A no-op for evaluators without a parallel batch path.
  virtual void set_exec_context(ExecContextPtr /*exec*/) {}

  /// Online-refinement hook: folds one *accurate* result for `candidate`
  /// back into the evaluator's internal models, so later evaluations are
  /// anchored by ground truth collected mid-search.  Returns true when the
  /// result was absorbed; the base implementation (and any evaluator with
  /// no refinable model) is a no-op returning false.  Must be called from
  /// the thread driving the search, never from pool workers.
  virtual bool refine(const CandidateDesign& /*candidate*/,
                      const EvalResult& /*accurate*/) {
    return false;
  }
};

/// Step-1 construction knobs for the fast evaluator.
struct FastEvaluatorOptions {
  std::size_t predictor_samples = 600;  ///< simulator samples for GP training
  std::uint64_t seed = 99;
  /// GP factorisation for the performance predictor: kSparse caps the
  /// model at `inducing_points` inducing rows and unlocks refine().
  GpBackend predictor_backend = GpBackend::kExact;
  std::size_t inducing_points = 512;
  /// Step-1 sampling + batch-eval workers; null means serial.
  ExecContextPtr exec = nullptr;
};

class FastEvaluator : public Evaluator {
 public:
  /// Builds the evaluator: collects `predictor_samples` simulator samples
  /// of `space`'s random candidates, each on its resolved skeleton, and
  /// fits the two-target (energy, latency) GP (paper Step 1).  Sample
  /// simulation and the sparse GP's gram blocks fan out across
  /// `options.exec`; the candidate draws stay on one RNG stream and the
  /// gram blocking is fixed, so the evaluator is thread-count independent.
  /// ContractViolation when predictor_samples is 0.
  FastEvaluator(const DesignSpace& space, const NetworkSkeleton& skeleton,
                const SystolicSimulator& simulator,
                FastEvaluatorOptions options = {});

  /// Construction from pre-collected samples (lets benches reuse them).
  /// This and the restoring constructor below serve fixed-skeleton
  /// candidates only.
  FastEvaluator(const NetworkSkeleton& skeleton,
                const std::vector<PerfSample>& samples,
                GpBackend predictor_backend = GpBackend::kExact,
                std::size_t inducing_points = 512);

  /// Construction from already-fitted models (the artifact load path,
  /// core/artifact.h): no Step-1 sample collection or GP fit happens, the
  /// predictor arrives ready.  An evaluator restored from the artifact a
  /// fresh build saved evaluates bit-identically to that build
  /// (ContractViolation when `predictor` is unfitted).
  FastEvaluator(AccuracyModel accuracy, PerformancePredictor predictor,
                ExecContextPtr exec = nullptr);

  /// Single-candidate evaluation: always recomputes, through the batch
  /// path's scoring chain.  ContractViolation on a skeleton choice outside
  /// the space the evaluator was built for (as for evaluate_batch/refine).
  EvalResult evaluate(const CandidateDesign& candidate) override;

  /// Batched evaluation with memoization: distinct uncached candidates are
  /// scored in one fork-join over fixed 8-row blocks, revisited ones are
  /// served from the cache.  Identical results to evaluate() per element.
  std::vector<EvalResult> evaluate_batch(
      std::span<const CandidateDesign> batch) override;

  /// Folds one accurate-simulator result into the predictor's latency and
  /// energy targets (O(m^2) per target; sparse predictor backend only — a
  /// no-op returning false on the exact backend).  Memoized results predate the refinement,
  /// so the cache is cleared on success: later batches re-predict through
  /// the refined models.  Coordinator-only, like evaluate_batch.
  bool refine(const CandidateDesign& candidate,
              const EvalResult& accurate) override;

  void set_exec_context(ExecContextPtr exec) override;
  std::size_t parallelism() const { return exec_->threads(); }

  std::size_t cache_size() const {
    ThreadRoleGuard coordinator(coordinator_);
    return cache_.size();
  }
  void clear_cache() {
    ThreadRoleGuard coordinator(coordinator_);
    cache_.clear();
  }

  const PerformancePredictor& predictor() const { return predictor_; }
  const AccuracyModel& accuracy_model() const { return accuracy_; }

#ifdef YOSO_TSA_NEGATIVE_FIXTURE
  /// Hook for the compile-time negative fixture
  /// (tests/fixtures/tsa_negative_cache_access.cpp): its definition makes a
  /// worker lambda touch cache_ and must be rejected by -Wthread-safety.
  void tsa_fixture_worker_touches_cache();
#endif

 private:
  /// One entry of the resolved-skeleton table.
  struct SkeletonEntry {
    std::uint8_t normal_cells = 0;
    std::uint8_t stem_channels = 0;
    NetworkSkeleton skeleton;
  };

  ThreadPool& pool() { return exec_->pool(); }

  /// The table entry for `candidate`'s skeleton choices (ContractViolation
  /// when there is none): a lookup, so the scoring chain never allocates.
  const NetworkSkeleton& skeleton_of(const CandidateDesign& candidate) const;

  /// The one scoring chain: rows.size() <= 8 candidates scored on the
  /// calling thread into `out`, one result per row.  One ArchFeatures per
  /// candidate, on its skeleton, feeds both the HyperNet accuracy proxy and
  /// the GP feature row, then one fused latency/energy GP predict scores
  /// every row.
  void score_rows(std::span<const CandidateDesign* const> rows,
                  std::span<EvalResult> out) const;

  AccuracyModel accuracy_;
  PerformancePredictor predictor_;
  /// Every skeleton a candidate of the evaluator's space resolves to,
  /// built once at construction: the base skeleton (both choices 0), then
  /// one entry per (normal_cells, stem_channels) pair of the space.
  std::vector<SkeletonEntry> skeletons_;
  ExecContextPtr exec_;
  /// Serial context of whichever thread drives the search; cache_ may only
  /// be written under a ThreadRoleGuard on it (never from pool workers —
  /// they see at most a const snapshot).
  mutable ThreadRole coordinator_;
  std::unordered_map<CandidateKey, EvalResult, CandidateKeyHash> cache_
      YOSO_GUARDED_BY(coordinator_);
};

class AccurateEvaluator : public Evaluator {
 public:
  AccurateEvaluator(NetworkSkeleton skeleton,
                    SystolicSimulator simulator = SystolicSimulator(
                        {}, SimFidelity::kCycleLevel),
                    ExecContextPtr exec = nullptr);

  /// Full-training error and cycle-level simulation, both on the
  /// candidate's resolved skeleton.
  EvalResult evaluate(const CandidateDesign& candidate) override;

  /// Parallel batch scoring (no memoization: Step-3 finalists are already
  /// distinct and cycle-level simulation dominates, so the fan-out is the
  /// whole win).
  std::vector<EvalResult> evaluate_batch(
      std::span<const CandidateDesign> batch) override;

  void set_exec_context(ExecContextPtr exec) override;

  const SystolicSimulator& simulator() const { return simulator_; }

 private:
  ThreadPool& pool() { return exec_->pool(); }

  NetworkSkeleton skeleton_;
  AccuracyModel accuracy_;
  SystolicSimulator simulator_;
  ExecContextPtr exec_;
};

}  // namespace yoso
