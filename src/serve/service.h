#pragma once
// SearchService: the long-running co-search engine behind yoso_serve.
//
// One service loads ONE artifact set (core/artifact.h) at startup and holds
// it immutable for its whole life: the restored FastEvaluator, the design
// space, and the original mapped artifact (kept so snapshots can copy every
// source section forward verbatim).  Jobs arrive through the
// JobQueue from any thread; a single worker thread drains them in priority
// order and runs each as a Step-2/Step-3 search.
//
// Cross-job evaluation batching: every job evaluates through the SAME
// FastEvaluator on the SAME ExecContext, so its memoization cache persists
// across jobs — a candidate any earlier job scored is served from memory,
// and each job's batches keep the shared pool fed.  Sharing is
// free of result skew because memoized entries are bit-identical to
// recomputation (core/evaluator.h): a job's results match a fresh
// in-process run of the same search exactly, byte for byte — the serving
// guarantee tests/test_serve.cpp pins.
//
// Execution is serialized on the worker (the evaluator is coordinator-only
// state); concurrency buys admission, polling and cancellation while a
// search runs, not parallel searches.  serve.batch_occupancy records, per
// job, the fraction of its evaluations the shared cache absorbed.

#include <cstdint>
#include <string>
#include <thread>

#include "core/artifact.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "serve/job_queue.h"
#include "util/exec_context.h"

namespace yoso {
namespace serve {

struct ServiceOptions {
  std::size_t threads = 1;   ///< ExecContext budget shared by all jobs
  bool start_paused = false; ///< queue jobs but do not run until resume()
};

class SearchService {
 public:
  /// Loads + verifies the artifact (ContractViolation on corruption or
  /// version/shape mismatch) and restores any kJobState section —
  /// completed jobs keep their results, interrupted ones re-queue.
  /// The worker thread starts immediately (paused when asked).
  explicit SearchService(const std::string& artifact_path,
                         ServiceOptions options = {});
  ~SearchService();  // stop() + join

  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  /// Validates `spec` cheaply (unknown searcher/reward are rejected here,
  /// before a worker is burned); returns the job id.
  std::uint64_t submit(const JobSpec& spec);

  JobQueue& jobs() { return queue_; }
  const JobQueue& jobs() const { return queue_; }

  void pause() { queue_.pause(); }
  void resume() { queue_.resume(); }

  /// Blocks until the queue is empty and no job is running.
  void wait_idle() const { queue_.wait_idle(); }

  /// Stops the worker after the in-flight job (idempotent; ~SearchService
  /// calls it too).
  void stop();

  /// Writes a full artifact to `path`: every section of the source
  /// artifact copied verbatim plus a fresh kJobState snapshot of the job
  /// table.  A service started on that file resumes where this one stood.
  void snapshot_to(const std::string& path) const;

  /// Metrics exposition: "<name> <value>" lines, name-sorted, histograms
  /// as <name>_count/<name>_sum (the /metrics payload; SERVING.md lists
  /// the serve.* names).
  std::string metrics_text() const;

  const std::string& artifact_path() const { return artifact_path_; }

 private:
  void worker_loop();
  void run_job(const JobRecord& job);

  std::string artifact_path_;
  ArtifactReader reader_;  ///< kept mapped for verbatim snapshot copies
  DesignSpace space_;
  ExecContextPtr exec_;
  FastEvaluator evaluator_;  ///< shared across jobs (worker-only access)
  JobQueue queue_;
  std::thread worker_;
};

/// Cheap admission check for a job spec: false (with `*error` filled when
/// non-null) on an unknown searcher/reward name or a zero count.
bool valid_job_spec(const JobSpec& spec, std::string* error);

/// kJobState codec (exposed for tests).
void encode_job_state(ByteWriter& w, std::uint64_t next_id,
                      const std::vector<JobRecord>& records);
std::vector<JobRecord> decode_job_state(ByteReader& r,
                                        std::uint64_t* next_id);

}  // namespace serve
}  // namespace yoso
