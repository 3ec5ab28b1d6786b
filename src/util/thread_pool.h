#pragma once
// Fixed-size worker pool with one primitive: a blocking parallel_for.
//
// The batched evaluation engine (core/evaluator.h) fans read-only GP and
// surrogate predictions out across cores; everything that must stay ordered
// (REINFORCE feedback, finalist offers, trace sampling) happens on the
// calling thread.
//
//   ThreadPool pool(3);                       // 3 workers + the caller
//   pool.parallel_for(0, n, [&](std::size_t i) { out[i] = f(in[i]); });
//
// parallel_for blocks until every index completed; the calling thread
// participates in the work, so ThreadPool(0) is valid and simply runs the
// loop inline — callers never need a serial special case.  The pool holds
// one job slot.  Every caller drains its own job, so a second thread calling
// parallel_for while another job is in flight never waits for it: its job
// takes the slot and idle workers join whichever job the slot holds.  The
// one thing forbidden is calling back into the pool from inside a body
// (ContractViolation; it used to deadlock).  Exceptions thrown by a body are
// captured and the one with the lowest index is rethrown on the caller once
// the job has drained.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "base/thread_annotations.h"

namespace yoso {

class ThreadPool {
 public:
  /// Spawns `workers` threads.  Zero is valid: parallel_for then runs on the
  /// caller only.  A pool sized for a total of T compute threads is
  /// ThreadPool(T - 1), since the caller always participates.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t workers() const { return workers_.size(); }

  /// Runs fn(i) for every i in [begin, end) across the workers and the
  /// calling thread; blocks until all indices are done.  If any invocation
  /// throws, the remaining indices are drained without running the body and
  /// the exception with the lowest index is rethrown on the caller.
  /// Preconditions (ContractViolation otherwise): fn is callable,
  /// begin <= end, and the caller is not inside a body run by this pool.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Maps a user-facing `threads` knob to a worker count for this machine:
  /// 0 means "all hardware threads"; otherwise the request is honoured.
  static std::size_t resolve_threads(std::size_t requested);

 private:
  struct Job;

  void worker_loop();
  void run_job(Job& job) const;

  std::vector<std::thread> workers_;
  bool spin_;  // short pre-sleep spin, pointless on single-core hosts
  // Cached instrument handles (process-lifetime, see MetricsRegistry): the
  // worker loop must not pay a name lookup per job.  All updates are gated
  // on obs::enabled(), so an idle registry costs one relaxed load.
  obs::Counter* obs_jobs_;
  obs::Counter* obs_busy_ns_;
  obs::Counter* obs_idle_ns_;
  obs::Gauge* obs_depth_;
  Mutex mutex_;
  std::condition_variable wake_;  // paired with mutex_
  // The job slot and the shutdown flag — the caller/worker handshake state.
  // A newer job replaces an older one in the slot; the older one's caller
  // still drains it, and clears the slot only if it still holds its job.
  std::shared_ptr<Job> job_ YOSO_GUARDED_BY(mutex_);
  bool stop_ YOSO_GUARDED_BY(mutex_) = false;
  // Bumped on every post; lets workers spin-check for new work without the
  // lock before committing to a condition-variable sleep.
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace yoso
