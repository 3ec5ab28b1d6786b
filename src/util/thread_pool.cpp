#include "util/thread_pool.h"

#include <cstdint>
#include <exception>
#include <limits>
#include <utility>

#include "base/contract.h"
#include "base/thread_annotations.h"
#include "obs/timebase.h"

namespace yoso {

namespace {

// Pool whose job body the calling thread is currently inside, if any.  This
// is what makes re-entrant pool use a fail-fast contract instead of a
// deadlock.
thread_local const ThreadPool* tls_in_body = nullptr;

struct BodyScope {
  const ThreadPool* prev;
  explicit BodyScope(const ThreadPool* pool) : prev(tls_in_body) {
    tls_in_body = pool;
  }
  ~BodyScope() { tls_in_body = prev; }
};

constexpr int kSpinIters = 256;

}  // namespace

struct ThreadPool::Job {
  std::size_t begin = 0;
  std::size_t count = 0;
  // The caller's function, alive across the blocking call.  A worker that
  // still holds the job after the caller returned only finds every index
  // claimed, so it never calls through this pointer again.
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};

  // First-failure capture: workers race to record, lowest index wins so the
  // rethrown exception matches what a serial loop would have thrown.
  struct ErrorSlot {
    std::size_t index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
  };
  Synchronized<ErrorSlot> error;

  Mutex mutex;  // pairs with `finished`
  std::condition_variable finished;
};

ThreadPool::ThreadPool(std::size_t workers)
    : spin_(workers > 0 && std::thread::hardware_concurrency() > 1),
      obs_jobs_(&obs::metrics_registry().counter("pool.jobs")),
      obs_busy_ns_(&obs::metrics_registry().counter("pool.worker_busy_ns")),
      obs_idle_ns_(&obs::metrics_registry().counter("pool.worker_idle_ns")),
      obs_depth_(&obs::metrics_registry().gauge("pool.inflight_indices")) {
  // An absurd worker count is always an upstream bug: the pool is sized from
  // hardware_concurrency or a small config knob, never from data.
  YOSO_REQUIRE(workers <= 1024,
               "ThreadPool: unreasonable worker count ", workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::size_t ThreadPool::resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ThreadPool::run_job(Job& job) const {
  BodyScope scope(this);
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.count) return;
    if (!job.failed.load(std::memory_order_relaxed)) {
      try {
        (*job.fn)(job.begin + i);
      } catch (...) {
        job.error.with_lock([&](Job::ErrorSlot& slot) {
          if (job.begin + i < slot.index) {
            slot.index = job.begin + i;
            slot.error = std::current_exception();
          }
        });
        job.failed.store(true, std::memory_order_relaxed);
      }
    }
    if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.count) {
      MutexLock lock(job.mutex);
      job.finished.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t idle_gen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    // Sentinel 0 = "observability was off when the window opened"; a window
    // that straddles a toggle is simply not recorded.
    const std::uint64_t wait_begin = obs::enabled() ? obs::now_ns() : 0;
    // Short spin before committing to a futex sleep: a batch's fork-joins
    // follow each other within microseconds.  Pointless (and harmful) when
    // there is only one core.
    if (spin_) {
      for (int s = 0; s < kSpinIters; ++s) {
        if (generation_.load(std::memory_order_acquire) != idle_gen) break;
        std::this_thread::yield();
      }
    }
    {
      MutexLock lock(mutex_);
      for (;;) {
        if (stop_) return;
        if (job_ != nullptr &&
            job_->next.load(std::memory_order_relaxed) < job_->count) {
          job = job_;
          break;
        }
        idle_gen = generation_.load(std::memory_order_relaxed);
        mutex_.wait(wake_);
      }
    }
    if (wait_begin != 0) obs_idle_ns_->add(obs::now_ns() - wait_begin);
    const std::uint64_t run_begin = obs::enabled() ? obs::now_ns() : 0;
    run_job(*job);
    if (run_begin != 0) obs_busy_ns_->add(obs::now_ns() - run_begin);
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  YOSO_REQUIRE(static_cast<bool>(fn), "ThreadPool::parallel_for: empty fn");
  YOSO_REQUIRE(begin <= end, "ThreadPool::parallel_for: reversed range [",
               begin, ", ", end, ")");
  YOSO_REQUIRE(tls_in_body != this,
               "ThreadPool::parallel_for: re-entrant call from inside a job "
               "body on the same pool (nest work in the body instead)");
  if (end == begin) return;
  const std::size_t count = end - begin;

  if (workers_.empty() || count == 1) {
    // Inline: serial execution, exceptions propagate directly (the first
    // throwing index is necessarily the lowest one).
    BodyScope scope(this);
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  const auto job = std::make_shared<Job>();
  job->begin = begin;
  job->count = count;
  job->fn = &fn;
  if (obs::enabled()) {
    obs_jobs_->add();
    obs_depth_->set(static_cast<double>(count));
  }
  {
    MutexLock lock(mutex_);
    job_ = job;
    generation_.fetch_add(1, std::memory_order_release);
  }
  wake_.notify_all();

  run_job(*job);  // the caller is a worker too
  {
    MutexLock lock(job->mutex);
    while (job->done.load(std::memory_order_acquire) != count)
      job->mutex.wait(job->finished);
  }
  {
    MutexLock lock(mutex_);
    if (job_ == job) job_ = nullptr;
    obs_depth_->set(0.0);
  }
  // Move the exception out of the job so its last reference drops on this
  // thread: a worker may release the job last, and the exception's own
  // refcount (inside libstdc++) is invisible to ThreadSanitizer.
  std::exception_ptr error = job->error.with_lock(
      [](Job::ErrorSlot& slot) { return std::exchange(slot.error, nullptr); });
  if (error) std::rethrow_exception(std::move(error));
}

}  // namespace yoso
