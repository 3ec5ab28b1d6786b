// Fixture: hot-mutex — lock acquisition in worker-role code.  Workers must
// stay lock-free (DESIGN.md §9): a lock inside a parallel_for body (or in
// any function the body calls) serialises the very region the pool exists
// to parallelise.  Worker-region detection uses lambda spans and the call
// graph.  src/base, src/obs and src/util are
// exempt — the pool's own handshake and the obs registries ARE the locks —
// but this fixture maps to src/core where the rule applies in full.
#include <mutex>
#include <vector>

namespace yoso {

struct PoolFx {
  template <typename Fn>
  void parallel_for(unsigned long begin, unsigned long end, Fn&& fn) {
    for (unsigned long i = begin; i < end; ++i) fn(i);
  }
};

struct SharedTallyFx {
  std::mutex mu;
  double sum = 0.0;
};

// Lock taken directly inside the worker lambda body.
void hot_tally_fx(PoolFx& pool, SharedTallyFx& shared,
                  const std::vector<double>& xs) {
  pool.parallel_for(0, xs.size(), [&](unsigned long i) {
    std::lock_guard<std::mutex> g(shared.mu);  // expect-lint: hot-mutex
    shared.sum += xs[i];
  });
}

// The lock hides one call deep — `record_hit_fx` is a transitive
// worker callee.
void record_hit_fx(SharedTallyFx& shared, double x) {
  std::lock_guard<std::mutex> g(shared.mu);  // expect-lint: hot-mutex
  shared.sum += x;
}

void hot_tally_indirect_fx(PoolFx& pool, SharedTallyFx& shared,
                           const std::vector<double>& xs) {
  pool.parallel_for(0, xs.size(), [&](unsigned long i) {
    record_hit_fx(shared, xs[i]);
  });
}

// Not a violation: the coordinator may lock — only worker-role code is
// constrained.  Per-slot accumulation plus a coordinator-side merge is the
// pattern the rule pushes towards.
void coordinator_merge_fx(PoolFx& pool, SharedTallyFx& shared,
                          std::vector<double>& slots) {
  pool.parallel_for(0, slots.size(), [&](unsigned long i) {
    slots[i] *= 2.0;
  });
  std::lock_guard<std::mutex> g(shared.mu);
  for (double s : slots) shared.sum += s;
}

}  // namespace yoso
