#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/contract.h"

namespace yoso {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RespectsBeginOffset) {
  ThreadPool pool(2);
  std::vector<int> marked(20, 0);
  pool.parallel_for(5, 15, [&](std::size_t i) { marked[i] = 1; });
  for (std::size_t i = 0; i < marked.size(); ++i)
    EXPECT_EQ(marked[i], (i >= 5 && i < 15) ? 1 : 0) << "index " << i;
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  std::vector<int> out(64, 0);
  pool.parallel_for(0, out.size(),
                    [&](std::size_t i) { out[i] = static_cast<int>(i); });
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i));
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, 0, [&](std::size_t) { calls.fetch_add(1); });
  pool.parallel_for(7, 7, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ReversedRangeViolatesContract) {
  // A reversed range is an upstream index-arithmetic bug, not an empty
  // loop; parallel_for refuses it instead of silently doing nothing.
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(9, 3, [](std::size_t) {}),
               yoso::ContractViolation);
}

TEST(ThreadPool, EmptyFunctionViolatesContract) {
  ThreadPool pool(1);
  std::function<void(std::size_t)> empty;
  EXPECT_THROW(pool.parallel_for(0, 4, empty), yoso::ContractViolation);
}

TEST(ThreadPool, NestedParallelForViolatesContract) {
  // Before the contract, a nested parallel_for overwrote the in-flight job
  // and deadlocked the outer wait; now the inner call fails fast.
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 8,
                                 [&](std::size_t) {
                                   pool.parallel_for(0, 8, [](std::size_t) {});
                                 }),
               yoso::ContractViolation);
}

TEST(ThreadPool, UsableAgainAfterContractViolation) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 8,
                                 [&](std::size_t) {
                                   pool.parallel_for(0, 8, [](std::size_t) {});
                                 }),
               yoso::ContractViolation);
  std::atomic<int> hits{0};
  pool.parallel_for(0, 16, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 16);
}

TEST(ThreadPool, PropagatesLowestIndexException) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(0, 200, [&](std::size_t i) {
      if (i % 50 == 3) throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // Index 3 throws and is always claimed before the pool drains; higher
    // throwing indices (53, 103, ...) may be skipped but must never win.
    EXPECT_STREQ(e.what(), "boom 3");
  }
}

TEST(ThreadPool, InlineExceptionPropagates) {
  ThreadPool pool(0);
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [](std::size_t i) {
                                   if (i == 4)
                                     throw std::invalid_argument("inline");
                                 }),
               std::invalid_argument);
}

TEST(ThreadPool, UsableAgainAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   0, 32, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> sum{0};
  pool.parallel_for(0, 10,
                    [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, SequentialJobsReuseWorkers) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 17, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 17);
  }
}

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(ThreadPool::resolve_threads(4), 4u);
  EXPECT_EQ(ThreadPool::resolve_threads(1), 1u);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);  // all hardware threads
}

TEST(ThreadPool, ConcurrentCallersEachFinishTheirOwnJob) {
  // Two threads share one pool, as two evaluators sharing an ExecContext
  // from different threads would.  Each caller drains its own job, so both
  // always finish; every index runs exactly once; and a body's exception
  // reaches only the caller whose job threw.  Problems are counted per
  // caller and asserted on the main thread.
  ThreadPool pool(3);
  constexpr int kRounds = 200;
  constexpr std::size_t kCount = 37;
  const auto caller = [&pool](int id, int* problems) {
    const std::string mine = "caller " + std::to_string(id);
    for (int round = 0; round < kRounds; ++round) {
      const bool throws = round % 7 == id;
      std::vector<std::atomic<int>> hits(kCount);
      try {
        pool.parallel_for(0, kCount, [&](std::size_t i) {
          hits[i].fetch_add(1);
          if (throws && i == 5) throw std::runtime_error(mine);
        });
        if (throws) ++*problems;  // the exception went missing
      } catch (const std::runtime_error& e) {
        if (!throws || e.what() != mine) ++*problems;  // someone else's
      }
      for (std::size_t i = 0; i < kCount; ++i) {
        const int h = hits[i].load();
        // After a throw the rest of the job is skipped, never repeated.
        if (throws ? (h > 1 || (i == 5 && h != 1)) : h != 1) ++*problems;
      }
    }
  };
  int problems[2] = {0, 0};
  std::thread a(caller, 0, &problems[0]);
  std::thread b(caller, 1, &problems[1]);
  a.join();
  b.join();
  EXPECT_EQ(problems[0], 0);
  EXPECT_EQ(problems[1], 0);
}

}  // namespace
}  // namespace yoso
