// Fixture: hot-alloc — per-iteration heap allocation on a hot path.  The
// file stands in for src/core/hot_alloc.cpp, so the perf family applies.
// The span names are real profiled spans (tools/yoso_hot_profile.json), so
// the functions below are hot with nonzero rank.  The seeded allocations
// cover the one-line loop+allocation shape and allocations on their own
// lines inside a loop body.
#include <memory>
#include <vector>

#define YOSO_TRACE_SPAN(name) (void)0

namespace yoso {

void consume_fx(int);

// Loop head and allocation share a line.
void hot_fill_fx(std::vector<std::unique_ptr<int>>& out, int n) {
  YOSO_TRACE_SPAN("sim.network");
  for (int i = 0; i < n; ++i) { out.push_back(std::make_unique<int>(i)); }  // expect-lint: hot-alloc
}

// The allocation sits on its own line inside the loop body; the loop is
// found through the function's brace structure.
void hot_scratch_fx(int n) {
  YOSO_TRACE_SPAN("sim.network");
  for (int i = 0; i < n; ++i) {
    auto p = std::make_unique<int>(i);  // expect-lint: hot-alloc
    consume_fx(*p);
  }
}

// A std::vector constructed per iteration re-allocates its
// buffer every pass.
void hot_rows_fx(int n, int dim) {
  YOSO_TRACE_SPAN("gp.fit");
  for (int i = 0; i < n; ++i) {
    std::vector<double> row(static_cast<unsigned long>(dim));  // expect-lint: hot-alloc
    consume_fx(static_cast<int>(row.size()));
  }
}

// Growth with no dominating reserve before the loop.
void hot_grow_fx(std::vector<int>& acc, int n) {
  YOSO_TRACE_SPAN("gp.fit");
  for (int i = 0; i < n; ++i) {
    acc.push_back(i);  // expect-lint: hot-alloc
  }
}

// Not a violation: the reserve before the loop caps reallocation.
void hot_grow_capped_fx(std::vector<int>& acc, int n) {
  YOSO_TRACE_SPAN("gp.fit");
  acc.reserve(acc.size() + static_cast<unsigned long>(n));
  for (int i = 0; i < n; ++i) {
    acc.push_back(i);
  }
}

// Not a violation: this function opens no span and is not reachable from
// any profiled one, so its per-iteration allocation is cold.
void cold_prepare_fx(int n) {
  for (int i = 0; i < n; ++i) {
    auto p = std::make_unique<int>(i);
    consume_fx(*p);
  }
}

}  // namespace yoso
