#pragma once
// Scoped trace spans for the search pipeline (DESIGN.md §13,
// docs/OBSERVABILITY.md).
//
//   void FastEvaluator::evaluate_batch(...) {
//     YOSO_TRACE_SPAN("eval.fast_batch");
//     ...
//   }
//
// Each thread records complete (begin, duration) events into its own
// bounded ring buffer — no cross-thread contention on the hot path — and
// keeps per-name running aggregates (count / total / self time) that are
// exact even after the ring wraps.  Recording only happens while
// obs::enabled() is on; a span constructed while disabled is a single
// relaxed atomic load.
//
// Exports:
//   * write_chrome_trace() — Chrome trace_event JSON ("X" complete events),
//     loadable in chrome://tracing and https://ui.perfetto.dev.
//   * summarize_spans() — merged per-name aggregates, sorted by name
//     (deterministic report ordering, same rule as the metrics snapshot).
//   * render_phase_table() — the plain-text per-phase cost table; rows are
//     the spans named "phase.*" (the top-level phase convention), shown
//     with their share of wall time.
//
// Span naming ("subsystem.operation") and the "phase." prefix convention
// are documented in docs/OBSERVABILITY.md.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace yoso {
namespace obs {

/// Merged per-name totals across every thread that recorded spans.
struct SpanAggregate {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  ///< wall time between begin and end
  std::uint64_t self_ns = 0;   ///< total minus time inside child spans
};

/// Opens a span on the calling thread.  No-op while obs::enabled() is off.
void begin_span(const char* name);

/// Closes the innermost open span, which must carry the same name —
/// ContractViolation otherwise (unbalanced or crossed scopes).  A span
/// opened while tracing was enabled is closed even if tracing was disabled
/// meanwhile, so scopes stay balanced.
void end_span(const char* name);

/// RAII span — the recommended shape (use YOSO_TRACE_SPAN below).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;  // nullptr when tracing was off at construction
};

/// Per-name aggregates merged across threads, sorted by name.
std::vector<SpanAggregate> summarize_spans();

/// Writes every buffered event as Chrome trace_event-format JSON.  Events
/// are ordered by (tid, begin time); timestamps are microseconds relative
/// to the collector epoch, written by write_trace_us().
void write_chrome_trace(std::ostream& os);

/// Writes `ns` nanoseconds as microseconds in fixed notation to the
/// nanosecond ("12345678.901" for 12.345678901 s), whatever the stream's
/// format flags, and leaves those flags as they were.
void write_trace_us(std::ostream& os, std::uint64_t ns);

/// Renders the per-phase cost table from "phase."-prefixed spans: one row
/// per phase with total ms and share of `wall_seconds`, plus the summed
/// coverage line the EXPERIMENTS.md walkthrough checks (phases of a fully
/// instrumented run sum to within ~10% of wall time).
std::string render_phase_table(const std::vector<SpanAggregate>& aggregates,
                               double wall_seconds);

/// Events discarded because a thread's ring filled (aggregates stay exact).
std::size_t trace_events_dropped();

/// Ring capacity (events per thread) for buffers registered after the call.
/// Default 65536.  ContractViolation when `events_per_thread` is 0.
void set_trace_capacity(std::size_t events_per_thread);

/// Clears all buffered events and aggregates.  Every thread must have
/// closed its spans (ContractViolation if any scope is still open).
void reset_tracing();

}  // namespace obs
}  // namespace yoso

#define YOSO_OBS_CONCAT2(a, b) a##b
#define YOSO_OBS_CONCAT(a, b) YOSO_OBS_CONCAT2(a, b)

#define YOSO_TRACE_SPAN(name) \
  ::yoso::obs::TraceSpan YOSO_OBS_CONCAT(yoso_trace_span_, __LINE__)(name)
