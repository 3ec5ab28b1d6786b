#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <vector>

#include "obs/timebase.h"
#include "base/contract.h"
#include "base/thread_annotations.h"

namespace yoso {
namespace obs {
namespace {

constexpr std::size_t kDefaultRingCapacity = 65536;

/// One completed span occurrence.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t begin_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// An open scope on a thread's span stack.
struct OpenSpan {
  const char* name = nullptr;
  std::uint64_t begin_ns = 0;
  std::uint64_t child_ns = 0;  // accumulated duration of closed children
};

struct SpanStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Per-thread recording state.  begin/end run on the owning thread; the
/// exporter reads from another thread after the workload quiesced, so all
/// shared fields sit under the buffer's own (uncontended) mutex.
class ThreadBuffer {
 public:
  ThreadBuffer(std::uint32_t tid, std::size_t capacity)
      : tid_(tid), capacity_(capacity) {
    ring_.reserve(std::min<std::size_t>(capacity, 1024));
  }

  std::uint32_t tid() const { return tid_; }

  void begin(const char* name) {
    MutexLock lock(mutex_);
    stack_.push_back({name, now_ns(), 0});
  }

  void end(const char* name) {
    const std::uint64_t now = now_ns();
    MutexLock lock(mutex_);
    YOSO_REQUIRE(!stack_.empty(), "end_span(\"", name,
                 "\"): no span is open on this thread");
    const OpenSpan top = stack_.back();
    YOSO_REQUIRE(std::strcmp(top.name, name) == 0, "end_span(\"", name,
                 "\"): innermost open span is \"", top.name,
                 "\" — spans must close in strict LIFO order");
    stack_.pop_back();
    const std::uint64_t dur = now - top.begin_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    SpanStats& agg = stats_[top.name];
    agg.count += 1;
    agg.total_ns += dur;
    agg.self_ns += dur - std::min(dur, top.child_ns);
    push_event({top.name, top.begin_ns, dur});
  }

  std::size_t open_depth() const {
    MutexLock lock(mutex_);
    return stack_.size();
  }

  /// Events in recording order (oldest surviving first).
  std::vector<TraceEvent> events() const {
    MutexLock lock(mutex_);
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    if (ring_.size() < capacity_) {
      out.assign(ring_.begin(), ring_.end());
    } else {
      out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_),
                 ring_.end());
      out.insert(out.end(), ring_.begin(),
                 ring_.begin() + static_cast<std::ptrdiff_t>(next_));
    }
    return out;
  }

  /// Merges this thread's per-name aggregates into `into` (keyed by name
  /// text, so identical names from different threads combine).
  void merge_stats(std::map<std::string, SpanStats>& into) const {
    MutexLock lock(mutex_);
    for (const auto& [name, s] : stats_) {
      SpanStats& dst = into[name];
      dst.count += s.count;
      dst.total_ns += s.total_ns;
      dst.self_ns += s.self_ns;
    }
  }

  std::size_t dropped() const {
    MutexLock lock(mutex_);
    return dropped_;
  }

  /// Clears events and aggregates; the span stack must be empty.
  void reset() {
    MutexLock lock(mutex_);
    YOSO_REQUIRE(stack_.empty(),
                 "reset_tracing: a span is still open on thread ", tid_);
    ring_.clear();
    next_ = 0;
    dropped_ = 0;
    stats_.clear();
  }

 private:
  void push_event(const TraceEvent& e) YOSO_REQUIRES(mutex_) {
    if (ring_.size() < capacity_) {
      ring_.push_back(e);
      return;
    }
    // Ring full: overwrite the oldest event (Chrome-tracing convention —
    // keep the most recent window); aggregates above already counted it.
    ring_[next_] = e;
    next_ = (next_ + 1) % capacity_;
    ++dropped_;
  }

  const std::uint32_t tid_;
  const std::size_t capacity_;
  mutable Mutex mutex_;
  std::vector<OpenSpan> stack_ YOSO_GUARDED_BY(mutex_);
  std::vector<TraceEvent> ring_ YOSO_GUARDED_BY(mutex_);
  std::size_t next_ YOSO_GUARDED_BY(mutex_) = 0;  // oldest slot once full
  std::size_t dropped_ YOSO_GUARDED_BY(mutex_) = 0;
  // Keyed by name pointer (string literals): cheap on the hot path.  The
  // merge step re-keys by name *text*, so the pointer order here never
  // reaches any report.
  std::map<const char*, SpanStats> stats_ YOSO_GUARDED_BY(mutex_);
};

/// Owns every thread's buffer.  Buffers outlive their threads (pool resizes
/// retire workers) so late exports still see their events.
class TraceCollector {
 public:
  TraceCollector() : epoch_ns_(now_ns()) {}

  static TraceCollector& instance() {
    // Process-wide by design, like the metrics registry (DESIGN.md §13).
    static TraceCollector collector;
    return collector;
  }

  ThreadBuffer& buffer_for_this_thread() {
    // One ring per thread: registration is the only locked step, every
    // begin/end after that touches only this thread's buffer.
    thread_local ThreadBuffer* buffer =
        nullptr;
    if (buffer == nullptr) {
      MutexLock lock(mutex_);
      buffers_.push_back(std::make_unique<ThreadBuffer>(
          static_cast<std::uint32_t>(buffers_.size()), capacity_));
      buffer = buffers_.back().get();
    }
    return *buffer;
  }

  std::uint64_t epoch_ns() const { return epoch_ns_; }

  void set_capacity(std::size_t events) {
    YOSO_REQUIRE(events > 0, "set_trace_capacity: capacity must be > 0");
    MutexLock lock(mutex_);
    capacity_ = events;
  }

  /// Runs fn on every registered buffer, in registration (tid) order.
  /// Lock order is collector mutex → buffer mutex everywhere, so fn may
  /// take the buffer's own lock.
  template <typename Fn>
  void for_each_buffer(Fn&& fn) {
    MutexLock lock(mutex_);
    for (const auto& b : buffers_) fn(*b);
  }

 private:
  const std::uint64_t epoch_ns_;
  mutable Mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_
      YOSO_GUARDED_BY(mutex_);
  std::size_t capacity_ YOSO_GUARDED_BY(mutex_) = kDefaultRingCapacity;
};

std::string json_quote(const char* s) {
  std::string q = "\"";
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') q += '\\';
    q += *s;
  }
  return q + "\"";
}

}  // namespace

void begin_span(const char* name) {
  if (!enabled()) return;
  TraceCollector::instance().buffer_for_this_thread().begin(name);
}

void end_span(const char* name) {
  ThreadBuffer& b = TraceCollector::instance().buffer_for_this_thread();
  // A begin/end pair issued entirely while tracing is off balances to a
  // no-op; an end with tracing on and nothing open is a contract violation.
  if (!enabled() && b.open_depth() == 0) return;
  b.end(name);
}

TraceSpan::TraceSpan(const char* name) : name_(nullptr) {
  if (!enabled()) return;
  name_ = name;
  TraceCollector::instance().buffer_for_this_thread().begin(name);
}

TraceSpan::~TraceSpan() {
  // Closed even if tracing was disabled mid-span, so scopes stay balanced.
  if (name_ != nullptr)
    TraceCollector::instance().buffer_for_this_thread().end(name_);
}

std::vector<SpanAggregate> summarize_spans() {
  std::map<std::string, SpanStats> merged;
  TraceCollector::instance().for_each_buffer(
      [&merged](const ThreadBuffer& b) { b.merge_stats(merged); });
  std::vector<SpanAggregate> out;
  out.reserve(merged.size());
  for (const auto& [name, s] : merged)  // std::map: name-sorted
    out.push_back({name, s.count, s.total_ns, s.self_ns});
  return out;
}

void write_trace_us(std::ostream& os, std::uint64_t ns) {
  // Integer digits, so no value rounds and the stream's flags stay unused.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03" PRIu64, ns / 1000,
                ns % 1000);
  os << buf;
}

void write_chrome_trace(std::ostream& os) {
  TraceCollector& collector = TraceCollector::instance();
  const std::uint64_t epoch = collector.epoch_ns();
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  collector.for_each_buffer([&](const ThreadBuffer& b) {
    for (const TraceEvent& e : b.events()) {
      os << (first ? "\n" : ",\n") << "  {\"name\": " << json_quote(e.name)
         << ", \"cat\": \"yoso\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
         << b.tid()
         << ", \"ts\": ";
      write_trace_us(os, e.begin_ns - epoch);
      os << ", \"dur\": ";
      write_trace_us(os, e.dur_ns);
      os << "}";
      first = false;
    }
  });
  os << "\n]}\n";
}

std::string render_phase_table(const std::vector<SpanAggregate>& aggregates,
                               double wall_seconds) {
  std::ostringstream os;
  os << "per-phase cost (spans named phase.*):\n";
  os << "  phase                        total ms     % wall\n";
  double covered_ms = 0.0;
  const double wall_ms = wall_seconds * 1e3;
  for (const SpanAggregate& a : aggregates) {
    if (a.name.rfind("phase.", 0) != 0) continue;
    const double ms = static_cast<double>(a.total_ns) / 1e6;
    covered_ms += ms;
    char line[128];
    std::snprintf(line, sizeof(line), "  %-28s %9.2f   %7.1f%%\n",
                  a.name.c_str() + std::strlen("phase."), ms,
                  wall_ms > 0.0 ? 100.0 * ms / wall_ms : 0.0);
    os << line;
  }
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "  %-28s %9.2f   %7.1f%%  (wall %.2f ms)\n", "[sum]",
                covered_ms, wall_ms > 0.0 ? 100.0 * covered_ms / wall_ms : 0.0,
                wall_ms);
  os << tail;
  return os.str();
}

std::size_t trace_events_dropped() {
  std::size_t dropped = 0;
  TraceCollector::instance().for_each_buffer(
      [&dropped](const ThreadBuffer& b) { dropped += b.dropped(); });
  return dropped;
}

void set_trace_capacity(std::size_t events_per_thread) {
  TraceCollector::instance().set_capacity(events_per_thread);
}

void reset_tracing() {
  TraceCollector::instance().for_each_buffer(
      [](ThreadBuffer& b) { b.reset(); });
}

}  // namespace obs
}  // namespace yoso
