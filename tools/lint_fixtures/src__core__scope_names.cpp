// Fixture: a brace scope is named by what it is.  A function is named after
// the first call-like name of its preamble, so a constructor is not named
// after its last member initializer; an if/for/while body, a lambda and a
// braced or default argument are blocks, never functions named after the
// last call before their brace.  The file stands in for
// src/core/scope_names.cpp, so the perf family applies; gp.fit is a real
// profiled span (tools/yoso_hot_profile.json).
#include <memory>
#include <vector>

#define YOSO_TRACE_SPAN(name) (void)0

namespace yoso {

void consume_fx(int);
std::vector<int> prepare_fx(int n);
int total_fx(std::vector<int> parts);
int scratch_fx(int n);

// A spanned constructor with a member-initializer list is named
// ScratchRowsFx::ScratchRowsFx, not prepare_fx.
class ScratchRowsFx {
 public:
  explicit ScratchRowsFx(int n);

 private:
  int n_;
  std::vector<int> rows_;
};

ScratchRowsFx::ScratchRowsFx(int n) : n_(n), rows_(prepare_fx(n)) {
  YOSO_TRACE_SPAN("gp.fit");
  for (int i = 0; i < n_; ++i) {
    auto p = std::make_unique<int>(i);  // expect-lint: hot-alloc
    consume_fx(*p);
  }
}

// Not a violation: only the initializer list above calls prepare_fx, before
// the constructor's span opens, and no hot function calls it.
std::vector<int> prepare_fx(int n) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) {
    auto p = std::make_unique<int>(i);
    out.push_back(*p);
  }
  return out;
}

// Hot through its caller: the constructor's loop sits inside an if body,
// which is a block of TrimFx::TrimFx, not a function named static_cast.
class TrimFx {
 public:
  TrimFx(const std::vector<int>& v, int n);

 private:
  int limit_;
};

TrimFx::TrimFx(const std::vector<int>& v, int n) : limit_(n) {
  if (v.size() > static_cast<unsigned long>(n)) {
    for (int i = 0; i < limit_; ++i) {
      auto p = std::make_unique<int>(i);  // expect-lint: hot-alloc
      consume_fx(*p);
    }
  }
}

void spanned_trim_fx(const std::vector<int>& v, int n) {
  YOSO_TRACE_SPAN("gp.fit");
  const TrimFx trim = TrimFx(v, n);
}

// A `= {}` default argument is a block: the body after it is the
// function's.
struct TrimOptionsFx {
  int stride = 1;
};

void spanned_defaults_fx(int n, const TrimOptionsFx& options = {}) {
  YOSO_TRACE_SPAN("gp.fit");
  for (int i = 0; i < n; i += options.stride) {
    auto p = std::make_unique<int>(i);  // expect-lint: hot-alloc
    consume_fx(*p);
  }
}

// Not a violation: a braced argument is not a function named total_fx, so
// the calls inside it are this cold function's, and scratch_fx stays cold
// however hot total_fx is.
void cold_braced_fx(int n) { consume_fx(total_fx({scratch_fx(n), n})); }

void spanned_total_fx(int n) {
  YOSO_TRACE_SPAN("gp.fit");
  consume_fx(total_fx({n}));
}

int scratch_fx(int n) {
  int acc = 0;
  for (int i = 0; i < n; ++i) {
    auto p = std::make_unique<int>(i);
    acc += *p;
  }
  return acc;
}

}  // namespace yoso
