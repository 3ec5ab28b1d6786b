// Fixture: the hot set is seeded by qualified name.  Two classes define a
// method named `advance_fx`; only ProfiledWalkFx's opens a profiled span
// (sim.network, tools/yoso_hot_profile.json), so only its loop is hot.
// ColdWalkFx's method shares the name but no span and no hot caller, so
// its per-iteration allocation is cold — whether the method is defined in
// its class body or, like the hot one, out of line.
#include <memory>
#include <vector>

#define YOSO_TRACE_SPAN(name) (void)0

namespace yoso {

void consume_fx(int);

class ProfiledWalkFx {
 public:
  void advance_fx(int n);
};

void ProfiledWalkFx::advance_fx(int n) {
  YOSO_TRACE_SPAN("sim.network");
  for (int i = 0; i < n; ++i) {
    auto p = std::make_unique<int>(i);  // expect-lint: hot-alloc
    consume_fx(*p);
  }
}

class ColdWalkFx {
 public:
  // Not a violation: same name as the profiled method, different class.
  void advance_fx(int n) {
    for (int i = 0; i < n; ++i) {
      auto p = std::make_unique<int>(i);
      consume_fx(*p);
    }
  }
  void rewind_fx(int n);
};

class ColdRewindFx {
 public:
  void rewind_fx(int n);
};

// Two same-named out-of-line methods, neither spanned nor called from hot
// code: both stay cold.
void ColdWalkFx::rewind_fx(int n) {
  for (int i = 0; i < n; ++i) {
    std::vector<int> scratch(static_cast<unsigned long>(n));
    consume_fx(static_cast<int>(scratch.size()));
  }
}

void ColdRewindFx::rewind_fx(int n) {
  for (int i = 0; i < n; ++i) {
    auto p = std::make_unique<int>(i);
    consume_fx(*p);
  }
}

}  // namespace yoso
