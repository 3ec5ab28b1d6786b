// Fixture: mutable statics inside templates.  The declarations are
// template-local, a shape the v1 suite never covered: each instantiation
// gets its own hidden mutable state, so the reproducibility hazard
// multiplies with the instantiation set.  The immutable statics at the end
// are the negatives.

namespace yoso {

template <typename T>
T accumulate_with_memo(T x) {
  static T memo = T();  // expect-lint: static-state
  memo += x;
  return memo;
}

template <typename T>
struct TicketCounter {
  int next() {
    static int last_issued = 0;  // expect-lint: static-state
    return ++last_issued;
  }
};

// Not violations: immutable template-local data.
template <typename T>
T scaled(T x) {
  static constexpr double kScale = 2.0;
  static const int kOffset = 1;
  return static_cast<T>(x * kScale) + static_cast<T>(kOffset);
}

}  // namespace yoso
