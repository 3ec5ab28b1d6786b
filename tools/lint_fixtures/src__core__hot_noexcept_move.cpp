// Fixture: hot-noexcept-move — a type used on hot paths whose user-declared
// move operation is not `noexcept`.  std::vector only moves elements during
// growth when the move cannot throw; otherwise it copies every element to
// keep the strong exception guarantee.  Connecting a type's special members
// to the hot set needs class spans plus the hot-function index; the
// noexcept and cold types below are the negatives.
#include <string>
#include <vector>

#define YOSO_TRACE_SPAN(name) (void)0

namespace yoso {

// Its move ctor is user-declared but neither noexcept nor defaulted, and
// the type appears in a hot function body below.
class RecordFx {
 public:
  explicit RecordFx(int v) : tag_(static_cast<unsigned long>(v), 'x') {}
  RecordFx(RecordFx&& other);  // expect-lint: hot-noexcept-move
  std::string tag_;
};

// Not a violation: the noexcept move is exactly what vector growth wants.
class SafeRecordFx {
 public:
  explicit SafeRecordFx(int v) : tag_(static_cast<unsigned long>(v), 'x') {}
  SafeRecordFx(SafeRecordFx&& other) noexcept;
  std::string tag_;
};

// Not a violation: throwing move, but nothing hot ever touches it.
class ColdRecordFx {
 public:
  ColdRecordFx(ColdRecordFx&& other);
  std::string tag_;
};

void hot_rotate_fx(std::vector<RecordFx>& items,
                   std::vector<SafeRecordFx>& safe_items) {
  YOSO_TRACE_SPAN("step1.collect_samples");
  items.push_back(RecordFx(3));
  safe_items.push_back(SafeRecordFx(3));
}

void cold_rotate_fx(std::vector<ColdRecordFx>& items) {
  items.push_back(ColdRecordFx(3));
}

}  // namespace yoso
