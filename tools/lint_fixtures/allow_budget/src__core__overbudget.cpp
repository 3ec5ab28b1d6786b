// Fixture: the allow() escape hatch is budgeted, not free.  Four
// suppressions live here; the self-test asserts that the default budget of
// three trips (the fourth allow must fail the gate) while an explicit
// budget of four accepts the same tree.  Scanned only by the allow-budget
// self-test, not by the per-fixture expectation loop.

namespace yoso {

struct Blob {
  int value = 0;
};

Blob* g_slots[4];

void fill_slots() {
  g_slots[0] = new Blob;  // yoso-lint: allow(naked-new)
  g_slots[1] = new Blob;  // yoso-lint: allow(naked-new)
  g_slots[2] = new Blob;  // yoso-lint: allow(naked-new)
  g_slots[3] = new Blob;  // yoso-lint: allow(naked-new)
}

}  // namespace yoso
