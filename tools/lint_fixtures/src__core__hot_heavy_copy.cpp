// Fixture: hot-heavy-copy — heavy values copied on a hot path: a
// heavy-typed range-for element, a by-value parameter, an `auto` element
// copy and a loop-body copy-init, found through function spans and
// declaration tracking.
#include <string>
#include <vector>

#define YOSO_TRACE_SPAN(name) (void)0

namespace yoso {

struct Matrix {
  std::vector<double> data;
};

void consume_copy_fx(double);

// An explicitly heavy-typed range-for element without `&`.
double hot_row_sums_fx(const std::vector<std::vector<double>>& rows) {
  YOSO_TRACE_SPAN("sim.network");
  double acc = 0.0;
  for (std::vector<double> row : rows) {  // expect-lint: hot-heavy-copy
    acc += row.empty() ? 0.0 : row.front();
  }
  return acc;
}

// A hot function taking a heavy argument by value.
double hot_mean_fx(std::vector<double> values) {  // expect-lint: hot-heavy-copy
  YOSO_TRACE_SPAN("gp.fit");
  double acc = 0.0;
  for (double v : values) acc += v;
  return values.empty() ? 0.0 : acc / static_cast<double>(values.size());
}

// `auto` hides the heavy element type; the linter resolves it through the
// container declaration.
double hot_name_lengths_fx() {
  YOSO_TRACE_SPAN("gp.fit");
  std::vector<std::string> names_fx = {"a", "b"};
  double acc = 0.0;
  for (auto name : names_fx) {  // expect-lint: hot-heavy-copy
    acc += static_cast<double>(name.size());
  }
  return acc;
}

// Copy-initialising a matrix-like value from an lvalue inside a
// hot loop.
void hot_panel_fx(const Matrix& src, int n) {
  YOSO_TRACE_SPAN("sim.network");
  for (int i = 0; i < n; ++i) {
    const Matrix panel = src;  // expect-lint: hot-heavy-copy
    consume_copy_fx(static_cast<double>(panel.data.size()));
  }
}

// Not a violation: by-value + std::move is the sink idiom — the caller's
// copy is the only one, exactly what pass-by-const-ref + copy would cost.
struct TagFx {
  explicit TagFx(std::string label) : label_(std::move(label)) {
    YOSO_TRACE_SPAN("sim.network");
  }
  std::string label_;
};

void hot_make_tag_fx() {
  YOSO_TRACE_SPAN("sim.network");
  TagFx t("hot");
  consume_copy_fx(static_cast<double>(t.label_.size()));
}

// Not a violation: the reference loop is the fix the rule asks for.
double hot_row_sums_ref_fx(const std::vector<std::vector<double>>& rows) {
  YOSO_TRACE_SPAN("sim.network");
  double acc = 0.0;
  for (const std::vector<double>& row : rows) {
    acc += row.empty() ? 0.0 : row.front();
  }
  return acc;
}

}  // namespace yoso
