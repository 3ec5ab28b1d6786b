// Fixture: hot-virtual — virtual dispatch inside a hot INNER loop (nesting
// depth >= 2).  A per-batch virtual call amortises over the elements it
// dispatches for; a per-element one pays the indirect branch every time.
// The rule needs function spans, loop nesting and the virtual-vs-plain
// declaration index.
#include <vector>

#define YOSO_TRACE_SPAN(name) (void)0

namespace yoso {

struct ModelFx {
  virtual ~ModelFx() = default;
  virtual double score_one_fx(double x) const = 0;
  double scale_fx(double x) const { return x * 2.0; }
};

// Per-element dispatch in the inner loop.
double hot_score_all_fx(const ModelFx& m,
                        const std::vector<std::vector<double>>& rows) {
  YOSO_TRACE_SPAN("eval.pipeline");
  double acc = 0.0;
  for (const std::vector<double>& row : rows) {
    for (double v : row) {
      acc += m.score_one_fx(v);  // expect-lint: hot-virtual
    }
  }
  return acc;
}

// Not a violation: depth-1 dispatch is per-batch and amortises.
double hot_score_rows_fx(const ModelFx& m,
                         const std::vector<std::vector<double>>& rows) {
  YOSO_TRACE_SPAN("eval.pipeline");
  double acc = 0.0;
  for (const std::vector<double>& row : rows) {
    acc += m.score_one_fx(row.empty() ? 0.0 : row.front());
  }
  return acc;
}

// Not a violation: `scale_fx` has a plain declaration, so the call is not
// unambiguously virtual dispatch.
double hot_scale_all_fx(const ModelFx& m,
                        const std::vector<std::vector<double>>& rows) {
  YOSO_TRACE_SPAN("eval.pipeline");
  double acc = 0.0;
  for (const std::vector<double>& row : rows) {
    for (double v : row) {
      acc += m.scale_fx(v);
    }
  }
  return acc;
}

}  // namespace yoso
