// Fixture: the contract-coverage rule.  Public entry points whose raw
// pointer / index parameters reach indexing without a
// YOSO_REQUIRE/YOSO_CHECK/YOSO_DCHECK guard naming them.
//
// Both a one-line definition and a multi-line body are seeded, since the
// rule analyses whole function bodies rather than single lines.  The
// guarded, nullptr-tested and file-local functions further down are the
// negatives.
#include "base/contract.h"

namespace yoso {

double pick(const double* xs, std::size_t i) { return xs[i]; }  // expect-lint: contract-coverage

double nth_entry(const double* vals, std::size_t i) {
  double v = 0.0;
  v = vals[i];  // expect-lint: contract-coverage
  return v;
}

// Not violations below this line. -----------------------------------------

// Guarded: the contract names both parameters before the access.
double nth_checked(const double* vals, std::size_t i, std::size_t n) {
  YOSO_REQUIRE(vals != nullptr && i < n, "nth_checked: bad index ", i);
  return vals[i];
}

// Optional out-parameter: the explicit nullptr test IS the contract.
void maybe_store(double* out, double v) {
  if (out != nullptr) *out = v;
}

// File-local helpers are not public entry points.
static double pick_local(const double* xs, std::size_t i) { return xs[i]; }

double pick_first_local(const double* xs) { return pick_local(xs, 0); }

}  // namespace yoso
