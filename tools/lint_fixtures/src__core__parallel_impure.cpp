// Fixture: parallel-region purity.  Writes to namespace-scope mutable state
// reachable from a parallel_for body — directly or through the call graph —
// are a data race and make results depend on the thread count.  Finding
// them needs scope classification plus a call-graph walk: one seeded
// violation writes the global directly, one reaches it through two calls,
// and one writes it from a named lambda handed to parallel_for.

namespace yoso {

struct Pool {
  template <typename Fn>
  void parallel_for(unsigned long begin, unsigned long end, Fn&& fn) {
    for (unsigned long i = begin; i < end; ++i) fn(i);
  }
};

namespace {

long g_eval_count = 0;  // namespace-scope mutable state the rule protects

void bump_counter() {
  ++g_eval_count;  // writes the global: directly impure
}

double record_and_scale(double x) {
  bump_counter();  // calls a writer: transitively impure
  return x * 2.0;
}

}  // namespace

double run_batch(Pool& pool, double* out, unsigned long n) {
  if (out == nullptr) return 0.0;
  pool.parallel_for(0, n, [&](unsigned long i) {
    g_eval_count += 1;               // expect-lint: parallel-purity
    out[i] = record_and_scale(1.0);  // expect-lint: parallel-purity
  });
  return static_cast<double>(g_eval_count);
}

// A lambda declared first and passed by name is a parallel_for body too.
double run_batch_named(Pool& pool, double* out, unsigned long n) {
  if (out == nullptr) return 0.0;
  auto body = [&](unsigned long i) {
    g_eval_count += 1;  // expect-lint: parallel-purity
    out[i] = 0.0;
  };
  pool.parallel_for(0, n, body);
  return out[0];
}

// Not a violation: the body writes only caller-owned slots indexed by i —
// the canonical deterministic pattern the evaluator uses.
double run_batch_pure(Pool& pool, double* out, unsigned long n) {
  if (out == nullptr) return 0.0;
  pool.parallel_for(0, n, [&](unsigned long i) {
    out[i] = static_cast<double>(i) * 0.5;
  });
  return out[0];
}

}  // namespace yoso
