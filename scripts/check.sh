#!/usr/bin/env bash
# Full local correctness gate — the same sequence CI runs.
#
#   ./scripts/check.sh           # everything: -Werror build, ctest, lint,
#                                # ASan+UBSan ctest
#   ./scripts/check.sh --fast    # skip the sanitizer stage
#   ./scripts/check.sh --tsan    # additionally run the TSan stage
#
# Each gate announces itself when it starts and the script prints a
# per-gate wall-time summary on exit (success or failure), so a slow or
# failing stage is identifiable at a glance.
#
# Build trees are kept under build-check-* so the developer's own build/ is
# never clobbered.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
FAST=0
TSAN=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --tsan) TSAN=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

GATE_NAMES=()
GATE_SECS=()
CURRENT_GATE=""
GATE_T0=0

gate_begin() {
  CURRENT_GATE="$1"
  GATE_T0=$SECONDS
  printf '\n==== gate: %s ====\n' "$1"
}

gate_end() {
  GATE_NAMES+=("$CURRENT_GATE")
  GATE_SECS+=($((SECONDS - GATE_T0)))
  CURRENT_GATE=""
}

print_summary() {
  local status=$?
  printf '\n---- gate wall-time summary ----\n'
  local i
  for i in "${!GATE_NAMES[@]}"; do
    printf '  %-38s %4ds\n' "${GATE_NAMES[$i]}" "${GATE_SECS[$i]}"
  done
  if [ -n "$CURRENT_GATE" ]; then
    printf '  %-38s %4ds  (FAILED here)\n' "$CURRENT_GATE" \
      $((SECONDS - GATE_T0))
  fi
  printf '  %-38s %4ds\n' "total" "$SECONDS"
  if [ "$status" -eq 0 ]; then
    printf '\nAll checks passed.\n'
  else
    printf '\nFAILED (exit %d).\n' "$status"
  fi
}
trap print_summary EXIT

gate_begin "configure + build (-Werror)"
cmake -B build-check -S . -DYOSO_WERROR=ON
cmake --build build-check -j "$JOBS"
gate_end

gate_begin "unit tests (ctest)"
ctest --test-dir build-check -j "$JOBS" --output-on-failure
gate_end

gate_begin "yoso-lint (tree + self-test + headers)"
# yoso-lint splits its exit status: 0 clean, 1 violations in the tree,
# 2 configuration error (missing or broken tools/yoso_layers.json).  The two
# failure modes get different messages so "the tree is dirty" and "the lint
# could not run" never masquerade as each other.
LINT_RC=0
python3 tools/yoso_lint.py --root . \
  --check-headers --cxx "${CXX:-c++}" \
  --json build-check/lint_report.json || LINT_RC=$?
case "$LINT_RC" in
  0) ;;
  1)
    echo "error: yoso-lint found violations (see above; machine-readable" >&2
    echo "report at build-check/lint_report.json)." >&2
    exit 1 ;;
  *)
    echo "error: yoso-lint could not run (exit $LINT_RC): tools/yoso_layers.json" >&2
    echo "is missing or broken (see the message above)." >&2
    exit "$LINT_RC" ;;
esac
gate_end

gate_begin "format + docs gates"
python3 tools/yoso_format.py --root . --check --builtin-only
python3 tools/yoso_docs_check.py .
gate_end

if [ "$FAST" -eq 1 ]; then
  printf '\n(sanitizer gates skipped: --fast)\n'
else
  LONG_PIN='GoldenTest\.DefaultCliRunFullLength'
  gate_begin "ASan+UBSan build and unit tests"
  cmake -B build-check-asan -S . -DYOSO_SANITIZE=address,undefined
  cmake --build build-check-asan -j "$JOBS"
  # The full-length default-run pin takes minutes under a sanitizer; the
  # unit-test gate above runs it.
  ctest --test-dir build-check-asan -j "$JOBS" --output-on-failure \
    -E "$LONG_PIN"
  gate_end

  if [ "$TSAN" -eq 1 ]; then
    gate_begin "TSan build and threaded tests"
    cmake -B build-check-tsan -S . -DYOSO_SANITIZE=thread
    cmake --build build-check-tsan -j "$JOBS"
    # The threaded surfaces: pool, batched evaluator, parallel drivers, the
    # serving daemon's threads, lock primitives, metrics, golden pins.
    ctest --test-dir build-check-tsan -j "$JOBS" --output-on-failure \
      -R 'ThreadPool|Parallel|Evaluator|Batch|ServeIntegration|JobQueueTest|SynchronizedTest|MutexTest|ObsTest|GoldenTest|SearchRefineTest' \
      -E "$LONG_PIN"
    gate_end
  else
    printf '\n(TSan gate skipped: pass --tsan to enable)\n'
  fi
fi
