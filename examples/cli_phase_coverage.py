#!/usr/bin/env python3
"""Phase coverage of traced yoso_cli runs.

Runs yoso_cli twice with --trace-out, once with the default exact
predictor and once with the sparse predictor and online refinement, and
requires phase.build_evaluator and phase.search each to be at least 95%
covered by the spans nested in them on the same thread.  phase.outputs is
left out: it takes about 0.1 ms and opens no child spans.  The sparse run's
one tuned two-target fit must also open ten gp.sparse_panels and ten
gp.sparse_factor spans, one per lengthscale and target, nested in its
gp.sparse_fit span on the same thread.

Usage: cli_phase_coverage.py YOSO_CLI WORK_DIR
"""

import json
import os
import subprocess
import sys
import tempfile

COMMON = ["--samples", "120", "--iterations", "200", "--seed", "3"]
RUNS = {
    "exact": [],
    "sparse-refine": ["--predictor", "sparse", "--inducing-points", "32",
                      "--refine-every", "20"],
}
PHASES = ("phase.build_evaluator", "phase.search")
MIN_COVERED = 0.95
# Spans that must nest in the sparse run's gp.sparse_fit, and how many.
SPARSE_FIT_CHILDREN = {"gp.sparse_panels": 10, "gp.sparse_factor": 10}


def coverage(events, phase):
    """Share of `phase`'s duration under the union of its nested spans."""
    lo = phase["ts"]
    hi = lo + phase["dur"]
    # Timestamps are printed to six significant digits, so a child can
    # appear to start a hair before its parent: clip instead of testing
    # containment.  Ancestors are never shorter than the phase.
    spans = sorted(
        (max(e["ts"], lo), min(e["ts"] + e["dur"], hi))
        for e in events
        if e["tid"] == phase["tid"] and not e["name"].startswith("phase.")
        and e["dur"] < phase["dur"] and e["ts"] < hi
        and e["ts"] + e["dur"] > lo)
    covered = 0.0
    end = lo
    for start, stop in spans:
        if stop > end:
            covered += stop - max(start, end)
            end = stop
    return covered / phase["dur"] if phase["dur"] > 0 else 1.0


def sparse_fit_failures(events):
    """Messages for each SPARSE_FIT_CHILDREN count not met inside the one
    gp.sparse_fit span.  Like coverage(), allow a child to start or end a
    printed-timestamp hair outside its parent."""
    fits = [e for e in events if e["name"] == "gp.sparse_fit"]
    if len(fits) != 1:
        return [f"{len(fits)} gp.sparse_fit spans"]
    fit = fits[0]
    slack = 1e-3 * fit["dur"] + 1.0
    failures = []
    for name, want in SPARSE_FIT_CHILDREN.items():
        spans = [e for e in events if e["name"] == name]
        nested = [e for e in spans
                  if e["tid"] == fit["tid"]
                  and e["ts"] >= fit["ts"] - slack
                  and e["ts"] + e["dur"] <= fit["ts"] + fit["dur"] + slack]
        print(f"sparse-refine: {len(nested)} of {len(spans)} {name} spans "
              f"nested in gp.sparse_fit")
        if len(spans) != want or len(nested) != want:
            failures.append(f"sparse-refine: {len(nested)} of {len(spans)} "
                            f"{name} spans nested in gp.sparse_fit, "
                            f"want {want}")
    return failures


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    cli, work_dir = argv[1], argv[2]
    failures = []
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        for run, extra in RUNS.items():
            trace = os.path.join(tmp, run + ".json")
            subprocess.run([cli, *COMMON, *extra, "--trace-out", trace],
                           check=True, stdout=subprocess.DEVNULL)
            with open(trace, encoding="utf-8") as f:
                events = json.load(f)["traceEvents"]
            for name in PHASES:
                found = [e for e in events if e["name"] == name]
                if len(found) != 1:
                    failures.append(f"{run}: {len(found)} {name} spans")
                    continue
                share = coverage(events, found[0])
                print(f"{run}: {name} {100.0 * share:.2f}% covered by "
                      f"child spans")
                if share < MIN_COVERED:
                    failures.append(f"{run}: {name} is only "
                                    f"{100.0 * share:.2f}% covered")
            if run == "sparse-refine":
                failures.extend(sparse_fit_failures(events))
    for failure in failures:
        print("FAIL: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
