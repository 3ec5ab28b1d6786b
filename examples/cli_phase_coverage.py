#!/usr/bin/env python3
"""Phase coverage of traced yoso_cli runs.

Runs yoso_cli twice with --trace-out, once with the default exact
predictor and once with the sparse predictor and online refinement, and
requires phase.build_evaluator and phase.search each to be at least 95%
covered by the spans nested in them on the same thread.  phase.outputs is
left out: it takes about 0.1 ms and opens no child spans.

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
    for failure in failures:
        print("FAIL: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
