"""Perf-trajectory gate: fail CI on >20% regression against the previous run.

Compares two ``BENCH_engine.json`` files (workload -> median seconds, or a
ratio for ``*_x`` speed-ups and ``*_rate`` hit rates) and exits non-zero when
a gated workload regressed beyond the threshold:

* ``*_s`` workloads are timings (medians of repeated passes) — regression
  means the current value grew;
* ``*_rate`` workloads are hit rates (deterministic for a given workload) —
  regression means the current value shrank;
* ``*_x`` speed-up factors are the ratio of two wall-clocks — the noisiest
  statistic by construction, so they are *reported* with the same
  up/down annotation but never fail the gate (their numerator and
  denominator timings are gated individually anyway);
* thread-scheduling workloads (the ``session_concurrency_*`` storm and the
  ``extract_many_parallel_*`` pool timings of
  ``bench_session_concurrency.py``) are gated at **twice** the threshold:
  their medians ride on OS scheduling and pool spin-up, which jitters far
  beyond single-threaded evaluation on shared CI runners.

Workloads present on only one side are reported but never fail the gate
(benchmarks come and go across PRs — new concurrency workloads appear as
report-only notes on their first run).  Usage::

    python benchmarks/check_perf_trajectory.py BASELINE.json CURRENT.json \
        [--threshold 0.20]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple


def load(path: str) -> Dict[str, float]:
    payload = json.loads(Path(path).read_text())
    return {
        workload: float(value)
        for workload, value in payload.items()
        if isinstance(value, (int, float))
    }


#: Workload families whose timings depend on OS thread scheduling; their
#: effective threshold is doubled (see module docstring).
NOISY_PREFIXES: Tuple[str, ...] = (
    "session_concurrency_",
    "extract_many_parallel_",
    "distrib_",
)


def workload_threshold(workload: str, threshold: float) -> float:
    """The effective regression threshold for one workload."""
    if workload.startswith(NOISY_PREFIXES):
        return threshold * 2.0
    return threshold


def compare(
    baseline: Dict[str, float], current: Dict[str, float], threshold: float
) -> Tuple[List[str], List[str]]:
    """Return (regressions, notes); the gate fails iff regressions is non-empty."""
    regressions: List[str] = []
    notes: List[str] = []
    for workload in sorted(set(baseline) | set(current)):
        if workload not in baseline:
            notes.append(f"new workload {workload}: {current[workload]:.6f}")
            continue
        if workload not in current:
            notes.append(f"workload {workload} no longer measured")
            continue
        old, new = baseline[workload], current[workload]
        lower_is_better = workload.endswith("_s")
        gated = not workload.endswith("_x")
        effective = workload_threshold(workload, threshold)
        if old <= 0:
            notes.append(f"{workload}: non-positive baseline {old}; skipped")
            continue
        change = (new - old) / old
        direction = "slower" if lower_is_better else "lower"
        worse = change > effective if lower_is_better else change < -effective
        status = "worse" if worse else "ok"
        if worse and not gated:
            status = "worse (informational: speed-up ratios are not gated)"
        if effective != threshold:
            status += f" [thread-noisy: threshold {effective:.0%}]"
        notes.append(f"{workload}: {old:.6f} -> {new:.6f} ({change:+.1%}, {status})")
        if worse and gated:
            regressions.append(
                f"{workload} is {abs(change):.1%} {direction} "
                f"({old:.6f} -> {new:.6f}, threshold {effective:.0%})"
            )
    return regressions, notes


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="previous run's BENCH_engine.json")
    parser.add_argument("current", help="this run's BENCH_engine.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed fractional regression per workload (default 0.20)",
    )
    args = parser.parse_args(argv)
    regressions, notes = compare(
        load(args.baseline), load(args.current), args.threshold
    )
    print("perf trajectory:")
    for note in notes:
        print(f"  {note}")
    if regressions:
        print(f"\nFAIL: {len(regressions)} workload(s) regressed >" f"{args.threshold:.0%}:")
        for regression in regressions:
            print(f"  {regression}")
        return 1
    print("\nOK: no workload regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
