"""Shared configuration for the benchmark suite.

Every benchmark prints, in addition to the pytest-benchmark timing table, the
series the corresponding experiment in EXPERIMENTS.md reports (counts,
speed-up factors, crossover points), so a single
``pytest benchmarks/ --benchmark-only`` run regenerates all reported numbers.

Engine benchmarks additionally record their headline numbers through the
``bench_record`` fixture; at session end the accumulated
``{workload: median seconds (or ratio)}`` mapping is written to
``BENCH_engine.json`` at the repo root — the perf-trajectory file CI uploads
as an artifact so future PRs can compare against it.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import pytest

BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

_RECORDED: dict = {}


def _best_of(run, repeats=3):
    """(best wall-clock over ``repeats`` runs, last result).

    The min damps scheduler/GC noise so wall-clock comparison assertions
    hold on loaded CI runners; pass ``repeats=1`` for expensive baselines
    (noise can only inflate them, never flip a faster-than assertion).
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="session")
def best_of():
    return _best_of


@pytest.fixture(scope="session")
def bench_record():
    """Record ``workload -> value`` into BENCH_engine.json at session end."""

    def record(workload: str, value: float) -> None:
        _RECORDED[workload] = round(float(value), 6)

    return record


@pytest.fixture(scope="session")
def bench_record_samples():
    """Record raw wall-clock ``samples`` of one workload: their median under
    ``workload`` and ``{"n": count, "iqr": interquartile range}`` under
    ``workload + "_spread"`` (a mapping, so the trajectory gate, which reads
    numbers only, reports the median and skips the spread)."""

    def record(workload: str, samples) -> float:
        median = statistics.median(samples)
        quartiles = statistics.quantiles(samples, n=4) if len(samples) > 1 else [median] * 3
        _RECORDED[workload] = round(median, 6)
        _RECORDED[f"{workload}_spread"] = {
            "n": len(samples),
            "iqr": round(quartiles[2] - quartiles[0], 6),
        }
        return median

    return record


def pytest_sessionfinish(session, exitstatus):
    # Failed or -x-aborted runs must not clobber the trajectory file, and a
    # partial run (one benchmark file) merges into the existing mapping
    # instead of dropping every workload it did not execute.
    if not _RECORDED or exitstatus != 0:
        return
    merged = {}
    if BENCH_JSON_PATH.exists():
        try:
            merged = json.loads(BENCH_JSON_PATH.read_text())
        except (ValueError, OSError):
            merged = {}
    merged.update(_RECORDED)
    payload = dict(sorted(merged.items()))
    BENCH_JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nwrote {len(_RECORDED)} workload timings to {BENCH_JSON_PATH} "
        f"({len(payload)} total)"
    )


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="run the benchmark workloads at reduced sizes",
    )


@pytest.fixture(scope="session")
def quick(request):
    return request.config.getoption("--quick")
