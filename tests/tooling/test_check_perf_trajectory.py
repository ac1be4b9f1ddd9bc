"""The perf-trajectory gate reads each series' direction from its name.

``benchmarks/check_perf_trajectory.py`` is a script, not a package module,
so it is loaded from its path.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "check_perf_trajectory.py"
_SPEC = importlib.util.spec_from_file_location("check_perf_trajectory", _SCRIPT)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)


def _regressed(workload, old, new):
    regressions, notes = gate.compare({workload: old}, {workload: new}, 0.20)
    assert len(notes) == 1
    return bool(regressions)


@pytest.mark.parametrize(
    "workload",
    [
        "explain_session_s",
        "html_parse_ebay_page_40_ms",
        "fixpoint_same_generation_1500_gen0_passes",
    ],
)
def test_timings_regress_when_they_grow(workload):
    assert _regressed(workload, 1.0, 1.5)
    assert not _regressed(workload, 1.0, 0.5)
    assert not _regressed(workload, 1.0, 1.1)


def test_hit_rates_regress_when_they_shrink():
    assert _regressed("fixpoint_cache_hit_rate", 0.9, 0.5)
    assert not _regressed("fixpoint_cache_hit_rate", 0.5, 0.9)


def test_speed_up_ratios_are_reported_but_never_gated():
    for old, new in ((4.0, 1.0), (1.0, 4.0)):
        regressions, notes = gate.compare({"ltur_speedup_x": old}, {"ltur_speedup_x": new}, 0.20)
        assert regressions == []
        assert len(notes) == 1
    _, notes = gate.compare({"ltur_speedup_x": 4.0}, {"ltur_speedup_x": 1.0}, 0.20)
    assert "informational" in notes[0]
