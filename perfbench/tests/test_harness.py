"""Self-tests of the benchmark harness: statistics, host-speed
normalisation, self time, failure and staleness accounting, and patch
restoration after a traced run."""

from __future__ import annotations

import itertools

import pytest

from perfbench import harness, layers, pace, tracing
from perfbench.tracing import Patch, Tracer

import repro.web.fetcher
from repro.html import parse_html
from repro.server.components import DelivererComponent, EmailDeliverer


# -- percentiles ------------------------------------------------------------
def test_percentile_reports_value_samples_and_tail():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert harness.percentile(values, 95) == (95, 100, 5)
    assert harness.percentile(values, 50) == (50, 100, 50)
    assert harness.percentile(list(range(1, 201)), 95) == (190, 200, 10)


def test_percentile_of_one_sample_and_of_none():
    assert harness.percentile([7.5], 95) == (7.5, 1, 0)
    with pytest.raises(ValueError):
        harness.percentile([], 50)


# -- host-speed normalisation -------------------------------------------------
def _phased_pace():
    """Probes at the reference cost for t = 0..9 s, then twice as slow for
    t = 100..109 s, with one stray slow probe in the first phase."""
    probes = pace.Pace()
    probes.probes = [(float(t), pace.REFERENCE_S) for t in range(10)]
    probes.probes[4] = (4.0, pace.REFERENCE_S * 5)
    probes.probes += [(float(t), pace.REFERENCE_S * 2) for t in range(100, 110)]
    return probes


def test_timings_are_divided_by_the_host_speed_around_them():
    probes = _phased_pace()
    # The same 50 ms of work, once in each phase; the stray probe is outvoted.
    assert probes.normalise([4.0, 105.0], [0.05, 0.10]) == [
        pytest.approx(0.05), pytest.approx(0.05)]
    assert probes.speed_at(4.0) == pace.REFERENCE_S


def test_a_timing_far_from_every_probe_takes_the_nearest():
    probes = _phased_pace()
    assert probes.speed_at(60.0) == pace.REFERENCE_S * 2  # t = 100 is nearest
    with pytest.raises(ValueError):
        pace.Pace().normalise([0.0], [0.1])


def test_window_probes_the_host_and_normalises_every_request():
    window = harness.run_window(_FlakyWorkload(), 0.0, 0, count=6)
    assert len(window.pace.probes) >= 2  # before the first request and after the last
    assert len(window.reference_latencies()) == window.attempted
    assert pace.probe() > 0


# -- self time --------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["parent", 0.0, 10.0, -1, 0],
        ["child", 1.0, 3.0, 0, 0],
        ["child", 2.0, 5.0, 0, 0],  # overlaps the first child: union is [1, 5]
        ["child", 8.0, 12.0, 0, 0],  # clipped to the parent: [8, 10]
        ["grandchild", 1.5, 2.5, 1, 0],  # charged to its parent only
    ]
    own = tracing.self_times(spans)
    assert own == [pytest.approx(4.0), pytest.approx(1.0), 3.0, 4.0, 1.0]
    assert tracing.summarise(spans)["child"] == (3, pytest.approx(8.0))
    assert tracing.root_seconds(spans) == 10.0


def test_union_length_merges_overlaps_and_gaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 1), (3, 4), (0.5, 2)]) == 3.0


def test_tracer_records_nesting_and_request_ids():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return "x"

    traced_inner = tracer.wrap(inner, "inner")
    outer = tracer.wrap(lambda: traced_inner() + traced_inner(), "outer")
    tracer.request_id = 7
    assert outer() == "xx"
    names = [(span[0], span[3], span[4]) for span in tracer.spans]
    assert names == [("outer", -1, 7), ("inner", 0, 7), ("inner", 0, 7)]
    # outer spans clock ticks 0..5, each inner one tick: self = 5 - 2.
    assert tracing.summarise(tracer.spans) == {"outer": (1, 3.0), "inner": (2, 2.0)}


# -- failure and staleness accounting --------------------------------------
class _FlakyWorkload:
    """Fails every third request; counts stale outputs like a server."""

    def __init__(self):
        self.problems = []
        self.checked = []
        self.stale = 0
        self.activations = 0

    def between(self, index):
        pass

    def request(self, index):
        self.activations += 2
        if index % 3 == 2:
            raise RuntimeError("boom")
        if index % 3 == 1:
            self.stale += 1
        return index

    def check(self, index, output):
        self.checked.append(output)

    def counters(self):
        return {"source.activations": self.activations,
                "resilience.stale_served": self.stale}


def test_window_counts_failures_and_stale_outputs():
    workload = _FlakyWorkload()
    window = harness.run_window(workload, 0.0, 0, count=6)
    assert window.attempted == 6
    assert window.failed == 2
    assert harness.ok_share([window]) == pytest.approx(4 / 6)
    assert harness.ok_share([window, harness.Window(latencies=[0.1] * 6)]) == pytest.approx(10 / 12)
    assert window.fresh_share() == pytest.approx(1 - 2 / 12)
    assert workload.checked == [0, 1, 3, 4]
    assert len(workload.problems) == 2
    assert window.throughput_rps > 0


def test_window_without_sources_is_entirely_fresh():
    window = harness.Window(latencies=[0.1, 0.2], failed=0, wall_s=0.3)
    assert harness.ok_share([window]) == 1.0
    assert window.fresh_share() == 1.0


# -- patch restoration -------------------------------------------------------
def _targets():
    return {(id(patch.owner), patch.attribute): getattr(patch.owner, patch.attribute)
            for patch in layers.boundary_patches()}


def test_traced_run_restores_every_wrapped_boundary():
    before = _targets()
    assert "process" not in vars(EmailDeliverer)
    with Tracer() as tracer:
        tracer.install(layers.boundary_patches())
        assert repro.web.fetcher.parse_html is not parse_html
        assert "process" not in vars(EmailDeliverer)  # patched on the base class
        assert EmailDeliverer.process is not before[(id(DelivererComponent), "process")]
    assert _targets() == before
    assert repro.web.fetcher.parse_html is parse_html
    assert "process" not in vars(EmailDeliverer)


def test_inherited_attribute_is_deleted_again_not_pinned():
    class Base:
        def run(self):
            return "base"

    class Child(Base):
        pass

    tracer = Tracer()
    tracer.install([Patch(Child, "run", "child.run")])
    assert "run" in vars(Child)
    assert Child().run() == "base"
    tracer.restore()
    assert "run" not in vars(Child)
    assert len(tracer.spans) == 1


def test_restore_happens_when_the_traced_window_raises():
    before = _targets()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            tracer.install(layers.boundary_patches())
            raise RuntimeError("window failed")
    assert _targets() == before


def test_find_targets_hook_counts_scanned_subtree_nodes():
    document = parse_html("<html><body><p>a</p><p><b>b</b></p></body></html>")
    body = document.find_first("body")
    tracer = Tracer()
    with tracer:
        tracer.install([p for p in layers.boundary_patches() if p.name == "elog.find_targets"])
        from repro.elog.epath import ElementPath

        found = ElementPath.parse("?.p").find_targets(body)
    assert len(found) == 2
    assert tracer.sums["elog.find_targets.returned"] == 2
    assert tracer.sums["elog.find_targets.scanned"] == body.subtree_size() - 1
