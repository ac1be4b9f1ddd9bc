"""Compile-once rule plans on wide, non-tree workloads.

The plan layer (repro/datalog/plan.py) compiles each rule once, memoises
join orders per size bucket and runs specialised executor closures over
columnar storage.  These benchmarks time it on the ROADMAP's wider
workloads — deep-recursion graph reachability at 10^5+ edges and the
classic same-generation program — and check that bucket memoisation keeps
the number of compiled join plans small.  Headline numbers (median
seconds) land in BENCH_engine.json.

The ``tree_view_*`` series times one same-generation query over a document
(fixpoint plus reading the answer) through the engine's document path,
``fixpoint(document)``, against the plain-database path,
``fixpoint(tree_database(document))``, at 300 and 1500 nodes.

``explain_session_s`` times one ``Session.explain`` over a 61-rule chain:
the same plan compiler run over estimated sizes instead of live ones.
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

from repro import Session
from repro.analysis.explain import ExplainReport
from repro.bench import scaling_tree
from repro.datalog import SemiNaiveEngine, parse_program, tree_database

REACH_PROGRAM_TEXT = """
reach(Y) :- source(X), edge(X, Y).
reach(Y) :- reach(X), edge(X, Y).
"""

SG_PROGRAM_TEXT = """
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP).
"""


def _chain_reach_workload(length):
    """Single-source reachability over a chain: one new fact per iteration —
    the purest deep-recursion / allocator-pressure shape."""
    program = parse_program(REACH_PROGRAM_TEXT)
    database = {"edge": {(i, i + 1) for i in range(length)}, "source": {(0,)}}
    return program, database


def _random_reach_workload(edge_count, seed=7):
    """Reachability over a 90%-chain / 10%-random graph at ``edge_count``
    edges: still recursion-deep, with wider deltas."""
    chain_length = (edge_count * 9) // 10
    node_count = edge_count + edge_count // 5
    rng = random.Random(seed)
    edges = {(i, i + 1) for i in range(chain_length)}
    while len(edges) < edge_count:
        edges.add((rng.randrange(node_count), rng.randrange(node_count)))
    program = parse_program(REACH_PROGRAM_TEXT)
    return program, {"edge": edges, "source": {(0,)}}


def _same_generation_workload(depth):
    """sg over a balanced binary tree of the given depth (non-tree-shaped
    IDB: sg is binary and quadratic in the leaves)."""
    parent = set()
    sibling = set()
    nodes = [0]
    next_id = 1
    for _ in range(depth):
        grown = []
        for node in nodes:
            left, right = next_id, next_id + 1
            next_id += 2
            parent.add((left, node))
            parent.add((right, node))
            sibling.add((left, right))
            grown.extend((left, right))
        nodes = grown
    program = parse_program(SG_PROGRAM_TEXT)
    return program, {"parent": parent, "sibling": sibling}


def _samples(run, repeats=3):
    """All wall-clock samples plus the last result."""
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
    return times, result


def _measure(program, database, bench_record, name):
    engine = SemiNaiveEngine(program)
    times, result = _samples(lambda: engine.evaluate(database))
    bench_record(f"{name}_planned_s", statistics.median(times))
    print(f"\n{name}: planned {statistics.median(times):.4f} s (median of {len(times)})")
    return result


def test_planned_deep_chain_reachability(quick, bench_record):
    length = 20_000 if quick else 100_000
    program, database = _chain_reach_workload(length)
    result = _measure(program, database, bench_record, f"reach_chain_{length}")
    assert len(result["reach"]) == length


def test_planned_same_generation(quick, bench_record):
    depth = 6 if quick else 8
    program, database = _same_generation_workload(depth)
    result = _measure(program, database, bench_record, f"same_generation_depth_{depth}")
    assert result["sg"]  # sanity: the recursion actually fired


def test_planned_random_graph_reachability(quick, bench_record):
    edge_count = 20_000 if quick else 100_000
    program, database = _random_reach_workload(edge_count)
    result = _measure(program, database, bench_record, f"reach_random_{edge_count}")
    assert len(result["reach"]) > edge_count // 2


TREE_SG_PROGRAM_TEXT = """
sg(X, Y) :- child(P, X), child(P, Y).
sg(X, Y) :- child(XP, X), sg(XP, YP), child(YP, Y).
"""


@pytest.mark.parametrize("size", [300, 1500])
def test_tree_view_same_generation(quick, bench_record, bench_record_samples, size):
    document = scaling_tree(size, seed=size)
    engine = SemiNaiveEngine(parse_program(TREE_SG_PROGRAM_TEXT))
    sources = {
        "document": lambda: document,
        "database": lambda: tree_database(document),
    }
    samples = {path: [] for path in sources}
    answers = {}
    # Alternate the two paths so drift on a shared host hits both alike;
    # each pass starts from an empty fixpoint cache.
    for _ in range(5 if quick else 15):
        for path, source in sources.items():
            engine.clear_fixpoint_cache()
            start = time.perf_counter()
            answers[path] = engine.fixpoint(source()).query("sg")
            samples[path].append(time.perf_counter() - start)
    assert answers["document"] == answers["database"]
    medians = {
        path: bench_record_samples(f"tree_view_{size}_{path}_s", times)
        for path, times in samples.items()
    }
    bench_record(f"tree_view_{size}_speedup_x", medians["database"] / medians["document"])
    print(
        f"\ntree_view {size} nodes: document {medians['document'] * 1000:.1f} ms, "
        f"tree_database {medians['database'] * 1000:.1f} ms "
        f"(medians of {len(samples['document'])})"
    )


def test_plan_cache_stays_small_across_fixpoint():
    # Bucket memoisation: a 100k-iteration fixpoint must compile only a
    # handful of join plans per rule (one per crossed size bucket), not one
    # per iteration.
    program, database = _chain_reach_workload(5_000)
    engine = SemiNaiveEngine(program)
    engine.evaluate(database)
    plan_counts = engine.plan_memo_counts()
    assert 0 < max(plan_counts) <= 32
    print(f"\ncompiled join plans per rule: {plan_counts}")


def _explain_chain_program(chain=30):
    """A long TMNF-style chain: many rules, so per-rule plan compilation
    dominates explain."""
    lines = [
        "p0(X) :- e(X, X).",
        "tc(X, Y) :- e(X, Y).",
        "tc(X, Y) :- e(X, Z), tc(Z, Y).",
    ]
    for i in range(1, chain):
        lines.append(f"p{i}(Y) :- p{i - 1}(X), e(X, Y).")
        lines.append(f"p{i}(Y) :- p{i - 1}(X), f(X, Y).")
    return parse_program("\n".join(lines))


def test_session_explain_latency_and_determinism(bench_record):
    program = _explain_chain_program()
    text = "\n".join(str(rule) for rule in program.rules)
    session = Session()
    start = time.perf_counter()
    report = session.explain(text)
    elapsed = time.perf_counter() - start
    assert isinstance(report, ExplainReport)
    # Deterministic rendering: a second (cached) call renders identically.
    assert report.render("chain") == session.explain(text).render("chain")
    bench_record("explain_session_s", elapsed)
    print(f"\nSession.explain over {len(program.rules)} rules: {elapsed:.4f}s")


@pytest.mark.benchmark(group="rule-plans")
def test_benchmark_planned_chain_reach(benchmark):
    program, database = _chain_reach_workload(10_000)
    engine = SemiNaiveEngine(program)
    benchmark(engine.evaluate, database)
