"""Experiment E5 (Theorem 2.5): tree automata vs their monadic datalog
compilation — same answers, comparable (linear) scaling."""

from __future__ import annotations

import time

import pytest

from repro.automata import compile_automaton, leaf_selector_automaton
from repro.bench import scaling_tree
from repro.mdatalog import MonadicTreeEvaluator

LABELS = ("a", "b", "c")
# The compiled program's TMNF rewrite derives a few dozen atoms per node on
# the trigger-table worklist, so the series could go further; it stops at
# 4k nodes to keep the quick pass short (the pytest-benchmark entries below
# exercise 8k nodes).
SIZES = (1_000, 2_000, 4_000)


def test_automaton_and_compiled_program_scale_together(bench_record):
    automaton = leaf_selector_automaton(LABELS)
    program = compile_automaton(automaton, LABELS)
    evaluator = MonadicTreeEvaluator(program)
    rows = []
    for size in SIZES:
        document = scaling_tree(size, seed=61, labels=LABELS)
        start = time.perf_counter()
        direct = automaton.select(document)
        direct_time = time.perf_counter() - start
        start = time.perf_counter()
        compiled = evaluator.select(document, "selected")
        compiled_time = time.perf_counter() - start
        assert [n.preorder_index for n in direct] == [n.preorder_index for n in compiled]
        bench_record(f"e5_compiled_{size}_s", compiled_time)
        rows.append((size, direct_time, compiled_time))
    print("\nE5  automaton run vs compiled monadic datalog (leaf-selector query)")
    print(f"{'|dom|':>8} {'automaton s':>13} {'datalog s':>12}")
    for size, direct_time, compiled_time in rows:
        print(f"{size:>8} {direct_time:>13.4f} {compiled_time:>12.4f}")
    # both scale roughly linearly: 4x the input should stay well below a
    # quadratic blow-up (which would be 16x).
    assert rows[-1][1] < max(rows[0][1], 1e-4) * 12
    assert rows[-1][2] < max(rows[0][2], 1e-4) * 12


@pytest.mark.benchmark(group="E5-automata")
def test_benchmark_direct_automaton(benchmark):
    automaton = leaf_selector_automaton(LABELS)
    document = scaling_tree(8_000, seed=62, labels=LABELS)
    benchmark(automaton.select, document)


@pytest.mark.benchmark(group="E5-automata")
def test_benchmark_compiled_program(benchmark):
    automaton = leaf_selector_automaton(LABELS)
    program = compile_automaton(automaton, LABELS)
    document = scaling_tree(8_000, seed=62, labels=LABELS)
    # Fresh evaluator per round: a reused one would time its fingerprint LRU.
    benchmark(lambda: MonadicTreeEvaluator(program).evaluate(document))
