"""Experiment E3 (Theorem 2.4): monadic datalog over trees scales as
O(|P| * |dom|).

The benchmark measures the implicit-grounding + LTUR evaluator on documents and programs
of increasing size and prints the time normalised by |P| * |dom|: the
normalised column staying (roughly) flat is the empirical counterpart of the
theorem.  The ablation against the generic semi-naive engine is in
``bench_ablation_ground_vs_seminaive.py``.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.bench import chain_program, scaling_tree, wide_program
from repro.mdatalog import MonadicTreeEvaluator

DOCUMENT_SIZES = (1_000, 4_000, 16_000)
PROGRAM_SIZES = (8, 32, 128)


def _measure(program, document, repeats=3):
    """Median of ``repeats`` uncached evaluations (a fresh evaluator each:
    a reused one would answer from its fingerprint LRU)."""
    samples = []
    for _ in range(repeats):
        evaluator = MonadicTreeEvaluator(program)
        start = time.perf_counter()
        evaluator.evaluate(document)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_scaling_in_document_size_is_linear(bench_record):
    program = chain_program(16)
    rows = []
    for size in DOCUMENT_SIZES:
        document = scaling_tree(size, seed=1)
        elapsed = _measure(program, document)
        bench_record(f"theorem24_dom_{size}_s", elapsed)
        rows.append((size, elapsed, elapsed / (program.size() * size)))
    print("\nE3a  |dom| scaling (|P| fixed at %d atoms)" % chain_program(16).size())
    print(f"{'|dom|':>8} {'seconds':>10} {'sec/(|P|*|dom|)':>18}")
    for size, elapsed, normalised in rows:
        print(f"{size:>8} {elapsed:>10.4f} {normalised:>18.3e}")
    # linearity check: 16x the document should cost well under 64x the time
    assert rows[-1][1] < rows[0][1] * 64


def test_scaling_in_program_size_is_linear(bench_record):
    document = scaling_tree(4_000, seed=2)
    rows = []
    for rule_count in PROGRAM_SIZES:
        program = wide_program(rule_count)
        elapsed = _measure(program, document)
        bench_record(f"theorem24_prog_{program.size()}_s", elapsed)
        rows.append((program.size(), elapsed, elapsed / (program.size() * len(document))))
    print("\nE3b  |P| scaling (|dom| fixed at 4000 nodes)")
    print(f"{'|P|':>8} {'seconds':>10} {'sec/(|P|*|dom|)':>18}")
    for size, elapsed, normalised in rows:
        print(f"{size:>8} {elapsed:>10.4f} {normalised:>18.3e}")
    assert rows[-1][1] < rows[0][1] * (PROGRAM_SIZES[-1] / PROGRAM_SIZES[0]) * 4


@pytest.mark.benchmark(group="E3-theorem-2.4")
def test_benchmark_monadic_datalog_medium(benchmark):
    program = chain_program(32)
    document = scaling_tree(8_000, seed=3)
    # Fresh evaluator per round: a reused one would time its fingerprint LRU.
    benchmark(lambda: MonadicTreeEvaluator(program).evaluate(document))
