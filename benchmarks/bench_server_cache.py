"""Fixpoint-LRU effectiveness under the multi-document server workload.

The Transformation Server re-runs wrappers against every freshly scheduled
document; PR 1's single-slot fixpoint cache thrashed as soon as a pipe
rotated through more than one hot document.  This benchmark drives a
:class:`repro.server.components.DatalogQueryComponent` through a
:class:`repro.server.pipeline.TransformationServer` over a 4-document
working set and asserts the LRU serves >= 90% of activations from cache,
recording the hit rate and the cached-vs-thrashing wall-clock into
BENCH_engine.json.
"""

from __future__ import annotations

import time

from repro.api import Pipeline
from repro.bench import scaling_tree, wide_program
from repro.datalog import EngineOptions
from repro.server import DatalogQueryComponent, TransformationServer

WORKING_SET = 4


def _working_set_documents(size):
    return [scaling_tree(size, seed=100 + offset) for offset in range(WORKING_SET)]


def _build_server(documents, cache_size, rotation):
    program = wide_program(12)
    server = TransformationServer()
    component = DatalogQueryComponent(
        "wrap",
        program,
        supplier=lambda: documents[rotation["tick"] % len(documents)],
        # force_generic: exercise the generic engine's fixpoint LRU
        options=EngineOptions(cache_size=cache_size, force_generic=True),
    )
    server.register(Pipeline.builder("wrappers").stage(component, is_source=True).build().pipe)
    return server, component


def test_fixpoint_lru_hit_rate_over_document_working_set(quick, bench_record):
    size = 150 if quick else 600
    documents = _working_set_documents(size)
    activations = 40

    def run_rotation(cache_size):
        # A fresh server per repeat: the measured workload is always "cold
        # caches, then 40 activations", not a re-timing of a warm cache.
        rotation = {"tick": 0}
        server, component = _build_server(
            documents, cache_size=cache_size, rotation=rotation
        )
        start = time.perf_counter()
        for _ in range(activations):
            server.tick()
            rotation["tick"] += 1
        return time.perf_counter() - start, component.cache_info()

    # Best-of-3: the recorded trajectory value feeds the CI perf gate, and a
    # single unrepeated pass swings far beyond the gate's threshold on
    # loaded runners (the min damps scheduler/GC noise).
    cached_elapsed, info = min(run_rotation(cache_size=8) for _ in range(3))
    assert info.hits + info.misses == activations
    assert info.misses == WORKING_SET  # each document evaluated exactly once
    hit_rate = info.hit_rate
    bench_record("server_pipeline_4doc_hit_rate", hit_rate)
    bench_record("server_pipeline_4doc_cached_s", cached_elapsed)

    # The PR-1 behaviour for comparison: a single-slot cache thrashes on the
    # same rotation and re-evaluates every activation.
    thrash_elapsed, thrash_info = min(run_rotation(cache_size=1) for _ in range(2))
    bench_record("server_pipeline_4doc_singleslot_s", thrash_elapsed)

    print(
        f"\nserver working set ({WORKING_SET} documents, {activations} activations): "
        f"LRU hit rate {hit_rate:.1%} ({cached_elapsed:.3f} s) vs single-slot "
        f"hit rate {thrash_info.hit_rate:.1%} ({thrash_elapsed:.3f} s)"
    )
    assert hit_rate >= 0.9
    assert thrash_info.hits == 0  # the single slot never serves this rotation
    assert cached_elapsed < thrash_elapsed


def test_ground_pipeline_lru_hits_across_rebuilt_documents(quick, bench_record):
    # The TMNF/ground pipeline caches LTUR truth sets by tree fingerprint:
    # wrappers re-fetching byte-identical pages (distinct Document objects)
    # must hit without re-grounding.
    size = 150 if quick else 600
    program = wide_program(12)
    rotation = {"tick": 0}
    documents = _working_set_documents(size)
    rebuilt = [scaling_tree(size, seed=100 + offset) for offset in range(WORKING_SET)]
    component = DatalogQueryComponent(
        "wrap",
        program,
        supplier=lambda: (documents + rebuilt)[rotation["tick"] % (2 * WORKING_SET)],
        options=EngineOptions(cache_size=8),
    )
    for _ in range(2 * WORKING_SET):
        component.process([])
        rotation["tick"] += 1
    info = component.cache_info()
    assert info.misses == WORKING_SET  # rebuilt duplicates all hit
    assert info.hits == WORKING_SET
    bench_record("server_ground_pipeline_rebuilt_hit_rate", info.hit_rate)
    print(f"\nground pipeline rebuilt-document hit rate: {info.hit_rate:.1%}")
