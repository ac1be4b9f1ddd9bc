"""Construction cost of server components under the compiled-plan registry.

The Transformation Server hosts hundreds of components wrapping the same
handful of programs (Section 5 / 6); before the registry every
``DatalogQueryComponent`` recompiled its program at construction.  This
benchmark builds the ISSUE's headline configuration — 200 components over 4
distinct programs — with shared plans (the default) and with
``share_plans=False`` (the per-component compilation baseline), asserts the
registry really performed exactly 4 compilations for 200 constructions, and
records both construction times in BENCH_engine.json.

The ``Session.extract_many`` workload measures the façade's batch path over
a server-style document stream: one parse and one interpreter over N
documents versus the pre-façade pattern of re-parsing the wrapper and
rebuilding an Extractor per document.
"""

from __future__ import annotations

import statistics

from repro import EngineOptions, Session
from repro.datalog import clear_plan_registry, plan_registry_info
from repro.elog import Extractor, parse_elog
from repro.html import parse_html
from repro.mdatalog import MonadicProgram
from repro.server import DatalogQueryComponent
from repro.tree.builder import tree
from repro.web.sites.bookstore import generate_books, table_shop_page

COMPONENTS = 200
PROGRAMS = 4


def _program(k: int, chain: int = 24) -> MonadicProgram:
    """A monadic program with ``chain`` recursive rules (big enough that
    compilation dominates the rest of component construction)."""
    lines = [f"p{k}_0(X) :- label_b(X)."]
    for i in range(1, chain):
        lines.append(f"p{k}_{i}(Y) :- p{k}_{i - 1}(X), firstchild(X, Y).")
        lines.append(f"p{k}_{i}(Y) :- p{k}_{i - 1}(X), nextsibling(X, Y).")
    return MonadicProgram.parse("\n".join(lines), query_predicates=[f"p{k}_{chain - 1}"])


def _build_components(programs, share_plans):
    document = tree(("doc", ("b", ("a",)), ("a",)))
    # force_generic: the generic engine is the registry client
    options = EngineOptions(force_generic=True, share_plans=share_plans)
    return [
        DatalogQueryComponent(
            f"component-{n}",
            programs[n % PROGRAMS],
            lambda: document,
            options=options,
        )
        for n in range(COMPONENTS)
    ]


def test_registry_amortises_construction_over_200_components(best_of, bench_record):
    programs = [_program(k) for k in range(PROGRAMS)]

    def construct_shared():
        clear_plan_registry()  # every repeat pays the 4 cold compilations
        return _build_components(programs, share_plans=True)

    def construct_private():
        return _build_components(programs, share_plans=False)

    shared_samples = []
    private_samples = []
    for _ in range(3):
        shared_samples.append(best_of(construct_shared, repeats=1)[0])
        private_samples.append(best_of(construct_private, repeats=1)[0])

    # CacheInfo accounting: the last shared pass compiled each distinct
    # program exactly once and served every other construction from the
    # registry.
    info = plan_registry_info()
    assert info.misses == PROGRAMS, f"expected {PROGRAMS} compilations: {info}"
    assert info.hits == COMPONENTS - PROGRAMS
    assert info.size == PROGRAMS

    speedup = min(private_samples) / max(min(shared_samples), 1e-9)
    bench_record("registry_200x4_shared_s", statistics.median(shared_samples))
    bench_record("registry_200x4_private_s", statistics.median(private_samples))
    bench_record("registry_200x4_speedup_x", speedup)
    print(
        f"\n200 components / 4 programs: shared {min(shared_samples):.4f} s vs "
        f"per-component compilation {min(private_samples):.4f} s "
        f"(speed-up {speedup:.1f}x, registry {info.hits} hits / {info.misses} misses)"
    )
    # 196 of 200 compilations are amortised away; construction must get
    # decisively faster, not merely not-slower.
    assert speedup >= 2.0


def test_shared_components_answer_like_private_ones():
    # The benchmark's own correctness guard: sharing compiled programs
    # across all 200 components changes nothing about their output.
    programs = [_program(k, chain=6) for k in range(PROGRAMS)]
    shared = _build_components(programs, share_plans=True)
    private = _build_components(programs, share_plans=False)
    for shared_component, private_component in zip(shared, private):
        assert (
            shared_component.process([]).children
            == private_component.process([]).children
        )


# ---------------------------------------------------------------------------
# Session.extract_many: the façade's batch path over a document stream
# ---------------------------------------------------------------------------

STREAM_DOCUMENTS = 40

STREAM_WRAPPER = """
book(S, X)  <- document(_, S), subelem(S, ?.tr, X), contains(X, (?.td, [(class, title, exact)]))
title(S, X) <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
price(S, X) <- book(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
"""


def _document_stream():
    return [
        parse_html(
            table_shop_page(generate_books(8, seed=seed)),
            url=f"shop-{seed}.test/bestsellers",
        )
        for seed in range(STREAM_DOCUMENTS)
    ]


def test_session_extract_many_beats_per_document_interpreters(best_of, bench_record):
    documents = _document_stream()

    def batch():
        # One session: the wrapper is parsed once and one interpreter
        # serves the whole stream.
        return Session().extract_many(STREAM_WRAPPER, documents)

    def rebuild_per_document():
        # The pre-façade server-loop pattern: every document pays a parse
        # plus a fresh Extractor.
        return [
            Extractor(parse_elog(STREAM_WRAPPER)).extract(document=document)
            for document in documents
        ]

    batch_samples = []
    rebuild_samples = []
    results = None
    for _ in range(3):
        batch_seconds, results = best_of(batch, repeats=1)
        rebuild_seconds, baseline = best_of(rebuild_per_document, repeats=1)
        batch_samples.append(batch_seconds)
        rebuild_samples.append(rebuild_seconds)

    # Correctness guard: the batch path extracts exactly what the
    # per-document interpreters extract.
    assert [r.count("book") for r in results] == [b.count("book") for b in baseline]
    assert all(result.count("book") == 8 for result in results)

    speedup = min(rebuild_samples) / max(min(batch_samples), 1e-9)
    bench_record("extract_many_batch_s", statistics.median(batch_samples))
    bench_record("extract_many_rebuild_s", statistics.median(rebuild_samples))
    bench_record("extract_many_speedup_x", speedup)
    print(
        f"\nextract_many over {STREAM_DOCUMENTS} documents: batch "
        f"{min(batch_samples):.4f} s vs per-document interpreters "
        f"{min(rebuild_samples):.4f} s (speed-up {speedup:.2f}x)"
    )
    # The shared interpreter must not be materially slower than rebuilding;
    # the threshold leaves wide headroom because extraction itself dominates
    # both sides (~0.15 s each, 3 samples) and shared CI runners jitter far
    # more than the parse/construction amortisation being measured.  The
    # recorded extract_many_*_s medians are what the perf-trajectory gate
    # actually watches.
    assert speedup >= 0.7
