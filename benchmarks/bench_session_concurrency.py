"""Concurrent-session workloads: shared-Session storms and batch overlap.

PR 5 makes one :class:`repro.api.Session` servable from a multi-threaded
front end (locked caches, single-flight memos) and gives the batch entry
points ``max_workers=`` thread-pool paths.  Two workload families go into
``BENCH_engine.json``:

* ``session_concurrency_*`` — N request threads hammering one shared
  session over a hot document rotation, versus the same total work
  sequentially.  This is the tentpole's *correctness-under-load* workload;
  the timings are recorded to track that locking stays cheap (Python
  evaluation is GIL-bound, so threads buy little — the point is they must
  not *cost* much either).
* ``extract_many_parallel_*`` — the fetch-bound ``urls=`` batch path: a
  latency-simulating fetcher makes acquisition dominate, and the windowed
  batch pool overlaps the slots' fetches with each other and with
  evaluation, so ``max_workers=8`` must beat the sequential stream
  decisively.
"""

from __future__ import annotations

import statistics
import threading
import time

from repro import Session
from repro.html import parse_html
from repro.mdatalog import MonadicProgram
from repro.tree.builder import tree
from repro.web import SimulatedWeb
from repro.web.sites.bookstore import generate_books, table_shop_page

THREADS = 8

ITALIC = MonadicProgram.parse(
    """
    italic(X) :- label_i(X).
    italic(X) :- italic(X0), firstchild(X0, X).
    italic(X) :- italic(X0), nextsibling(X0, X).
    """,
    query_predicates=["italic"],
)

WRAPPER = """
book(S, X)  <- document(_, S), subelem(S, ?.tr, X), contains(X, (?.td, [(class, title, exact)]))
title(S, X) <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
price(S, X) <- book(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
"""


class SlowFetcher(SimulatedWeb):
    """A simulated web whose every fetch pays a network-style latency.

    The sleep releases the GIL exactly like socket I/O would, so this is
    the honest model for the fetch-bound workload the parallel ``urls=``
    path exists for.
    """

    def __init__(self, delay_s: float) -> None:
        super().__init__()
        self.delay_s = delay_s

    def fetch(self, url: str):
        time.sleep(self.delay_s)
        return super().fetch(url)


def _documents(count: int):
    return [
        tree(("doc", ("i", ("b",)), ("a",), ("i",) * (1 + seed % 3)))
        for seed in range(count)
    ]


def test_shared_session_storm_records_thread_vs_sequential(
    best_of, bench_record, quick
):
    """N threads × hot-document queries on one session vs the same work
    sequentially — and the results must agree exactly."""
    rounds = 8 if quick else 24
    documents = _documents(6)

    def sequential():
        session = Session()
        return [
            [node.preorder_index for node in session.query(ITALIC, document).nodes("italic")]
            for _ in range(THREADS * rounds)
            for document in documents
        ]

    def threaded():
        session = Session()
        collected = [None] * THREADS
        barrier = threading.Barrier(THREADS)

        def work(index: int) -> None:
            barrier.wait(timeout=30)
            collected[index] = [
                [
                    node.preorder_index
                    for node in session.query(ITALIC, document).nodes("italic")
                ]
                for _ in range(rounds)
                for document in documents
            ]

        threads = [
            threading.Thread(target=work, args=(index,), daemon=True)
            for index in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        return collected

    sequential_samples = []
    threaded_samples = []
    expected = None
    storm = None
    for _ in range(3):
        seconds, expected = best_of(sequential, repeats=1)
        sequential_samples.append(seconds)
        seconds, storm = best_of(threaded, repeats=1)
        threaded_samples.append(seconds)

    # Correctness guard: every thread saw exactly the sequential answers.
    per_thread = expected[: rounds * len(_documents(6))]
    assert all(rows == per_thread for rows in storm)

    bench_record("session_concurrency_sequential_s", statistics.median(sequential_samples))
    bench_record("session_concurrency_threads_s", statistics.median(threaded_samples))
    print(
        f"\nshared-session storm ({THREADS} threads x {rounds} rounds x 6 docs): "
        f"sequential {min(sequential_samples):.4f} s, "
        f"threaded {min(threaded_samples):.4f} s "
        "(GIL-bound: parity expected, corruption forbidden)"
    )


def test_extract_many_parallel_beats_sequential_on_fetch_bound_urls(
    best_of, bench_record, quick
):
    url_count = 12 if quick else 24
    delay_s = 0.004 if quick else 0.008
    web = SlowFetcher(delay_s)
    for seed in range(url_count):
        web.publish(
            f"shop-{seed}.test/bestsellers",
            table_shop_page(generate_books(6, seed=seed)),
        )
    urls = [f"shop-{seed}.test/bestsellers" for seed in range(url_count)]

    def sequential():
        return Session().extract_many(WRAPPER, urls=urls, fetcher=web)

    def parallel():
        return Session().extract_many(WRAPPER, urls=urls, fetcher=web, max_workers=8)

    sequential_samples = []
    parallel_samples = []
    results = baseline = None
    for _ in range(3):
        seconds, baseline = best_of(sequential, repeats=1)
        sequential_samples.append(seconds)
        seconds, results = best_of(parallel, repeats=1)
        parallel_samples.append(seconds)

    # Correctness guard: overlapped fetching changes nothing about output.
    assert [result.to_xml() for result in results] == [
        result.to_xml() for result in baseline
    ]
    assert all(result.count("book") == 6 for result in results)

    speedup = min(sequential_samples) / max(min(parallel_samples), 1e-9)
    bench_record("extract_many_parallel_seq_s", statistics.median(sequential_samples))
    bench_record("extract_many_parallel_s", statistics.median(parallel_samples))
    bench_record("extract_many_parallel_speedup_x", speedup)
    print(
        f"\nextract_many over {url_count} fetch-bound urls "
        f"({delay_s * 1000:.0f} ms latency): sequential "
        f"{min(sequential_samples):.4f} s vs max_workers=8 "
        f"{min(parallel_samples):.4f} s (speed-up {speedup:.1f}x)"
    )
    # Fetch latency dominates: each URL slot fetches inside its own task on
    # the one windowed pool, so up to 8 fetches overlap; anything less than
    # a clear win means the batch runner stopped running slots concurrently.
    assert speedup >= 1.5


def test_html_parse_stream_is_identical_across_batch_paths():
    """The parallel path hands extraction the same parsed documents."""
    web = SimulatedWeb()
    web.publish("shop-0.test/bestsellers", table_shop_page(generate_books(4, seed=0)))
    parsed = parse_html(web.fetch_html("shop-0.test/bestsellers"))
    assert parsed.root.label == web.fetch("shop-0.test/bestsellers").root.label
