"""Resilience-layer overhead: the clean path must stay (nearly) free.

The fault-tolerance layer (retry loop, per-host circuit breaker, session
stats) sits on every fetch a policy-carrying :class:`repro.api.Session`
performs.  Its contract is that a batch which never faults pays almost
nothing for the armour: every ``on_error`` mode runs the one guarded batch
path (:mod:`repro.resilience.batch`), which this gate measures, and the
guarded fetch adds only a breaker check and a loop frame per document.  Two workloads go into
``BENCH_engine.json``:

* ``resilience_clean_*`` — the same clean ``extract_many`` stream with and
  without a policy; the recorded overhead ratio is asserted below 5%.
* ``resilience_storm_recovered_s`` — the same stream under a seeded 20%
  fail-once storm with zero-backoff retries: the price of absorbing a
  storm is re-fetching the flaky fifth, not a collapsed batch.
"""

from __future__ import annotations

import statistics

from repro import ResiliencePolicy, Session
from repro.resilience import FaultPlan, RetryPolicy
from repro.web import SimulatedWeb
from repro.web.sites.bookstore import generate_books, table_shop_page

#: Zero-backoff so the storm workload measures retry mechanics, not sleeps.
POLICY = ResiliencePolicy(
    retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0, jitter=0.0)
)

WRAPPER = """
book(S, X)  <- document(_, S), subelem(S, ?.tr, X), contains(X, (?.td, [(class, title, exact)]))
title(S, X) <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
price(S, X) <- book(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
"""


def _web_and_urls(count):
    web = SimulatedWeb()
    urls = []
    for seed in range(count):
        url = f"shop-{seed}.test/bestsellers"
        web.publish(url, table_shop_page(generate_books(5, seed=seed)))
        urls.append(url)
    return web, urls


def test_clean_path_overhead_stays_under_five_percent(best_of, bench_record, quick):
    url_count = 40 if quick else 120
    web, urls = _web_and_urls(url_count)

    def bare():
        return Session().extract_many(WRAPPER, urls=urls, fetcher=web)

    def guarded():
        return Session(resilience=POLICY).extract_many(
            WRAPPER, urls=urls, fetcher=web
        )

    bare_samples, guarded_samples = [], []
    baseline = armoured = None
    for _ in range(5):
        seconds, baseline = best_of(bare, repeats=1)
        bare_samples.append(seconds)
        seconds, armoured = best_of(guarded, repeats=1)
        guarded_samples.append(seconds)

    # Correctness guard: the armour changes nothing about a clean run.
    assert [r.to_xml() for r in armoured] == [r.to_xml() for r in baseline]

    overhead = min(guarded_samples) / max(min(bare_samples), 1e-9)
    bench_record("resilience_clean_baseline_s", statistics.median(bare_samples))
    bench_record("resilience_clean_guarded_s", statistics.median(guarded_samples))
    bench_record("resilience_clean_overhead_x", overhead)
    print(
        f"\nclean extract_many over {url_count} urls: bare "
        f"{min(bare_samples):.4f} s vs resilient {min(guarded_samples):.4f} s "
        f"(overhead {overhead:.3f}x)"
    )
    assert overhead < 1.05, (
        f"clean-path resilience overhead {overhead:.3f}x exceeds the 5% budget"
    )


def test_storm_recovery_price_is_the_refetched_fifth(best_of, bench_record, quick):
    url_count = 40 if quick else 120
    web, urls = _web_and_urls(url_count)
    session = Session(resilience=POLICY)
    clean = session.extract_many(WRAPPER, urls=urls, fetcher=web)

    def stormed():
        storm_web, _ = _web_and_urls(url_count)
        plan = FaultPlan(seed=11)
        for url in urls[:: 5]:  # a deterministic 20% fail-once storm
            plan.fail_transient(url, times=1)
        storm_web.install_faults(plan)
        return Session(resilience=POLICY).extract_many(
            WRAPPER, urls=urls, fetcher=storm_web
        )

    samples = []
    recovered = None
    for _ in range(3):
        seconds, recovered = best_of(stormed, repeats=1)
        samples.append(seconds)

    # Every injected fault was absorbed: the stormed batch equals the clean.
    assert [r.to_xml() for r in recovered] == [r.to_xml() for r in clean]

    bench_record("resilience_storm_recovered_s", statistics.median(samples))
    print(
        f"\n20% fail-once storm over {url_count} urls absorbed in "
        f"{min(samples):.4f} s (zero-backoff retries; no slot lost)"
    )
