"""The fault plan against its stateless reference.

:class:`~repro.resilience.FaultPlan` draws one seeded coin per fetch and
carries each URL's rate-hit streak forward from it; when a rate rule is
added after fetches began, it recounts the streak from the seed.
``tests/resilience/reference.py`` keeps the plan it replaced, which
recounts the streak on every fetch.  Over random plans (one to three rate
rules with different patterns, rates and ``max_failures``; transient,
permanent and latency rules; a rate rule added mid-run) and random per-URL
fetch sequences, both must take the same decisions (error type and message,
delay) and keep the same ``injected`` tally.  ``CHAOS_SEED`` (the
environment variable) seeds the examples, as in
``tests/resilience/test_chaos.py``.
"""

from __future__ import annotations

import os
import random
import sys
import threading
from typing import Dict, List, Optional, Tuple

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.resilience import FaultPlan
from repro.resilience.faults import FaultDecision

from .reference import StatelessFaultPlan

SEED = int(os.environ.get("CHAOS_SEED", "20261021"))

URLS = ("a.test/1", "a.test/2", "b.test/1", "c.test/x")
PATTERNS = ("*", "a.test", "b.test", "/1", "c.test/x", "none.test")
#: Rates near the ends too: a rate of 0 never fires, 1 always does, and
#: high rates make the streaks ``max_failures`` cuts short.
RATES = st.sampled_from((0.0, 0.1, 0.3, 0.5, 0.8, 1.0)) | st.floats(0.0, 1.0)
LATE_RATES = st.sampled_from((0.9, 1.0)) | RATES

#: One rule, as the method call that adds it: (method name, args, kwargs).
Rule = Tuple[str, tuple, dict]


def _rate_rule(draw, rates=RATES) -> Rule:
    rate = draw(rates)
    pattern = draw(st.sampled_from(PATTERNS))
    return ("fail_rate", (rate, pattern), {"max_failures": draw(st.integers(1, 4))})


@st.composite
def _plans(draw):
    """``(plan seed, rules in order, late rate rule or None, its position,
    the fetch sequence)``."""
    rules: List[Rule] = [_rate_rule(draw) for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        rules.append((
            "fail_transient",
            (draw(st.sampled_from(PATTERNS)), draw(st.integers(1, 3))),
            {"after": draw(st.integers(0, 3))},
        ))
    if draw(st.booleans()):
        rules.append(("fail_permanent", (draw(st.sampled_from(PATTERNS[1:])),), {}))
    for _ in range(draw(st.integers(0, 2))):
        rules.append((
            "add_latency",
            (draw(st.sampled_from(PATTERNS)), draw(st.sampled_from((0.0, 0.25, 0.5)))),
            {"times": draw(st.none() | st.integers(1, 3)), "after": draw(st.integers(0, 3))},
        ))
    rules = draw(st.permutations(rules))  # the first failing rule wins
    fetches = draw(st.lists(st.sampled_from(URLS), min_size=1, max_size=80))
    # A late rule often raises the highest rate, which lengthens the streak
    # the next fetch of every URL already fetched starts from.
    late = _rate_rule(draw, LATE_RATES) if draw(st.booleans()) else None
    late_at = draw(st.integers(0, len(fetches)))
    return draw(st.integers(0, 2 ** 16)), rules, late, late_at, fetches


def _plan(cls, plan_seed: int, rules: List[Rule]) -> FaultPlan:
    plan = cls(seed=plan_seed)
    for method, args, kwargs in rules:
        getattr(plan, method)(*args, **kwargs)
    return plan


def _outcome(decision: FaultDecision) -> Tuple[float, Optional[str], Optional[str]]:
    error = decision.error
    if error is None:
        return decision.delay_s, None, None
    return decision.delay_s, type(error).__name__, str(error)


#: A rare rate raised mid-run: from fetch 20 on, almost every fetch follows
#: a head, so ``max_failures=1`` lets almost none of them fail.
RAISED_MID_RUN = (
    7,
    [("fail_rate", (0.05, "*"), {"max_failures": 1})],
    ("fail_rate", (0.95, "a.test"), {"max_failures": 1}),
    20,
    ["a.test/1"] * 40,
)


@seed(SEED)
@settings(max_examples=300, deadline=None)
@given(_plans())
@example(RAISED_MID_RUN)
def test_fault_plan_decides_as_the_stateless_reference(case):
    plan_seed, rules, late, late_at, fetches = case
    plan = _plan(FaultPlan, plan_seed, rules)
    reference = _plan(StatelessFaultPlan, plan_seed, rules)
    for step, url in enumerate(fetches):
        if late is not None and step == late_at:
            for either in (plan, reference):
                getattr(either, late[0])(*late[1], **late[2])
        assert _outcome(plan.decide(url)) == _outcome(reference.decide(url)), (
            f"fetch {step} of {url!r}"
        )
    assert plan.injected == reference.injected
    assert {url: plan.fetch_count(url) for url in URLS} == {
        url: reference.fetch_count(url) for url in URLS
    }


THREADS = 4
FETCHES_PER_THREAD = 400


def _threaded_plan(cls=FaultPlan) -> FaultPlan:
    return (
        cls(seed=SEED)
        .fail_rate(0.4, "*", max_failures=2)
        .fail_rate(0.7, "hot", max_failures=3)
        .fail_transient("t1", times=2, after=3)
        .add_latency("t2", 0.5, times=4)
    )


def _sequences() -> List[List[str]]:
    """Per thread, a random fetch order over its own URLs (disjoint sets)."""
    rng = random.Random(SEED)
    owned = [[f"t{thread}-{page}.test/{hot}" for page in range(3) for hot in ("hot", "cold")]
             for thread in range(THREADS)]
    return [[rng.choice(urls) for _ in range(FETCHES_PER_THREAD)] for urls in owned]


def _decide_all(plan: FaultPlan, urls: List[str], into: Dict[str, list]) -> None:
    for url in urls:
        into.setdefault(url, []).append(_outcome(plan.decide(url)))


def test_threads_over_disjoint_urls_decide_as_a_sequential_run():
    sequences = _sequences()
    sequential_plan = _threaded_plan()
    sequential: Dict[str, list] = {}
    for urls in sequences:
        _decide_all(sequential_plan, urls, sequential)

    threaded_plan = _threaded_plan()
    per_thread: List[Dict[str, list]] = [{} for _ in range(THREADS)]
    barrier = threading.Barrier(THREADS)

    def run(index: int) -> None:
        barrier.wait()
        _decide_all(threaded_plan, sequences[index], per_thread[index])

    workers = [threading.Thread(target=run, args=(index,)) for index in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-decision too
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        sys.setswitchinterval(interval)

    threaded = {url: outcomes for found in per_thread for url, outcomes in found.items()}
    assert threaded == sequential
    assert threaded_plan.injected == sequential_plan.injected
    assert sequential_plan.injected["transient"] > 0  # the storm stormed
    # And the sequential run decides as the reference does.
    reference_plan = _threaded_plan(StatelessFaultPlan)
    reference: Dict[str, list] = {}
    for urls in sequences:
        _decide_all(reference_plan, urls, reference)
    assert reference == sequential
    assert reference_plan.injected == sequential_plan.injected
