"""The one batch executor behind every batch entry point.

``Session.query_many``, ``Session.extract_many`` and
``TransformationServer.run_all`` only *build tasks*; running them and
applying the ``on_error`` slot policy happens here, in two steps:

* :func:`run_tasks` — a lazy in-process runner.  It takes
  ``(url, thunk)`` pairs in input order and yields one :class:`Outcome`
  per slot, in that order.  ``max_workers`` of ``None`` or ``<= 1`` runs
  each thunk only when its outcome is pulled; otherwise one thread pool
  runs a bounded window of ``max_workers * 4`` submissions, so sequences
  and generators alike stream without being materialised.
* :func:`settle` — the slot policy.  It consumes outcomes in order:
  ``"raise"`` re-raises the first failed slot (a sequential batch never
  starts the later slots; a threaded one surfaces the lowest-index error
  once its window has drained), ``"skip"`` drops failed slots and
  ``"collect"`` keeps the caller's ``isolate(error, slot)`` record in
  place.

The process paths (:class:`~repro.distrib.executor.ProcessExecutor`) feed
their :class:`~repro.distrib.envelope.ResultEnvelope`\\ s — which carry the
same ``index`` / ``ok`` / ``result`` / ``error`` / ``url`` fields as
:class:`Outcome` — into the same :func:`settle`.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterable, Iterator, NamedTuple, Optional, Tuple

from .policy import ON_ERROR_POLICIES

#: One batch slot's work: the slot's URL (``None`` when it has none) and a
#: zero-argument callable producing its result.
Task = Tuple[Optional[str], Callable[[], Any]]


class Outcome(NamedTuple):
    """One slot's result (``ok``) or error, with its batch provenance."""

    index: int
    ok: bool
    result: Any
    error: Optional[BaseException]
    url: Optional[str]


def check_on_error(on_error: str) -> str:
    """``on_error`` itself, or a :class:`ValueError` naming the choices."""
    if on_error not in ON_ERROR_POLICIES:
        raise ValueError(f"on_error={on_error!r}: expected one of {ON_ERROR_POLICIES}")
    return on_error


def _outcome(index: int, url: Optional[str], call: Callable[[], Any]) -> Outcome:
    try:
        return Outcome(index, True, call(), None, url)
    except Exception as error:
        return Outcome(index, False, None, error, url)


def run_tasks(tasks: Iterable[Task], max_workers: Optional[int] = None) -> Iterator[Outcome]:
    """Run ``tasks`` in input order, yielding one :class:`Outcome` per slot."""
    if max_workers is None or max_workers <= 1:
        for index, (url, thunk) in enumerate(tasks):
            yield _outcome(index, url, thunk)
        return
    window = max_workers * 4
    with ThreadPoolExecutor(max_workers=max_workers, thread_name_prefix="repro-batch") as pool:
        pending: deque = deque()
        for index, (url, thunk) in enumerate(tasks):
            pending.append((index, url, pool.submit(thunk).result))
            if len(pending) >= window:
                yield _outcome(*pending.popleft())
        while pending:
            yield _outcome(*pending.popleft())


def settle(
    outcomes: Iterable[Any],
    on_error: str,
    isolate: Callable[[BaseException, Any], Any],
) -> Dict[int, Any]:
    """Apply the ``on_error`` slot policy; returns ``{index: slot}`` in order.

    ``isolate(error, outcome)`` runs for every failed slot that does not
    raise — under ``"skip"`` too, so its accounting sees every isolated
    failure — and its return value fills the slot under ``"collect"``.
    """
    slots: Dict[int, Any] = {}
    try:
        for outcome in outcomes:
            if outcome.ok:
                slots[outcome.index] = outcome.result
            elif on_error == "raise":
                raise outcome.error
            else:
                isolated = isolate(outcome.error, outcome)
                if on_error == "collect":
                    slots[outcome.index] = isolated
    finally:
        # Stop a lazy runner now rather than at garbage collection: no
        # later sequential slot starts, and a thread pool drains before
        # the error reaches the caller.
        close = getattr(outcomes, "close", None)
        if close is not None:
            close()
    return slots
