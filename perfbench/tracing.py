"""Span tracing at layer boundaries, installed only for the traced run.

The tracer wraps public functions of the library in place (class
attributes and module-level names alike) and restores the originals when
the traced window ends.  Spans are kept in memory as
``[name, start, end, parent index, request id]`` lists and written out at
the end of the run; per-layer figures are derived from them afterwards:

* ``calls`` — how many spans of a name were opened;
* ``self`` time — a span's duration minus the union of its children's
  intervals (clipped to the span), so nested layers are not double counted.

A function imported by name into another module (``parse_html`` inside
``repro.web.fetcher``) is looked up through that module, so the patch must
name the module where the lookup happens, not where the function is
defined.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_MISSING = object()

#: Called after a traced call returns: ``after(tracer, args, result)``.
AfterHook = Callable[["Tracer", tuple, object], None]


@dataclass(frozen=True)
class Patch:
    """One boundary to trace: ``owner.attribute`` recorded as span ``name``."""

    owner: object
    attribute: str
    name: str
    after: Optional[AfterHook] = None


class Tracer:
    """Records spans for the functions it wraps."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.request_id = -1
        #: Free-form sums filled by ``after`` hooks (e.g. nodes scanned).
        self.sums: Dict[str, float] = {}
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    def wrap(self, function: Callable, name: str, after: Optional[AfterHook] = None) -> Callable:
        tracer = self
        clock = self.clock

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request_id]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    # -- installation -----------------------------------------------------
    def install(self, patches: Sequence[Patch]) -> None:
        """Wrap every patch target; :meth:`restore` undoes all of them."""
        for patch in patches:
            own = vars(patch.owner).get(patch.attribute, _MISSING)
            current = getattr(patch.owner, patch.attribute)
            self._saved.append((patch.owner, patch.attribute, own))
            setattr(patch.owner, patch.attribute, self.wrap(current, patch.name, patch.after))

    def restore(self) -> None:
        """Put back every original, in reverse order of installation.

        An attribute the owner only inherited is deleted again rather than
        pinned on the subclass.
        """
        while self._saved:
            owner, attribute, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- output -------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write the spans as JSON lines ``[name, start, end, parent, request]``."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record))
                handle.write("\n")


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans: Sequence[list]) -> List[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for record in spans:
        parent = record[3]
        if parent >= 0:
            children.setdefault(parent, []).append((record[1], record[2]))
    result = []
    for index, record in enumerate(spans):
        start, end = record[1], record[2]
        clipped = [
            (max(start, child_start), min(end, child_end))
            for child_start, child_end in children.get(index, ())
            if child_end > start and child_start < end
        ]
        result.append((end - start) - union_length(clipped))
    return result


def summarise(spans: Sequence[list]) -> Dict[str, Tuple[int, float]]:
    """``{span name: (calls, total self seconds)}``."""
    totals: Dict[str, Tuple[int, float]] = {}
    for record, own in zip(spans, self_times(spans)):
        calls, seconds = totals.get(record[0], (0, 0.0))
        totals[record[0]] = (calls + 1, seconds + own)
    return totals


def root_seconds(spans: Sequence[list]) -> float:
    """Summed duration of the root spans (one per traced request)."""
    return sum(record[2] - record[1] for record in spans if record[3] < 0)
