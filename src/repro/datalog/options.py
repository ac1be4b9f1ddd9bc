"""Engine tuning options: one frozen dataclass for every evaluator.

:class:`EngineOptions` is the single declarative description of *how* to
evaluate, accepted uniformly by
:class:`~repro.datalog.engine.SemiNaiveEngine`,
:class:`~repro.mdatalog.evaluator.MonadicTreeEvaluator`, the compiled
automata evaluators of :mod:`repro.automata.to_datalog`, and the server
components — and owned by :class:`repro.api.Session`, which applies one
options object to every engine it builds.  Constructors take it as
``options=`` only; the per-constructor tuning kwargs of the pre-façade API
are gone (passing one raises :class:`TypeError`).

The engine has exactly one evaluation path (columnar storage, compiled rule
plans shared through a :class:`~repro.datalog.registry.PlanRegistry`), so
every field here tunes caching or policy — none selects an alternative join
strategy or opts out of sharing.

The dataclass is frozen and hashable so it can key evaluator memos (the
:mod:`repro.api` session memoises one engine per (program, options) pair,
and the automata layer keys its module-level evaluator cache by options).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any


@dataclass(frozen=True)
class EngineOptions:
    """Declarative tuning of one evaluator stack.

    Attributes
    ----------
    cache_size:
        Capacity of every per-engine fixpoint LRU (one entry per distinct
        hot database / document).
    force_generic:
        Monadic layer only: skip the Theorem-2.4 ground+LTUR pipeline and
        evaluate through the generic semi-naive engine even for programs in
        the TMNF fragment.
    on_diagnostics:
        What :class:`repro.api.Session` entry points do about error-severity
        static-analysis findings (:mod:`repro.analysis`): ``"warn"``
        (default) emits a :class:`~repro.analysis.diagnostics.
        DiagnosticWarning` per error, ``"strict"`` raises
        :class:`~repro.analysis.diagnostics.AnalysisError`, ``"ignore"``
        skips analysis entirely.  Reports are cached per program content
        fingerprint, so the policy costs one analysis per distinct program.
    """

    cache_size: int = 8
    force_generic: bool = False
    on_diagnostics: str = "warn"

    def __post_init__(self) -> None:
        if self.cache_size < 1:
            raise ValueError(
                f"EngineOptions.cache_size must be >= 1, got {self.cache_size}"
            )
        if self.on_diagnostics not in ("ignore", "warn", "strict"):
            raise ValueError(
                "EngineOptions.on_diagnostics must be 'ignore', 'warn' or "
                f"'strict', got {self.on_diagnostics!r}"
            )

    # ------------------------------------------------------------------
    def derive(self, **changes: Any) -> "EngineOptions":
        """A copy with ``changes`` applied (the frozen-dataclass idiom)."""
        return replace(self, **changes)


#: The default options every constructor resolves to when nothing is passed.
DEFAULT_OPTIONS = EngineOptions()
