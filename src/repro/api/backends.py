"""The evaluator backend registry of the façade.

A *backend* packages one way of evaluating a program: how to normalise the
program spec (parse text, validate types), how to key an evaluator memo,
how to build the evaluator (threading :class:`EngineOptions` and the
session's :class:`PlanRegistry` down), and how to run it over a source
producing a uniform :class:`~repro.api.results.QueryResult`.

Three backends ship with the reproduction, mirroring the paper's layers:

``"semi-naive"``
    Generic stratified datalog (:class:`~repro.datalog.engine.
    SemiNaiveEngine`) over ``{predicate: facts}`` databases — or over
    documents, which the engine evaluates over their tau_ur relations,
    built from the tree fingerprint (``SemiNaiveEngine.fixpoint``).
``"monadic"``
    Monadic datalog over trees (:class:`~repro.mdatalog.evaluator.
    MonadicTreeEvaluator`, the Theorem-2.4 pipeline with generic fallback)
    over :class:`~repro.tree.document.Document` sources.
``"automata"``
    Tree automata compiled to monadic datalog (Theorem 2.5,
    :func:`~repro.automata.to_datalog.compiled_evaluator`) over documents.

:func:`register_backend` admits new evaluators under new names without
touching the session; :func:`infer_backend` maps program types to backend
names so most callers never spell the name at all.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from ..automata.ranked import TreeAutomaton
from ..automata.to_datalog import _automaton_signature, compile_automaton
from ..datalog.ast import Program
from ..datalog.engine import SemiNaiveEngine
from ..datalog.options import EngineOptions
from ..datalog.parser import parse_program
from ..datalog.registry import PlanRegistry, program_snapshot
# Not called here; kept importable because perfbench/layers.py wraps it.
from ..datalog.tree_edb import tree_database  # noqa: F401
from ..mdatalog.evaluator import MonadicTreeEvaluator
from ..mdatalog.program import MonadicProgram
from ..tree.document import Document
from .results import FactsResult, QueryResult, SelectionResult


class BackendError(ValueError):
    """Raised for unknown backend names or unsupported program specs."""


class EvaluatorBackend:
    """One named evaluation strategy (see module docstring).

    ``labels`` is only meaningful for backends whose compilation depends on
    the document alphabet (the automata backend); the others ignore it.
    """

    name: str = ""

    def accepts(self, program: object) -> bool:
        """Whether :func:`infer_backend` should route ``program`` here."""
        raise NotImplementedError

    def normalise(self, program: object) -> object:
        """Parse / validate a program spec into the backend's native type."""
        raise NotImplementedError

    def cache_key(
        self,
        program: object,
        options: EngineOptions,
        labels: Optional[Tuple[str, ...]] = None,
    ) -> Hashable:
        """An exact content key for the session's evaluator memo."""
        raise NotImplementedError

    def build(
        self,
        program: object,
        options: EngineOptions,
        registry: Optional[PlanRegistry],
        labels: Optional[Tuple[str, ...]] = None,
    ) -> object:
        """Construct the evaluator (compilation happens here, once)."""
        raise NotImplementedError

    def run(self, evaluator: object, source: object) -> QueryResult:
        """Evaluate ``source`` and wrap the output uniformly."""
        raise NotImplementedError


class SemiNaiveBackend(EvaluatorBackend):
    name = "semi-naive"

    def accepts(self, program: object) -> bool:
        return isinstance(program, Program)

    def normalise(self, program: object) -> Program:
        if isinstance(program, str):
            return parse_program(program)
        if isinstance(program, Program):
            return program
        raise BackendError(
            f"semi-naive backend expects a datalog Program or text, "
            f"got {type(program).__name__}"
        )

    def cache_key(self, program, options, labels=None):
        return (program_snapshot(program), options)

    def build(self, program, options, registry, labels=None):
        return SemiNaiveEngine(program, options=options, registry=registry)

    def run(self, evaluator, source):
        if isinstance(source, Document):
            return FactsResult(
                evaluator.fixpoint(source), document=source, backend=self.name
            )
        if isinstance(source, dict):
            return FactsResult(evaluator.fixpoint(source), backend=self.name)
        raise BackendError(
            f"semi-naive backend evaluates databases or documents, "
            f"got {type(source).__name__}"
        )


class MonadicBackend(EvaluatorBackend):
    name = "monadic"

    def accepts(self, program: object) -> bool:
        return isinstance(program, MonadicProgram)

    def normalise(self, program: object) -> MonadicProgram:
        if isinstance(program, str):
            return MonadicProgram.parse(program)
        if isinstance(program, MonadicProgram):
            return program
        raise BackendError(
            f"monadic backend expects a MonadicProgram or text, "
            f"got {type(program).__name__}"
        )

    def cache_key(self, program, options, labels=None):
        return (tuple(program.rules), program.query_predicates, options)

    def build(self, program, options, registry, labels=None):
        return MonadicTreeEvaluator(program, options=options, registry=registry)

    def run(self, evaluator, source):
        if not isinstance(source, Document):
            raise BackendError(
                f"monadic backend evaluates documents, got {type(source).__name__}"
            )
        return SelectionResult(
            evaluator.evaluate(source),
            document=source,
            resolver=evaluator.select,
            backend=self.name,
        )


class AutomataBackend(EvaluatorBackend):
    """Theorem 2.5: evaluate a tree automaton through its datalog compilation.

    The compiled program depends on the label alphabet, so the evaluator
    memo is keyed per (automaton content, labels); sessions derive labels
    from the queried documents when the caller does not pin them.
    """

    name = "automata"

    def accepts(self, program: object) -> bool:
        return isinstance(program, TreeAutomaton)

    def normalise(self, program: object) -> TreeAutomaton:
        if isinstance(program, TreeAutomaton):
            return program
        raise BackendError(
            f"automata backend expects a TreeAutomaton, "
            f"got {type(program).__name__}"
        )

    def cache_key(self, program, options, labels=None):
        return (_automaton_signature(program), labels or (), options)

    def build(self, program, options, registry, labels=None):
        if not labels:
            # An empty alphabet compiles a program that selects nothing on
            # every document — silently wrong, so refuse instead.
            raise BackendError(
                "automata backend needs a label alphabet: pass labels=... "
                "(Session.query derives it from the queried document)"
            )
        # Construct directly rather than through compiled_evaluator: the
        # session memoises this evaluator itself, and going through the
        # module-level (or per-registry) evaluator cache would pin a second
        # copy with independent eviction.  That cache serves the functional
        # compiled_select/compiled_evaluator API.
        compiled = compile_automaton(program, labels)
        return MonadicTreeEvaluator(compiled, options=options, registry=registry)

    def run(self, evaluator, source):
        if not isinstance(source, Document):
            raise BackendError(
                f"automata backend evaluates documents, got {type(source).__name__}"
            )
        return SelectionResult(
            evaluator.evaluate(source),
            document=source,
            resolver=evaluator.select,
            backend=self.name,
        )


_BACKENDS: Dict[str, EvaluatorBackend] = {}


def register_backend(backend: EvaluatorBackend, replace: bool = False) -> None:
    """Admit ``backend`` under ``backend.name`` for every future session.

    Registration is additive API surface: an existing name is only
    overwritten with ``replace=True`` so two libraries cannot silently
    shadow each other's evaluators.
    """
    if not backend.name:
        raise BackendError("backend must declare a non-empty name")
    if backend.name in _BACKENDS and not replace:
        raise BackendError(f"backend {backend.name!r} is already registered")
    _BACKENDS[backend.name] = backend


def available_backends() -> Tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def backend_named(name: str) -> EvaluatorBackend:
    try:
        return _BACKENDS[name]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        ) from None


def infer_backend(program: object) -> EvaluatorBackend:
    """The backend whose native program type matches ``program``.

    Checked in registration order; program *text* is ambiguous (datalog vs
    monadic syntax overlap) and therefore requires an explicit name.
    """
    for backend in _BACKENDS.values():
        if backend.accepts(program):
            return backend
    raise BackendError(
        f"no backend accepts programs of type {type(program).__name__}; "
        "pass backend=<name> explicitly "
        f"(available: {', '.join(available_backends())})"
    )


# MonadicProgram subclasses nothing and Program accepts any rules, so the
# registration order below doubles as the inference priority: the most
# specific program type must be probed first.
register_backend(MonadicBackend())
register_backend(AutomataBackend())
register_backend(SemiNaiveBackend())
