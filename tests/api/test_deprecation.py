"""Pre-façade surfaces are gone and fail loudly.

The per-constructor tuning kwargs (``use_index=``, ``cache_size=``,
``share_interpreter=``, ...) are gone: passing one raises an ordinary
:class:`TypeError`, and tuning goes through ``options=EngineOptions(...)``.
The imperative ``InformationPipe.add/connect/chain`` wiring is gone too:
pipelines are declared with ``Pipeline.builder()``.  So is the worker-process
scale-out (``workers=`` on the session batch paths, ``run_all(distrib=)``,
``build(distributable=)``): batch parallelism is threads via
``max_workers=``.
"""

from __future__ import annotations

import warnings

import pytest

from repro import EngineOptions, Pipeline, Session
from repro.automata import compiled_evaluator, compiled_select, leaf_selector_automaton
from repro.datalog import SemiNaiveEngine, parse_program
from repro.elog import parse_elog
from repro.mdatalog import MonadicProgram, MonadicTreeEvaluator
from repro.server import (
    DatalogQueryComponent,
    InformationPipe,
    TransformationServer,
    WrapperComponent,
)
from repro.tree import tree
from repro.web import SimulatedWeb

PROGRAM = parse_program(
    """
    reach(X, Y) :- edge(X, Y).
    reach(X, Y) :- reach(X, Z), edge(Z, Y).
    """
)
MONADIC = MonadicProgram.parse(
    """
    italic(X) :- label_i(X).
    italic(X) :- italic(X0), firstchild(X0, X).
    italic(X) :- italic(X0), nextsibling(X0, X).
    """,
    query_predicates=["italic"],
)


@pytest.fixture
def doc():
    return tree(("doc", ("i", ("b",)), ("a",)))


def test_engine_default_construction_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        SemiNaiveEngine(PROGRAM)
        SemiNaiveEngine(PROGRAM, options=EngineOptions(share_plans=False))


def _wrapper_program():
    return parse_elog("offer(S, X) <- document(_, S), subelem(S, ?.tr, X)")


#: One pre-façade tuning kwarg per constructor that used to accept them
#: (tuning now goes through ``options=EngineOptions(...)`` only), plus the
#: removed worker-process kwargs of the batch paths.
REMOVED_KWARGS = {
    "SemiNaiveEngine": lambda doc: SemiNaiveEngine(PROGRAM, use_index=False),
    "MonadicTreeEvaluator": lambda doc: MonadicTreeEvaluator(MONADIC, force_generic=True),
    "compiled_evaluator": lambda doc: compiled_evaluator(
        leaf_selector_automaton(("doc", "i")), ("doc", "i"), share_plans=False
    ),
    "compiled_select": lambda doc: compiled_select(
        leaf_selector_automaton(("doc", "i")), doc, force_generic=True
    ),
    "DatalogQueryComponent": lambda doc: DatalogQueryComponent(
        "q", MONADIC, lambda: doc, cache_size=4
    ),
    "WrapperComponent": lambda doc: WrapperComponent(
        "w", _wrapper_program(), SimulatedWeb(), "shop.test", share_interpreter=False
    ),
    "Session.query_many": lambda doc: Session().query_many(MONADIC, [doc], workers=2),
    "Session.extract_many": lambda doc: Session().extract_many(
        _wrapper_program(), [doc], workers=2
    ),
    "TransformationServer.run_all": lambda doc: TransformationServer().run_all(
        distrib="process"
    ),
    "PipelineBuilder.build": lambda doc: Pipeline.builder("p")
    .source("s", lambda: doc)
    .build(distributable=True),
}


@pytest.mark.parametrize("constructor", sorted(REMOVED_KWARGS))
def test_removed_tuning_kwargs_raise_type_error(constructor, doc):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        REMOVED_KWARGS[constructor](doc)


def test_imperative_pipe_wiring_is_removed():
    pipe = InformationPipe("legacy")
    for method in ("add", "connect", "chain"):
        assert not hasattr(pipe, method), method
