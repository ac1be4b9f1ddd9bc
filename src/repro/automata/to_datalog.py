"""Compiling tree automata into monadic datalog (Theorem 2.5, one direction).

Theorem 2.5 of the paper: every unary MSO-definable query over tau_ur is
definable in monadic datalog.  The textbook proof goes through tree automata:
an MSO query corresponds to a (deterministic, bottom-up) automaton with
selecting states; the automaton's run can be axiomatised in monadic datalog
with one predicate per state.  :func:`compile_automaton` performs that
construction over the firstchild/nextsibling view of documents, and the test
suite checks that the compiled program selects exactly the nodes the
automaton selects — an executable witness of the theorem.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..datalog.ast import Atom, Literal, Rule, Variable
from ..datalog.options import EngineOptions
from ..datalog.registry import PlanRegistry
from ..datalog.tree_edb import label_predicate
from ..mdatalog.evaluator import MonadicTreeEvaluator
from ..mdatalog.program import MonadicProgram
from ..tree.document import Document
from ..tree.node import Node
from .ranked import BOTTOM, State, TreeAutomaton

SELECTED = "selected"
ACCEPTED_EVERYWHERE = "_accepted_everywhere"
NO_NEXT_SIBLING = "_no_nextsibling"


def state_predicate(state: State) -> str:
    """The datalog predicate name carrying automaton state ``state``."""
    return f"state_{state}"


def compile_automaton(
    automaton: TreeAutomaton,
    labels: Iterable[str],
    query_predicate: str = SELECTED,
) -> MonadicProgram:
    """Compile ``automaton`` into a monadic datalog program.

    ``labels`` must cover the labels of the documents the program will be
    evaluated on (wildcard transitions of the automaton are expanded per
    label).  The resulting program has a single query predicate
    ``query_predicate`` selecting exactly ``automaton.select(document)``.
    """
    x = Variable("X")
    y = Variable("Y")
    z = Variable("Z")
    rules: List[Rule] = []

    # "has no next sibling" := lastsibling or root.
    rules.append(Rule(Atom(NO_NEXT_SIBLING, (x,)), (Literal(Atom("lastsibling", (x,))),)))
    rules.append(Rule(Atom(NO_NEXT_SIBLING, (x,)), (Literal(Atom("root", (x,))),)))

    label_set = sorted(set(labels))
    states = sorted((s for s in automaton.states() if s != BOTTOM), key=str)

    for label in label_set:
        for left in [BOTTOM, *states]:
            for right in [BOTTOM, *states]:
                target = automaton.transition(label, left, right)
                if target is None:
                    continue
                body: List[Literal] = [Literal(Atom(label_predicate(label), (x,)))]
                if left == BOTTOM:
                    body.append(Literal(Atom("leaf", (x,))))
                else:
                    body.append(Literal(Atom("firstchild", (x, y))))
                    body.append(Literal(Atom(state_predicate(left), (y,))))
                if right == BOTTOM:
                    body.append(Literal(Atom(NO_NEXT_SIBLING, (x,))))
                else:
                    body.append(Literal(Atom("nextsibling", (x, z))))
                    body.append(Literal(Atom(state_predicate(right), (z,))))
                rules.append(Rule(Atom(state_predicate(target), (x,)), tuple(body)))

    # Acceptance at the root, broadcast to every node.
    x0 = Variable("X0")
    for state in automaton.accepting:
        rules.append(
            Rule(
                Atom(ACCEPTED_EVERYWHERE, (x,)),
                (Literal(Atom(state_predicate(state), (x,))), Literal(Atom("root", (x,)))),
            )
        )
    rules.append(
        Rule(
            Atom(ACCEPTED_EVERYWHERE, (x,)),
            (Literal(Atom(ACCEPTED_EVERYWHERE, (x0,))), Literal(Atom("firstchild", (x0, x)))),
        )
    )
    rules.append(
        Rule(
            Atom(ACCEPTED_EVERYWHERE, (x,)),
            (Literal(Atom(ACCEPTED_EVERYWHERE, (x0,))), Literal(Atom("nextsibling", (x0, x)))),
        )
    )

    # Selection: selecting state + accepting run.
    for state in automaton.selecting:
        rules.append(
            Rule(
                Atom(query_predicate, (x,)),
                (
                    Literal(Atom(state_predicate(state), (x,))),
                    Literal(Atom(ACCEPTED_EVERYWHERE, (x,))),
                ),
            )
        )
    if not automaton.selecting:
        # Degenerate but well-formed program: nothing is ever selected, yet the
        # query predicate must exist.  Use an unsatisfiable combination.
        rules.append(
            Rule(
                Atom(query_predicate, (x,)),
                (Literal(Atom("root", (x,))), Literal(Atom("leaf", (x,))),
                 Literal(Atom(ACCEPTED_EVERYWHERE, (x,))), Literal(Atom("lastsibling", (x,)))),
            )
        )

    return MonadicProgram(rules, query_predicates=[query_predicate])


# Reusable (compile once, evaluate per document) consumers of the
# compilation.  Evaluation goes through :class:`MonadicTreeEvaluator`, i.e.
# through the ground+LTUR pipeline or the indexed-join generic engine.


def compiled_evaluator(
    automaton: TreeAutomaton,
    labels: Iterable[str],
    query_predicate: str = SELECTED,
    *,
    options: Optional[EngineOptions] = None,
    registry: Optional[PlanRegistry] = None,
) -> MonadicTreeEvaluator:
    """An evaluator for ``automaton``'s monadic datalog compilation.

    Each call builds a fresh evaluator; callers that query one automaton
    repeatedly hold on to it (or go through :meth:`repro.api.Session.query`,
    whose evaluator memo owns the reuse).  A fresh evaluator over a
    previously seen *program* still shares the downstream compilation: the
    TMNF rewrite (process-wide, :mod:`repro.mdatalog.evaluator`) and the
    generic engine's rule plans (``registry``, or the process-wide
    :mod:`repro.datalog.registry`).
    """
    return MonadicTreeEvaluator(
        compile_automaton(automaton, labels, query_predicate),
        options=options,
        registry=registry,
    )


def compiled_select(
    automaton: TreeAutomaton,
    document: Document,
    labels: Optional[Iterable[str]] = None,
    query_predicate: str = SELECTED,
    *,
    options: Optional[EngineOptions] = None,
    registry: Optional[PlanRegistry] = None,
) -> List[Node]:
    """Nodes of ``document`` selected by ``automaton``'s compiled program.

    Equivalent to ``automaton.select(document)`` (Theorem 2.5) but runs the
    datalog side of the bridge; ``labels`` defaults to the document's label
    set.
    """
    label_set = set(labels) if labels is not None else set(document.labels())
    evaluator = compiled_evaluator(
        automaton,
        label_set,
        query_predicate,
        options=options,
        registry=registry,
    )
    return evaluator.select(document, query_predicate)
