"""Tree automata: the executable face of the MSO <-> monadic datalog bridge."""

from .ranked import (
    BOTTOM,
    NondeterministicTreeAutomaton,
    TreeAutomaton,
    label_reachability_automaton,
    leaf_selector_automaton,
)
from .strings import ANY, EPSILON, NFA, NFABuilder
from .to_datalog import (
    compile_automaton,
    compiled_evaluator,
    compiled_select,
    state_predicate,
)
from .unranked import (
    HorizontalRule,
    UnrankedTreeAutomaton,
    automaton_from_child_pattern,
)

__all__ = [
    "ANY",
    "BOTTOM",
    "EPSILON",
    "HorizontalRule",
    "NFA",
    "NFABuilder",
    "NondeterministicTreeAutomaton",
    "TreeAutomaton",
    "UnrankedTreeAutomaton",
    "automaton_from_child_pattern",
    "compile_automaton",
    "compiled_evaluator",
    "compiled_select",
    "label_reachability_automaton",
    "leaf_selector_automaton",
    "state_predicate",
]
