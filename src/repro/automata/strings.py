"""Finite automata over symbol alphabets: the horizontal languages.

An unranked tree automaton reads the children of a node as a word over its
state alphabet (:mod:`repro.automata.unranked`); these NFAs, built with the
Thompson combinators of :class:`NFABuilder`, decide those words.  Element
paths compile their own automaton (:mod:`repro.elog.epath`).

Symbols are arbitrary hashable Python values (automaton states, tag names),
not characters, so Python's ``re`` module is not applicable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Sequence, Set, Tuple

Symbol = Hashable

EPSILON = object()  # sentinel for epsilon transitions
ANY = object()  # sentinel wildcard symbol matching any input symbol


@dataclass
class NFA:
    """A nondeterministic finite automaton with epsilon moves.

    States are integers.  ``transitions[state]`` maps a symbol (or the
    :data:`EPSILON` / :data:`ANY` sentinels) to a set of successor states.
    """

    initial: int
    accepting: Set[int]
    transitions: Dict[int, Dict[Hashable, Set[int]]] = field(default_factory=dict)

    # -- construction helpers -------------------------------------------
    def add_transition(self, source: int, symbol: Hashable, target: int) -> None:
        self.transitions.setdefault(source, {}).setdefault(symbol, set()).add(target)

    def states(self) -> Set[int]:
        result = {self.initial} | set(self.accepting)
        for source, moves in self.transitions.items():
            result.add(source)
            for targets in moves.values():
                result |= targets
        return result

    # -- execution -------------------------------------------------------
    def _epsilon_closure(self, states: Set[int]) -> Set[int]:
        closure = set(states)
        frontier = list(states)
        while frontier:
            state = frontier.pop()
            for target in self.transitions.get(state, {}).get(EPSILON, ()):
                if target not in closure:
                    closure.add(target)
                    frontier.append(target)
        return closure

    def _step(self, states: Set[int], symbol: Symbol) -> Set[int]:
        result: Set[int] = set()
        for state in states:
            moves = self.transitions.get(state, {})
            result |= moves.get(symbol, set())
            result |= moves.get(ANY, set())
        return self._epsilon_closure(result)

    def accepts(self, word: Sequence[Symbol]) -> bool:
        current = self._epsilon_closure({self.initial})
        for symbol in word:
            current = self._step(current, symbol)
            if not current:
                return False
        return bool(current & self.accepting)


class NFABuilder:
    """Thompson-style construction of NFAs from combinators."""

    def __init__(self) -> None:
        self._next_state = 0

    def _new_state(self) -> int:
        state = self._next_state
        self._next_state += 1
        return state

    def _fragment(self) -> Tuple[int, int, NFA]:
        start = self._new_state()
        end = self._new_state()
        return start, end, NFA(initial=start, accepting={end})

    # -- atomic fragments --------------------------------------------------
    def symbol(self, symbol: Symbol) -> NFA:
        start, end, nfa = self._fragment()
        nfa.add_transition(start, symbol, end)
        return nfa

    def any_symbol(self) -> NFA:
        start, end, nfa = self._fragment()
        nfa.add_transition(start, ANY, end)
        return nfa

    def empty(self) -> NFA:
        start, end, nfa = self._fragment()
        nfa.add_transition(start, EPSILON, end)
        return nfa

    # -- combinators --------------------------------------------------------
    def _merge(self, target: NFA, source: NFA) -> None:
        for state, moves in source.transitions.items():
            for symbol, successors in moves.items():
                for successor in successors:
                    target.add_transition(state, symbol, successor)

    def concat(self, first: NFA, second: NFA) -> NFA:
        result = NFA(initial=first.initial, accepting=set(second.accepting))
        self._merge(result, first)
        self._merge(result, second)
        for state in first.accepting:
            result.add_transition(state, EPSILON, second.initial)
        return result

    def union(self, first: NFA, second: NFA) -> NFA:
        start, end, result = self._fragment()
        self._merge(result, first)
        self._merge(result, second)
        result.add_transition(start, EPSILON, first.initial)
        result.add_transition(start, EPSILON, second.initial)
        for state in first.accepting | second.accepting:
            result.add_transition(state, EPSILON, end)
        return result

    def star(self, inner: NFA) -> NFA:
        start, end, result = self._fragment()
        self._merge(result, inner)
        result.add_transition(start, EPSILON, inner.initial)
        result.add_transition(start, EPSILON, end)
        for state in inner.accepting:
            result.add_transition(state, EPSILON, inner.initial)
            result.add_transition(state, EPSILON, end)
        return result

    def plus(self, inner: NFA) -> NFA:
        return self.concat(inner, self.star(inner))

    def optional(self, inner: NFA) -> NFA:
        return self.union(inner, self.empty())

    def sequence(self, symbols: Iterable[Symbol]) -> NFA:
        result = self.empty()
        for symbol in symbols:
            result = self.concat(result, self.symbol(symbol))
        return result
