"""Cardinality and join-cost estimation over adorned datalog programs.

The second half of the optimizer layer (:mod:`repro.analysis.dataflow`
computes *what is bound*; this module computes *how much it costs*):

* :func:`relation_estimates` — order-of-magnitude relation sizes.  For the
  tau_ur tree signature the estimates encode the structure of documents
  (one root, roughly half the nodes are leaves, labels partition the
  nodes); for generic EDB signatures they fall back to arity-scaled
  defaults.  IDB sizes come from a bounded monotone fixpoint over the
  per-rule output estimates, capped at ``domain_size ** arity``.
* :func:`rule_costs` — per adorned rule, the step-by-step row estimates of
  the engine's own greedy join order: each step multiplies the current row
  count by the step's *fan-out* ``size / domain^bound``, the classic
  uniform-selectivity model.  The rule cost is the total intermediate row
  count; ``magnitude`` is its order of magnitude (``log10``).
* :func:`check_performance` — the ``P00x`` diagnostic catalog
  (:data:`repro.analysis.diagnostics.RULE_CATALOG`): estimated cartesian
  blowups, linearizable recursion, index advice, undemanded computation,
  unbound joins.  All warnings/infos — performance findings never gate
  evaluation.

Nothing here feeds back into evaluation: the engine plans its joins from
live relation sizes.  :func:`repro.analysis.explain.explain` runs the same
planner over these estimates to show what they predict.

Everything is deterministic (sorted iteration, pure arithmetic) — explain
snapshots golden-test the rendered numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log10
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..datalog.ast import Program, Rule, get_span
from ..datalog.cache import LruMap
from ..datalog.stratify import dependency_graph
from ..datalog.tree_edb import EXTENDED_BINARY, TAU_UR_BINARY, TAU_UR_UNARY
from .datalog_checks import BUILTIN_PREDICATES, TREE_SIGNATURE
from .dataflow import AdornedProgram, AdornedRule, adorn
from .diagnostics import INFO, WARNING, Diagnostic

#: Default modelled domain size (distinct values / document nodes).
DEFAULT_DOMAIN_SIZE = 1000

#: Cost above which a cartesian-structure join is reported as a blowup.
BLOWUP_THRESHOLD = 1e6

#: Fixpoint rounds for the IDB size estimator — enough for the recursion
#: depths that change an order of magnitude, bounded for compile latency.
_MAX_ROUNDS = 20

#: Content-keyed memo of :func:`relation_estimates` results.  Explain and
#: the ``P00x`` checks both start from the estimates, and a session or
#: pipeline analysing many components over a handful of programs must pay
#: the estimate fixpoint once per program content, not per component.
#: LruMap serialises access internally (thread-safe).
_ESTIMATES_MEMO: "LruMap[tuple, Dict[str, float]]" = LruMap(128)


def _content_key(
    program: Program, edb: "Optional[object]", domain_size: int
) -> tuple:
    """Memo key: rule set + EDB split + tree-signature flag + domain."""
    return (
        frozenset(program.rules),
        program.edb_predicates,
        edb == TREE_SIGNATURE,
        domain_size,
    )


def relation_estimates(
    program: Program,
    *,
    edb: "Optional[object]" = None,
    domain_size: int = DEFAULT_DOMAIN_SIZE,
) -> Dict[str, float]:
    """Estimated relation sizes for every predicate the program mentions.

    ``edb`` follows the :func:`repro.analysis.datalog_checks.check_program`
    convention: :data:`TREE_SIGNATURE` selects the tau_ur tree heuristics,
    any other iterable (or ``None``) gets generic arity-scaled defaults.

    Results are memoised by program content (callers get a private copy).
    """
    return dict(
        _ESTIMATES_MEMO.get_or_build(
            _content_key(program, edb, domain_size),
            lambda: _estimate(program, edb, domain_size),
        )
    )


def _estimate(
    program: Program, edb: "Optional[object]", domain_size: int
) -> Dict[str, float]:
    n = float(domain_size)
    tree = edb == TREE_SIGNATURE
    idb = {rule.head.predicate for rule in program.rules}
    estimates: Dict[str, float] = {}

    arity_of: Dict[str, int] = {}
    for rule in program.rules:
        arity_of.setdefault(rule.head.predicate, rule.head.arity)
        for literal in rule.body:
            arity_of.setdefault(literal.atom.predicate, literal.atom.arity)

    for predicate, arity in arity_of.items():
        if predicate in idb or predicate in BUILTIN_PREDICATES:
            continue
        if tree:
            estimates[predicate] = _tree_estimate(predicate, n)
        else:
            # Generic EDB: a unary relation holds about the domain, wider
            # ones a few facts per element (edges of a sparse graph).
            estimates[predicate] = n if arity <= 1 else 2.0 * n

    # IDB sizes: bounded monotone fixpoint over per-rule output estimates.
    for predicate in idb:
        estimates[predicate] = 0.0
    adorned = adorn(program, sizes=estimates)
    for _ in range(_MAX_ROUNDS):
        changed = False
        totals: Dict[str, float] = {predicate: 0.0 for predicate in idb}
        for adorned_rule in adorned.rules:
            if adorned_rule.head_adornment.count("b"):
                continue  # size estimates come from the full (all-free) rules
            rows = _rule_rows(adorned_rule, estimates, n)
            totals[adorned_rule.head_predicate] += rows
        for predicate, total in totals.items():
            arity = arity_of.get(predicate, 1)
            capped = min(total, n**arity)
            if capped > estimates[predicate]:
                estimates[predicate] = capped
                changed = True
        if not changed:
            break
    return estimates


def _tree_estimate(predicate: str, n: float) -> float:
    """tau_ur heuristics: structural facts about any document tree."""
    if predicate == "root":
        return 1.0
    if predicate.startswith("label_"):
        return max(n / 8.0, 1.0)  # labels partition the nodes
    if predicate in TAU_UR_UNARY or predicate in TAU_UR_BINARY:
        return max(n / 2.0, 1.0)  # leaf/firstchild/… hold for about half
    if predicate in EXTENDED_BINARY:
        return n  # child: one edge per non-root node
    return n


def _rule_rows(
    adorned_rule: AdornedRule, estimates: Mapping[str, float], domain: float
) -> float:
    """Final row estimate of one adorned rule (uniform-selectivity model)."""
    rows = 1.0
    for literal in adorned_rule.join_steps():
        size = estimates.get(literal.predicate, domain)
        fanout = size / (domain ** len(literal.bound))
        rows *= max(fanout, 1e-3)
    return rows


@dataclass(frozen=True)
class StepCost:
    """One join step of one adorned rule, with its row estimates."""

    literal_position: int
    predicate: str
    adornment: str
    relation_size: float
    rows_out: float  # estimated rows after this step


@dataclass(frozen=True)
class RuleCost:
    """The estimated evaluation cost of one adorned rule."""

    adorned: AdornedRule
    steps: Tuple[StepCost, ...]
    cost: float  # total intermediate rows across all steps

    @property
    def magnitude(self) -> int:
        """Order of magnitude of the cost (``ceil(log10)``, min 0)."""
        if self.cost <= 1.0:
            return 0
        return int(log10(self.cost)) + 1

    @property
    def rows(self) -> float:
        """Estimated output rows (before head projection dedup)."""
        return self.steps[-1].rows_out if self.steps else 1.0


def rule_costs(
    adorned: AdornedProgram,
    estimates: Mapping[str, float],
    *,
    domain_size: int = DEFAULT_DOMAIN_SIZE,
) -> List[RuleCost]:
    """Step-by-step cost estimates for every adorned rule, program order."""
    n = float(domain_size)
    costs: List[RuleCost] = []
    for adorned_rule in adorned.rules:
        rows = 1.0
        total = 0.0
        steps: List[StepCost] = []
        for literal in adorned_rule.join_steps():
            size = estimates.get(literal.predicate, n)
            fanout = max(size / (n ** len(literal.bound)), 1e-3)
            rows *= fanout
            total += rows
            steps.append(
                StepCost(
                    literal_position=literal.position,
                    predicate=literal.predicate,
                    adornment=literal.adornment,
                    relation_size=size,
                    rows_out=rows,
                )
            )
        costs.append(RuleCost(adorned=adorned_rule, steps=tuple(steps), cost=total))
    return costs


# ---------------------------------------------------------------------------
# The P-series performance diagnostics
# ---------------------------------------------------------------------------


def check_performance(
    program: Program,
    *,
    edb: "Optional[object]" = None,
    query_predicates: Optional[Sequence[str]] = None,
    domain_size: int = DEFAULT_DOMAIN_SIZE,
) -> List[Diagnostic]:
    """All ``P00x`` performance diagnostics for ``program``, id-sorted.

    Opt-in (``analyze(..., performance=True)`` / CLI ``--perf``) and always
    part of ``explain()`` output; never error severity.
    """
    estimates = relation_estimates(program, edb=edb, domain_size=domain_size)
    adorned = adorn(program, query_predicates, sizes=estimates)
    costs = rule_costs(adorned, estimates, domain_size=domain_size)

    diagnostics: List[Diagnostic] = []
    diagnostics.extend(_check_unbound_joins(costs))
    diagnostics.extend(_check_nonlinear_recursion(program))
    diagnostics.extend(_check_index_advice(adorned))
    diagnostics.extend(
        _check_undemanded(program, query_predicates, estimates)
    )
    diagnostics.sort(key=lambda d: (d.rule_id, d.span.line if d.span else 0, d.subject))
    return diagnostics


def _check_unbound_joins(costs: Sequence[RuleCost]) -> List[Diagnostic]:
    """P005 (and P001 when the estimate blows past the budget)."""
    diagnostics: List[Diagnostic] = []
    seen: Set[Tuple[str, str, str]] = set()
    for cost in costs:
        rule = cost.adorned.rule
        unbound = [
            step
            for index, step in enumerate(cost.steps)
            if index > 0 and not step.adornment.count("b") and step.adornment
        ]
        if not unbound:
            continue
        witness = unbound[0]
        key = (
            rule.head.predicate,
            cost.adorned.head_adornment,
            witness.predicate,
        )
        if key in seen:
            continue
        seen.add(key)
        diagnostics.append(
            Diagnostic(
                "P005",
                WARNING,
                f"join step {witness.predicate}^{witness.adornment} in the rule "
                f"for {rule.head.predicate!r} (adorned "
                f"{rule.head.predicate}^{cost.adorned.head_adornment}) is "
                "completely unbound: no earlier literal shares a variable, so "
                "the engine enumerates its whole relation per partial row",
                span=get_span(rule),
                subject=rule.head.predicate,
            )
        )
        if cost.cost >= BLOWUP_THRESHOLD:
            diagnostics.append(
                Diagnostic(
                    "P001",
                    WARNING,
                    f"estimated cartesian blowup in the rule for "
                    f"{rule.head.predicate!r}: about {cost.cost:.1e} "
                    f"intermediate rows (magnitude 10^{cost.magnitude}) from "
                    f"the unbound join over {witness.predicate!r}",
                    span=get_span(rule),
                    subject=rule.head.predicate,
                )
            )
    return diagnostics


def _positive_sccs(program: Program) -> Dict[str, int]:
    """Predicate → SCC id of the positive dependency graph (iterative Tarjan)."""
    graph = dependency_graph(program)
    idb = program.idb_predicates()
    edges: Dict[str, List[str]] = {
        head: sorted({pred for pred, negated in deps if not negated and pred in idb})
        for head, deps in graph.items()
    }
    index_of: Dict[str, int] = {}
    low: Dict[str, int] = {}
    scc_of: Dict[str, int] = {}
    stack: List[str] = []
    on_stack: Set[str] = set()
    counter = [0]
    scc_counter = [0]

    for start in sorted(edges):
        if start in index_of:
            continue
        work: List[Tuple[str, int]] = [(start, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index_of[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            children = edges.get(node, [])
            advanced = False
            for next_index in range(child_index, len(children)):
                child = children[next_index]
                if child not in index_of:
                    work[-1] = (node, next_index + 1)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if low[node] == index_of[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc_of[member] = scc_counter[0]
                    if member == node:
                        break
                scc_counter[0] += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return scc_of


def _check_nonlinear_recursion(program: Program) -> List[Diagnostic]:
    """P002: two or more recursive body literals in one rule.

    Theorem 2.4 evaluates TMNF — where every rule has at most one
    intensional body atom — in linear time; a rule joining two members of
    its own recursive component forces the quadratic general case.
    """
    scc_of = _positive_sccs(program)
    diagnostics: List[Diagnostic] = []
    for rule in program.rules:
        head_scc = scc_of.get(rule.head.predicate)
        if head_scc is None:
            continue
        recursive = [
            literal.atom.predicate
            for literal in rule.body
            if not literal.negated
            and scc_of.get(literal.atom.predicate) == head_scc
        ]
        if len(recursive) < 2:
            continue
        diagnostics.append(
            Diagnostic(
                "P002",
                WARNING,
                f"non-linear recursion in the rule for {rule.head.predicate!r}: "
                f"body joins {len(recursive)} literals ({', '.join(recursive)}) "
                "from its own recursive component; a linear rewrite (one "
                "recursive literal per rule, as in the paper's TMNF normal "
                "form, Theorem 2.4) would evaluate in linear time",
                span=get_span(rule),
                subject=rule.head.predicate,
            )
        )
    return diagnostics


def _check_index_advice(adorned: AdornedProgram) -> List[Diagnostic]:
    """P003: the exact bound-position keys the compiled plans will probe."""
    diagnostics: List[Diagnostic] = []
    for predicate, keys in adorned.index_advice().items():
        rendered = ", ".join("(" + ",".join(map(str, key)) + ")" for key in keys)
        diagnostics.append(
            Diagnostic(
                "P003",
                INFO,
                f"advise hash index(es) on {predicate!r} keyed by argument "
                f"position(s) {rendered}: the adorned join orders probe "
                "these bound positions",
                subject=predicate,
            )
        )
    return diagnostics


def _check_undemanded(
    program: Program,
    query_predicates: Optional[Sequence[str]],
    estimates: Mapping[str, float],
) -> List[Diagnostic]:
    """P004: IDB work the query predicates never demand (cost-annotated D007)."""
    if not query_predicates:
        return []
    idb = program.idb_predicates()
    by_head: Dict[str, List[Rule]] = {}
    for rule in program.rules:
        by_head.setdefault(rule.head.predicate, []).append(rule)
    reachable: Set[str] = set(p for p in query_predicates if p in idb)
    frontier = list(reachable)
    while frontier:
        predicate = frontier.pop()
        for rule in by_head.get(predicate, ()):
            for literal in rule.body:
                body_predicate = literal.atom.predicate
                if body_predicate in idb and body_predicate not in reachable:
                    reachable.add(body_predicate)
                    frontier.append(body_predicate)
    diagnostics: List[Diagnostic] = []
    for predicate in sorted(idb - reachable):
        wasted = estimates.get(predicate, 0.0)
        diagnostics.append(
            Diagnostic(
                "P004",
                WARNING,
                f"predicate {predicate!r} is computed but never demanded by "
                f"the query predicate(s) {', '.join(sorted(query_predicates))}"
                f"; the fixpoint still materialises an estimated {wasted:.1e} "
                "rows for it",
                span=get_span(by_head[predicate][0]),
                subject=predicate,
            )
        )
    return diagnostics
