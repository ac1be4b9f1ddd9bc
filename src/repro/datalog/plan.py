"""Compile-once rule plans for the semi-naive engine.

A per-call join would re-derive its whole strategy on every rule firing:
the greedy join order from live relation sizes, the bound argument
positions and probe keys per literal, the ready/pending split of
builtin/negation filters, and a generic term-by-term unification with
dictionary copies per matched fact.  For deep recursions (transitive
closure, graph reachability) that per-call overhead dominates the actual
probing.

This module moves all of that work to compile time:

* :class:`RulePlan` — built once per rule at engine construction.  It fixes a
  variable→slot layout (substitutions become one local per slot instead
  of dictionaries), precompiles every builtin/negated literal into a
  :class:`_CompiledFilter`, and precompiles the head projection.
* ``RulePlan.run(facts, delta, delta_position)`` — looks up (or compiles) a
  :class:`_JoinPlan` for the requested delta position and the current
  *size buckets* of the joined relations, then calls its executor.  Join orders
  are memoised per ``(delta_position, bucket signature)`` with coarse
  power-of-two buckets (``size.bit_length()``), so the greedy planner only
  re-runs when a relation size crosses a bucket boundary — a handful of
  times over a whole fixpoint instead of once per iteration.  The memo is
  database-sized state: when a plan is shared across engines through
  :mod:`repro.datalog.registry`, each engine passes its own memo into
  ``run`` so one engine's relation sizes never steer another's joins.
* :class:`_JoinStep` — one probe of the join: the bound argument
  positions, a precompiled key spec (constants inlined, variables as slots),
  a bind spec for newly-bound slots, intra-atom equality checks for repeated
  variables, and the filters that become ready once this step has bound its
  variables (the hoist points are resolved ahead of time).
* **Generated executors** — every :class:`_JoinPlan` is lowered at compile
  time into one Python function with a ``for`` loop per join step: slots
  are locals; a step with bound positions loops over ``g<d>(key, ())``,
  the ``get`` of its relation's ``index(positions, arity)`` captured once
  per call (so a probe is one ``dict.get`` and its rows need no arity
  test); a step with none iterates the relation, and the delta step
  iterates or probes the delta window (both test the arity); the
  repeated-variable and hoisted-filter checks are inline ``if ...:
  continue`` tests, and the innermost loop appends the head tuple (a join
  longer than :data:`_LOOPS_PER_FUNCTION` steps continues in further
  functions it calls, so rules of any length compile).  The source holds only
  generated names and integers — constants, predicate names and filters
  arrive as arguments — so rules of the same shape compile once
  (:func:`_factory` memoises by source text).  A plan's executor is
  emitted on its first run: the estimate-driven plans
  :mod:`repro.analysis.explain` compiles through :meth:`RulePlan.compile`
  are rendered, never run, so they generate no code.

Executors read the columnar storage of :mod:`repro.datalog.columns`
directly, and their nested loops iterate live index buckets and row
arrays.  Every index catches up when the executor's setup captures it,
before any loop iterates.  That is safe only because nothing inserts
while an executor runs: it returns its head facts as a list and the
engine appends them afterwards.  The property tests assert they derive
exactly the facts of a naive nested-loop reference evaluator.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .ast import Constant, Literal, Rule, Variable
from .cache import LruMap
from .columns import ColumnarDatabase, ColumnarRelation, ColumnarWindow

Fact = Tuple[object, ...]

#: One relation as an executor reads it: a whole relation or a delta window.
Relation = Union[ColumnarRelation, ColumnarWindow]

#: A generated whole-rule executor: ``(facts, delta_rel) -> facts``.
Executor = Callable[[ColumnarDatabase, Optional[Relation]], List[Fact]]

#: ``(is_slot, payload)`` — payload is a slot index when ``is_slot`` else a
#: constant value.  Used for probe keys, filter arguments and head terms.
ValueSpec = Tuple[Tuple[bool, object], ...]

#: ``(delta_position, bucket signature)`` → the chosen plan's executor.
#: Engines that share a plan (repro/datalog/registry.py) each pass their own
#: memo into :meth:`RulePlan.run`, keeping database-sized state per engine.
PlanMemo = Dict[Tuple[Optional[int], Tuple[int, ...]], Executor]


def greedy_join_order(
    body: Sequence[Literal],
    relational: Sequence[int],
    delta_position: Optional[int],
    sizes: Mapping[int, float],
    bound: Optional[Set[Variable]] = None,
) -> List[int]:
    """Greedy selectivity ordering of the positive relational literals.

    This is THE join-order policy of the engine — shared verbatim between
    runtime plan compilation (:meth:`RulePlan.compile`, with live relation
    sizes) and static analysis (:mod:`repro.analysis.dataflow`, with
    estimated sizes), so the adornments the analyzer reports are the
    binding patterns the engine probes with whenever live sizes rank the
    relations as the estimates do.

    The delta literal (when present) seeds the order — it carries the
    novelty and is typically the smallest relation.  Each following pick
    maximises the number of already-bound terms (constants plus variables
    bound by earlier literals, plus any ``bound`` variables the caller
    supplies, e.g. head variables bound by a demanded adornment) and
    tie-breaks on smaller relation size.
    """
    remaining = list(relational)
    order: List[int] = []
    seen: Set[Variable] = set(bound) if bound else set()

    def absorb(position: int) -> None:
        for term in body[position].atom.terms:
            if isinstance(term, Variable):
                seen.add(term)

    if delta_position is not None and delta_position in remaining:
        remaining.remove(delta_position)
        order.append(delta_position)
        absorb(delta_position)
    while remaining:

        def selectivity(position: int) -> Tuple[int, float]:
            atom = body[position].atom
            bound_terms = sum(
                1
                for term in atom.terms
                if isinstance(term, Constant) or term in seen
            )
            return (bound_terms, -sizes[position])

        best = max(remaining, key=selectivity)
        remaining.remove(best)
        order.append(best)
        absorb(best)
    return order


class _CompiledFilter:
    """A builtin comparison or negated literal, precompiled to slot form.

    ``slots`` is the set of row slots the filter reads; a filter is hoisted
    to the earliest join step after which all of them are bound.  Filters
    over variables no relational literal binds cannot be evaluated:
    they raise :class:`~repro.datalog.engine.EvaluationError` the first time
    a substitution actually reaches them.
    """

    __slots__ = ("spec", "negated", "fn", "predicate", "slots", "unbound_term", "order")

    def __init__(
        self,
        literal: Literal,
        order: int,
        slot_of: Mapping[Variable, int],
        relational_slots: Set[int],
        builtins: Mapping[str, Callable[..., bool]],
    ) -> None:
        atom = literal.atom
        self.order = order
        self.negated = literal.negated
        self.fn = builtins.get(atom.predicate)
        self.predicate = atom.predicate
        spec: List[Tuple[bool, object]] = []
        slots: Set[int] = set()
        self.unbound_term: Optional[Variable] = None
        for term in atom.terms:
            if isinstance(term, Constant):
                spec.append((False, term.value))
            else:
                slot = slot_of[term]
                spec.append((True, slot))
                slots.add(slot)
                if slot not in relational_slots and self.unbound_term is None:
                    self.unbound_term = term
        self.spec: ValueSpec = tuple(spec)
        self.slots = frozenset(slots)

    def holds(self, values: Fact, facts: ColumnarDatabase) -> bool:
        """Whether the filter admits its argument ``values``."""
        if self.fn is not None:
            holds = self.fn(*values)
            return not holds if self.negated else holds
        # Negated relational literal; its relation is complete (stratified
        # negation evaluates strictly lower strata first).
        return not facts.contains_fact(self.predicate, values)


class _JoinStep:
    """One probe of a compiled join: everything the emitter needs."""

    __slots__ = (
        "position",
        "predicate",
        "from_delta",
        "arity",
        "bound_positions",
        "key_spec",
        "bind_spec",
        "check_spec",
        "filters_after",
    )

    def __init__(
        self,
        position: int,
        predicate: str,
        from_delta: bool,
        arity: int,
        bound_positions: Tuple[int, ...],
        key_spec: ValueSpec,
        bind_spec: Tuple[Tuple[int, int], ...],
        check_spec: Tuple[Tuple[int, int], ...],
        filters_after: Tuple[_CompiledFilter, ...],
    ) -> None:
        self.position = position
        self.predicate = predicate
        self.from_delta = from_delta
        self.arity = arity
        self.bound_positions = bound_positions
        self.key_spec = key_spec
        self.bind_spec = bind_spec
        self.check_spec = check_spec
        self.filters_after = filters_after


#: Join steps (nested ``for`` loops) per generated function.  CPython
#: refuses to compile a function with more than 20 statically nested
#: blocks, so a longer join continues in another function that the
#: innermost loop calls with the bound slots the rest of the join reads.
_LOOPS_PER_FUNCTION = 16


def _executor_source(
    steps: Tuple[_JoinStep, ...],
    initial_filters: Tuple[_CompiledFilter, ...],
    leftover_filters: Tuple[_CompiledFilter, ...],
    head_spec: ValueSpec,
    head_unbound: Optional[Variable],
) -> Tuple[str, Tuple[object, ...]]:
    """Lower one join order to the source of an executor factory.

    Returns ``(source, values)``: ``source`` defines ``make(...)``, which
    takes ``values`` and returns the executor ``(facts, delta_rel) ->
    facts``.  The executor is one ``for`` loop per join step (slot ``s``
    lives in the local ``v<s>``) around the head emission; every
    :data:`_LOOPS_PER_FUNCTION` steps the nest continues in a function
    ``s<k>(v...)`` that takes the bound slots it reads as arguments, so
    no function nests deeper than that however long the rule.  Everything
    that comes from the rule itself — constants, predicate names, filters,
    error messages — reaches the executor through ``values``; the source
    holds only generated names and integers, so rules of the same shape
    share one source text and one compiled factory.
    """
    names: List[str] = []
    values: List[object] = []

    def bind(prefix: str, value: object) -> str:
        name = f"{prefix}{len(names)}"
        names.append(name)
        values.append(value)
        return name

    def tuple_of(items: Sequence[str]) -> str:
        return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"

    #: Slot -> the expression that reads it: a local, or (for the innermost
    #: step) the fact indexed in place.
    expr: Dict[object, str] = {}

    def arg(is_slot: bool, payload: object) -> str:
        return expr[payload] if is_slot else bind("c", payload)

    def check(compiled: _CompiledFilter) -> str:
        args = tuple_of([arg(is_slot, payload) for is_slot, payload in compiled.spec])
        return f"{bind('h', compiled.holds)}({args}, facts)"

    def reads(later: Sequence[_JoinStep]) -> Set[object]:
        """Slots the head or a key or filter of ``later`` reads."""
        slots: Set[object] = {slot for is_slot, slot in head_spec if is_slot}
        for step in later:
            slots.update(slot for is_slot, slot in step.key_spec if is_slot)
            for compiled in step.filters_after:
                slots.update(compiled.slots)
        return slots

    # Binding a slot nothing reads would be a dead store.
    read = reads(steps)

    setup: List[str] = []
    #: The loop nest, one line list per generated function; every list
    #: but the first starts with its ``def``.
    chunks: List[List[str]] = [[]]
    for compiled in initial_filters:
        setup += [f"if not {check(compiled)}:", "    return []"]
    indent = ""
    for depth, step in enumerate(steps):
        if depth and depth % _LOOPS_PER_FUNCTION == 0:
            rest = reads(steps[depth:])
            params = ", ".join(name for slot, name in expr.items() if slot in rest)
            chunks[-1].append(f"{indent}s{len(chunks)}({params})")
            chunks.append([f"def s{len(chunks)}({params}):"])
            indent = "    "
        loops = chunks[-1]
        fact = f"f{depth}"
        if step.from_delta:
            relation = "delta_rel"
        else:
            relation = f"facts.lookup({bind('p', step.predicate)})"
        keys = [arg(is_slot, payload) for is_slot, payload in step.key_spec]
        positions = tuple_of([str(position) for position in step.bound_positions])
        # Only scans and the delta window need an arity test: an index
        # holds rows of the step's arity only.
        skip = [f"len({fact}) != {step.arity}"]
        if not keys:
            setup.append(f"r{depth} = {relation}")
            candidates = f"r{depth}"
        elif not step.from_delta:
            setup.append(f"g{depth} = {relation}.index({positions}, {step.arity}).get")
            key = keys[0] if len(keys) == 1 else tuple_of(keys)
            candidates = f"g{depth}({key}, ())"
            skip = []
        elif len(keys) == 1:
            setup.append(f"q{depth} = {relation}.probe1")
            candidates = f"q{depth}({step.bound_positions[0]}, {keys[0]})"
        else:
            setup.append(f"q{depth} = {relation}.probe")
            candidates = f"q{depth}({positions}, {tuple_of(keys)})"
        loops.append(f"{indent}for {fact} in {candidates}:")
        indent += "    "
        skip += [f"{fact}[{i}] != {fact}[{j}]" for i, j in step.check_spec]
        if skip:
            loops += [f"{indent}if {' or '.join(skip)}:", f"{indent}    continue"]
        # The innermost step's bindings feed only the head (and its own
        # filters): unless a filter reads them, index the fact in place.
        inline = depth == len(steps) - 1 and not step.filters_after
        for index, slot in step.bind_spec:
            if inline:
                expr[slot] = f"{fact}[{index}]"
            elif slot in read:
                expr[slot] = f"v{slot}"
                loops.append(f"{indent}v{slot} = {fact}[{index}]")
        for compiled in step.filters_after:
            loops += [f"{indent}if not {check(compiled)}:", f"{indent}    continue"]

    unbound = leftover_filters[0].unbound_term if leftover_filters else head_unbound
    if unbound is not None:
        message = bind("m", f"unbound variable {unbound} in rule head")
        chunks[-1].append(f"{indent}raise EvaluationError({message})")
    else:
        head = tuple_of([arg(is_slot, payload) for is_slot, payload in head_spec])
        chunks[-1].append(f"{indent}append({head})")
    defs = [line for chunk in chunks[1:] for line in chunk]
    body = setup + ["out = []", "append = out.append"] + defs + chunks[0] + ["return out"]
    source = "\n".join(
        [f"def make({', '.join(names)}):", "    def execute(facts, delta_rel):"]
        + [f"        {line}" for line in body]
        + ["    return execute", ""]
    )
    return source, tuple(values)


@functools.lru_cache(maxsize=1024)
def _factory(source: str) -> Callable[..., Executor]:
    """The ``make`` function ``source`` defines, compiled once per text."""
    from .engine import EvaluationError

    namespace: Dict[str, Any] = {"EvaluationError": EvaluationError}
    exec(compile(source, "<datalog executor>", "exec"), namespace)
    return namespace["make"]


class _JoinPlan:
    """A fixed join order: its step/filter layouts, and the executor
    generated from them on the plan's first run.

    ``analysis/explain`` renders the layouts; evaluation goes through
    :attr:`executor` only (:meth:`RulePlan._executor_for`).
    """

    __slots__ = ("steps", "initial_filters", "leftover_filters", "executor")

    def __init__(
        self,
        steps: Tuple[_JoinStep, ...],
        initial_filters: Tuple[_CompiledFilter, ...],
        leftover_filters: Tuple[_CompiledFilter, ...],
    ) -> None:
        self.steps = steps
        self.initial_filters = initial_filters
        self.leftover_filters = leftover_filters
        self.executor: Optional[Executor] = None


class RulePlan:
    """The compile-once evaluation strategy of a single rule."""

    __slots__ = (
        "rule",
        "head_predicate",
        "slot_of",
        "relational",
        "filters",
        "head_spec",
        "head_unbound",
        "_rel_preds",
        "_body_preds",
        "_plans",
        "_lowered",
    )

    def __init__(self, rule: Rule, builtins: Mapping[str, Callable[..., bool]]) -> None:
        self.rule = rule
        self.head_predicate = rule.head.predicate

        # Variable→slot layout over the whole rule (body first, then head).
        slot_of: Dict[Variable, int] = {}
        for literal in rule.body:
            for term in literal.atom.terms:
                if isinstance(term, Variable) and term not in slot_of:
                    slot_of[term] = len(slot_of)
        for term in rule.head.terms:
            if isinstance(term, Variable) and term not in slot_of:
                slot_of[term] = len(slot_of)
        self.slot_of = slot_of

        # Positive relational literals are joined; builtins and negated
        # literals become filters.  Which slots the join can ever bind is
        # order-independent (every order visits all relational literals), so
        # "leftover" filters are a per-rule static property.
        relational: List[int] = []
        relational_slots: Set[int] = set()
        for position, literal in enumerate(rule.body):
            if literal.negated or literal.atom.predicate in builtins:
                continue
            relational.append(position)
            for term in literal.atom.terms:
                if isinstance(term, Variable):
                    relational_slots.add(slot_of[term])
        self.relational = tuple(relational)
        #: Predicate names hoisted out of the AST for the per-firing hot
        #: path (plan lookup and delta resolution touch these every call).
        self._rel_preds = tuple(
            rule.body[position].atom.predicate for position in relational
        )
        self._body_preds = tuple(literal.atom.predicate for literal in rule.body)
        self.filters = tuple(
            _CompiledFilter(literal, position, slot_of, relational_slots, builtins)
            for position, literal in enumerate(rule.body)
            if literal.negated or literal.atom.predicate in builtins
        )

        # Precompiled head projection.
        head_spec: List[Tuple[bool, object]] = []
        self.head_unbound: Optional[Variable] = None
        for term in rule.head.terms:
            if isinstance(term, Constant):
                head_spec.append((False, term.value))
            else:
                head_spec.append((True, slot_of[term]))
                if slot_of[term] not in relational_slots and self.head_unbound is None:
                    self.head_unbound = term
        self.head_spec: ValueSpec = tuple(head_spec)

        #: Default join-order memo, used when the caller supplies none.
        #: Engines sharing this plan pass an instance-local memo instead.
        self._plans: PlanMemo = {}

        #: Join orders lowered so far, keyed by ``(delta_position, order)``.
        #: A lowered plan depends on the rule and the order only, so engines
        #: sharing this plan (and size buckets that pick the same order)
        #: reuse it and its executor instead of emitting them again.  Those engines
        #: may run on different threads; LruMap locks and lowers each once.
        self._lowered: "LruMap[Tuple[Optional[int], Tuple[int, ...]], _JoinPlan]" = LruMap(64)

    # ------------------------------------------------------------------
    # Plan lookup (bucket-memoised) and compilation
    # ------------------------------------------------------------------

    def _executor_for(
        self,
        facts: ColumnarDatabase,
        delta: Optional[ColumnarWindow],
        delta_position: Optional[int],
        memo: Optional[PlanMemo] = None,
    ) -> Executor:
        # Each relation's bucket is its size's bit_length().  This runs once
        # per rule firing, so the hit path computes only the bucket
        # signature; the full size map is rebuilt on a memo miss (compile
        # time dwarfs the extra lookups).
        signature: List[int] = []
        append = signature.append
        for position, predicate in zip(self.relational, self._rel_preds):
            if position == delta_position and delta is not None:
                append(len(delta.lookup(predicate)).bit_length())
            else:
                append(len(facts.lookup(predicate)).bit_length())
        key = (delta_position, tuple(signature))
        if memo is None:
            memo = self._plans
        executor = memo.get(key)
        if executor is None:
            sizes = {
                position: len(
                    (
                        delta
                        if (position == delta_position and delta is not None)
                        else facts
                    ).lookup(predicate)
                )
                for position, predicate in zip(self.relational, self._rel_preds)
            }
            plan = self.compile(delta_position, sizes)
            executor = plan.executor
            if executor is None:  # racing threads emit equal executors
                source, values = _executor_source(
                    plan.steps, plan.initial_filters, plan.leftover_filters,
                    self.head_spec, self.head_unbound,
                )
                executor = plan.executor = _factory(source)(*values)
            memo[key] = executor
        return executor

    def compile(
        self, delta_position: Optional[int], sizes: Mapping[int, int]
    ) -> _JoinPlan:
        """The join plan the greedy planner picks for ``sizes``.

        ``sizes`` maps relational body positions to relation sizes: live
        ones from :meth:`run`, or estimates from
        :func:`repro.analysis.explain.explain`.  Nothing is memoised per
        size here (:meth:`run` keeps the bucket memo); the lowered plan is
        shared per join order, and its executor is emitted by its first run.
        """
        # Greedy selectivity order: the delta literal seeds the order, then
        # each pick maximises already-bound terms and tie-breaks on smaller
        # relation size.
        order = tuple(
            greedy_join_order(self.rule.body, self.relational, delta_position, sizes)
        )
        return self._lowered.get_or_build(
            (delta_position, order), lambda: self._lower(delta_position, order)
        )

    def _lower(self, delta_position: Optional[int], order: Sequence[int]) -> _JoinPlan:
        """Per-step layouts and filter hoist points of one join order."""
        body = self.rule.body
        slot_of = self.slot_of
        bound: Set[int] = set()

        # Second pass: per-step layouts plus filter hoist points.
        hoistable = sorted(
            (f for f in self.filters if f.unbound_term is None), key=lambda f: f.order
        )
        leftover = tuple(
            f for f in self.filters if f.unbound_term is not None
        )
        initial_filters = tuple(f for f in hoistable if not f.slots)
        pending = [f for f in hoistable if f.slots]
        steps: List[_JoinStep] = []
        for position in order:
            atom = body[position].atom
            bound_positions: List[int] = []
            key_spec: List[Tuple[bool, object]] = []
            bind_spec: List[Tuple[int, int]] = []
            check_spec: List[Tuple[int, int]] = []
            first_seen: Dict[int, int] = {}  # slot -> fact index of first unbound use
            for index, term in enumerate(atom.terms):
                if isinstance(term, Constant):
                    bound_positions.append(index)
                    key_spec.append((False, term.value))
                    continue
                slot = slot_of[term]
                if slot in bound:
                    bound_positions.append(index)
                    key_spec.append((True, slot))
                elif slot in first_seen:
                    check_spec.append((index, first_seen[slot]))
                else:
                    first_seen[slot] = index
                    bind_spec.append((index, slot))
            bound.update(first_seen)
            # NB: subset comparison is a partial order — "not <=" is NOT the
            # same as ">" here (a filter can be incomparable to bound).
            ready = tuple(f for f in pending if f.slots <= bound)
            if ready:
                pending = [f for f in pending if not (f.slots <= bound)]
            steps.append(
                _JoinStep(
                    position,
                    atom.predicate,
                    position == delta_position,
                    len(atom.terms),
                    tuple(bound_positions),
                    tuple(key_spec),
                    tuple(bind_spec),
                    tuple(check_spec),
                    ready,
                )
            )
        # Any hoistable filter still pending would need a slot no relational
        # literal binds — excluded by construction (unbound_term is set).
        assert not pending
        return _JoinPlan(tuple(steps), initial_filters, leftover)

    # ------------------------------------------------------------------
    # Plan execution
    # ------------------------------------------------------------------
    def run(
        self,
        facts: ColumnarDatabase,
        delta: Optional[ColumnarWindow] = None,
        delta_position: Optional[int] = None,
        memo: Optional[PlanMemo] = None,
    ) -> List[Fact]:
        """All head facts derivable by this rule (delta-restricted when asked).

        ``memo`` is the join-order memo to consult (defaulting to this
        plan's own); engines that share one plan through the registry pass
        an instance-local memo so their size-bucket histories stay separate.
        The result is fully
        materialised before the caller inserts it: the executor's nested
        loops iterate live index buckets, so no relation may grow while it
        runs.

        Evaluation calls the plan's generated executor.
        """
        executor = self._executor_for(facts, delta, delta_position, memo)
        delta_rel: Optional[Relation] = None
        if delta is not None and delta_position is not None:
            delta_rel = delta.lookup(self._body_preds[delta_position])
        return executor(facts, delta_rel)


def compile_stratum(
    rules: Sequence[Rule], builtins: Mapping[str, Callable[..., bool]]
) -> Tuple[List[RulePlan], Dict[str, List[Tuple[RulePlan, int]]]]:
    """Compile one stratum into rule plans plus its delta trigger map.

    ``triggers[p]`` lists every ``(plan, position)`` whose body literal at
    ``position`` is a positive relational occurrence of ``p`` and ``p`` is
    derived inside the stratum — the only (rule, delta-position) pairs
    semi-naive iteration ever needs to fire for a delta on ``p``.
    """
    head_predicates = {rule.head.predicate for rule in rules}
    plans = [RulePlan(rule, builtins) for rule in rules]
    triggers: Dict[str, List[Tuple[RulePlan, int]]] = {}
    for plan in plans:
        for position, literal in enumerate(plan.rule.body):
            predicate = literal.atom.predicate
            if literal.negated or predicate in builtins:
                continue
            if predicate in head_predicates:
                triggers.setdefault(predicate, []).append((plan, position))
    return plans, triggers
