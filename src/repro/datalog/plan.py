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
  variable→slot layout (substitutions become flat lists indexed by slot
  instead of dictionaries), precompiles every builtin/negated literal into a
  :class:`_CompiledFilter`, and precompiles the head projection.
* ``RulePlan.run(facts, delta, delta_position)`` — looks up (or compiles) a
  :class:`_JoinPlan` for the requested delta position and the current
  *size buckets* of the joined relations, then interprets it.  Join orders
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
* **Specialised executors** — every :class:`_JoinPlan` is lowered at
  compile time into a chain of per-step closures (probe → intersect/check →
  filter → project) with the step's constants bound in closure cells, plus
  a projection closure; ``RulePlan.run`` just resolves the delta relation
  and calls the chain.  Hot step shapes (full scans binding one or two
  slots, single-slot-key probes extending one slot) get dedicated closure
  bodies without the generic spec interpretation; everything else falls
  back to a generic closure that mirrors the old interpreted loop exactly.
  Executors are built wherever plans are built — including the statically
  seeded plans the registry compiles (:mod:`repro.analysis.cost`), so a
  shared program carries its specialised executors with it.

Executors probe the columnar storage of :mod:`repro.datalog.columns`
directly.  The property tests assert they derive exactly the facts of a
naive nested-loop reference evaluator.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .ast import Constant, Literal, Rule, Variable
from .columns import ColumnarDatabase, ColumnarRelation, ColumnarWindow

Fact = Tuple[object, ...]

#: One relation as an executor reads it: a whole relation or a delta window.
Relation = Union[ColumnarRelation, ColumnarWindow]

#: A compiled step closure: ``(rows, facts, delta_rel) -> rows``.
StepRunner = Callable[
    [List[List[object]], ColumnarDatabase, Optional[Relation]], List[List[object]]
]

#: A compiled projection closure: ``(rows, facts) -> facts``.
Projector = Callable[[List[List[object]], ColumnarDatabase], List[Fact]]

#: A compiled whole-rule executor: ``(facts, delta_rel) -> facts``.
Executor = Callable[[ColumnarDatabase, Optional[Relation]], List[Fact]]

#: ``(is_slot, payload)`` — payload is a slot index when ``is_slot`` else a
#: constant value.  Used for probe keys, filter arguments and head terms.
ValueSpec = Tuple[Tuple[bool, object], ...]

#: ``(delta_position, bucket signature)`` → compiled :class:`_JoinPlan`.
#: Engines that share a plan (repro/datalog/registry.py) each pass their own
#: memo into :meth:`RulePlan.run`, keeping database-sized state per engine.
PlanMemo = Dict[Tuple[Optional[int], Tuple[int, ...]], "_JoinPlan"]


def size_bucket(size: int) -> int:
    """Coarse power-of-two bucket of a relation size.

    Plans are memoised per bucket signature: the greedy join order only
    replans when a relation size crosses a power-of-two boundary.
    """
    return size.bit_length()


def greedy_join_order(
    body: Sequence[Literal],
    relational: Sequence[int],
    delta_position: Optional[int],
    sizes: Mapping[int, float],
    bound: Optional[Set[Variable]] = None,
) -> List[int]:
    """Greedy selectivity ordering of the positive relational literals.

    This is THE join-order policy of the engine — shared verbatim between
    runtime plan compilation (:meth:`RulePlan._compile`, with live relation
    sizes) and static analysis (:mod:`repro.analysis.dataflow`, with
    estimated sizes), so the adornments the analyzer reports are exactly
    the binding patterns the interpreter will probe with.

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

    def passes(self, row: List[object], facts: ColumnarDatabase) -> bool:
        if self.unbound_term is not None:
            # The same message as an unbound head variable, so both
            # grounding failures read alike.
            from .engine import EvaluationError

            raise EvaluationError(f"unbound variable {self.unbound_term} in rule head")
        values = tuple(row[p] if s else p for s, p in self.spec)
        if self.fn is not None:
            holds = self.fn(*values)
            return not holds if self.negated else holds
        # Negated relational literal; its relation is complete (stratified
        # negation evaluates strictly lower strata first).
        return not facts.contains_fact(self.predicate, values)


class _JoinStep:
    """One probe of a compiled join: everything the interpreter needs."""

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


def _build_step_runner(step: _JoinStep) -> StepRunner:
    """Lower one join step into a closure with its constants in cells.

    The hot shapes get dedicated bodies (no spec interpretation per tuple):

    * **scan+bind1 / scan+bind2** — an unbound literal (typically the
      delta seed) binding one or two fresh slots;
    * **probe1+bind1** — one slot-valued bound position extending one slot
      (the classic index-nested-loop step), probed through the storage
      layer's ``probe1`` so no key tuple is allocated.

    Everything else (constants in keys, repeated variables, hoisted
    filters, multi-position keys) runs the generic body, which interprets
    the step's specs per matched fact.
    """
    predicate = step.predicate
    from_delta = step.from_delta
    arity = step.arity
    positions = step.bound_positions
    key_spec = step.key_spec
    bind_spec = step.bind_spec
    check_spec = step.check_spec
    filters_after = step.filters_after

    if from_delta:
        def source_relation(
            facts: ColumnarDatabase, delta_rel: Optional[Relation]
        ) -> Relation:
            assert delta_rel is not None
            return delta_rel
    else:
        def source_relation(
            facts: ColumnarDatabase, delta_rel: Optional[Relation]
        ) -> Relation:
            return facts.lookup(predicate)

    plain = not check_spec and not filters_after
    if plain and not positions and len(bind_spec) == 1:
        ((index0, slot0),) = bind_spec

        def run_scan1(
            rows: List[List[object]],
            facts: ColumnarDatabase,
            delta_rel: Optional[Relation],
        ) -> List[List[object]]:
            relation = source_relation(facts, delta_rel)
            out: List[List[object]] = []
            append = out.append
            for row in rows:
                for f in relation:
                    if len(f) == arity:
                        new = row[:]
                        new[slot0] = f[index0]
                        append(new)
            return out

        return run_scan1
    if plain and not positions and len(bind_spec) == 2:
        (index0, slot0), (index1, slot1) = bind_spec

        def run_scan2(
            rows: List[List[object]],
            facts: ColumnarDatabase,
            delta_rel: Optional[Relation],
        ) -> List[List[object]]:
            relation = source_relation(facts, delta_rel)
            out: List[List[object]] = []
            append = out.append
            for row in rows:
                for f in relation:
                    if len(f) == arity:
                        new = row[:]
                        new[slot0] = f[index0]
                        new[slot1] = f[index1]
                        append(new)
            return out

        return run_scan2
    if (
        plain
        and len(positions) == 1
        and len(bind_spec) == 1
        and key_spec[0][0]
    ):
        position0 = positions[0]
        key_slot = key_spec[0][1]
        ((index0, slot0),) = bind_spec

        def run_probe1(
            rows: List[List[object]],
            facts: ColumnarDatabase,
            delta_rel: Optional[Relation],
        ) -> List[List[object]]:
            relation = source_relation(facts, delta_rel)
            probe1 = relation.probe1
            out: List[List[object]] = []
            append = out.append
            for row in rows:
                for f in probe1(position0, row[key_slot]):
                    if len(f) == arity:
                        new = row[:]
                        new[slot0] = f[index0]
                        append(new)
            return out

        return run_probe1

    def run_generic(
        rows: List[List[object]],
        facts: ColumnarDatabase,
        delta_rel: Optional[Relation],
    ) -> List[List[object]]:
        relation = source_relation(facts, delta_rel)
        probe = relation.probe
        out: List[List[object]] = []
        append = out.append
        for row in rows:
            key = tuple(row[p] if s else p for s, p in key_spec)
            for fact in probe(positions, key):
                if len(fact) != arity:
                    continue
                if check_spec:
                    if any(fact[i] != fact[j] for i, j in check_spec):
                        continue
                new = row[:]
                for index, slot in bind_spec:
                    new[slot] = fact[index]
                if filters_after:
                    if not all(f.passes(new, facts) for f in filters_after):
                        continue
                append(new)
        return out

    return run_generic


def _build_projector(
    head_spec: ValueSpec,
    head_unbound: Optional[Variable],
    leftover_filters: Tuple[_CompiledFilter, ...],
) -> Projector:
    """Lower the head projection (plus leftover filters) into a closure."""
    if head_unbound is None and not leftover_filters:
        if all(is_slot for is_slot, _ in head_spec):
            slots = tuple(payload for _, payload in head_spec)
            if len(slots) == 1:
                (head0,) = slots

                def project1(rows: List[List[object]], facts: ColumnarDatabase) -> List[Fact]:
                    return [(row[head0],) for row in rows]

                return project1
            if len(slots) == 2:
                head0, head1 = slots

                def project2(rows: List[List[object]], facts: ColumnarDatabase) -> List[Fact]:
                    return [(row[head0], row[head1]) for row in rows]

                return project2

        def project_spec(rows: List[List[object]], facts: ColumnarDatabase) -> List[Fact]:
            return [tuple(row[p] if s else p for s, p in head_spec) for row in rows]

        return project_spec

    def project_guarded(rows: List[List[object]], facts: ColumnarDatabase) -> List[Fact]:
        out: List[Fact] = []
        emit = out.append
        for row in rows:
            if leftover_filters:
                if not all(f.passes(row, facts) for f in leftover_filters):
                    continue
            if head_unbound is not None:
                from .engine import EvaluationError

                raise EvaluationError(
                    f"unbound variable {head_unbound} in rule head"
                )
            emit(tuple(row[p] if s else p for s, p in head_spec))
        return out

    return project_guarded


def _build_fused_terminal(step: _JoinStep, head_spec: ValueSpec) -> Optional[StepRunner]:
    """Fuse the last join step with the head projection when possible.

    For a plain final step (no repeated-variable checks, no hoisted
    filters) whose matches feed straight into a slot-only head, the
    executor can emit head tuples directly from the probe — no extended
    row is ever copied and no separate projection pass runs.  This is the
    per-tuple hot path of every linear-recursive rule (transitive closure,
    reachability, same-generation).  Returns ``None`` when the shape does
    not apply; the caller falls back to the unfused chain.
    """
    if step.check_spec or step.filters_after:
        return None
    if not all(is_slot for is_slot, _ in head_spec):
        return None
    last_binds = {slot: index for index, slot in step.bind_spec}
    #: Per head term: (from_fact, index) — fact column or row slot.
    emit_spec = tuple(
        (True, last_binds[payload]) if payload in last_binds else (False, payload)
        for _, payload in head_spec
    )
    predicate = step.predicate
    from_delta = step.from_delta
    arity = step.arity
    positions = step.bound_positions
    key_spec = step.key_spec

    if from_delta:
        def source_relation(
            facts: ColumnarDatabase, delta_rel: Optional[Relation]
        ) -> Relation:
            assert delta_rel is not None
            return delta_rel
    else:
        def source_relation(
            facts: ColumnarDatabase, delta_rel: Optional[Relation]
        ) -> Relation:
            return facts.lookup(predicate)

    probe1_shape = len(positions) == 1 and len(key_spec) == 1 and key_spec[0][0]
    scan_shape = not positions
    if not probe1_shape and not scan_shape:
        return None

    if probe1_shape:
        position0 = positions[0]
        key_slot = key_spec[0][1]
        if len(emit_spec) == 1:
            ((fact0, index0),) = emit_spec
            if fact0:

                def fused_probe1_f(rows, facts, delta_rel):
                    probe1 = source_relation(facts, delta_rel).probe1
                    out: List[Fact] = []
                    append = out.append
                    for row in rows:
                        for f in probe1(position0, row[key_slot]):
                            if len(f) == arity:
                                append((f[index0],))
                    return out

                return fused_probe1_f

            def fused_probe1_r(rows, facts, delta_rel):
                probe1 = source_relation(facts, delta_rel).probe1
                out: List[Fact] = []
                append = out.append
                for row in rows:
                    head = (row[index0],)
                    for f in probe1(position0, row[key_slot]):
                        if len(f) == arity:
                            append(head)
                return out

            return fused_probe1_r
        if len(emit_spec) == 2:
            (fact0, index0), (fact1, index1) = emit_spec
            if fact0 and not fact1:

                def fused_probe1_fr(rows, facts, delta_rel):
                    probe1 = source_relation(facts, delta_rel).probe1
                    out: List[Fact] = []
                    append = out.append
                    for row in rows:
                        value1 = row[index1]
                        for f in probe1(position0, row[key_slot]):
                            if len(f) == arity:
                                append((f[index0], value1))
                    return out

                return fused_probe1_fr
            if not fact0 and fact1:

                def fused_probe1_rf(rows, facts, delta_rel):
                    probe1 = source_relation(facts, delta_rel).probe1
                    out: List[Fact] = []
                    append = out.append
                    for row in rows:
                        value0 = row[index0]
                        for f in probe1(position0, row[key_slot]):
                            if len(f) == arity:
                                append((value0, f[index1]))
                    return out

                return fused_probe1_rf
            if fact0 and fact1:

                def fused_probe1_ff(rows, facts, delta_rel):
                    probe1 = source_relation(facts, delta_rel).probe1
                    out: List[Fact] = []
                    append = out.append
                    for row in rows:
                        for f in probe1(position0, row[key_slot]):
                            if len(f) == arity:
                                append((f[index0], f[index1]))
                    return out

                return fused_probe1_ff

            def fused_probe1_rr(rows, facts, delta_rel):
                probe1 = source_relation(facts, delta_rel).probe1
                out: List[Fact] = []
                append = out.append
                for row in rows:
                    head = (row[index0], row[index1])
                    for f in probe1(position0, row[key_slot]):
                        if len(f) == arity:
                            append(head)
                return out

            return fused_probe1_rr

        def fused_probe1(rows, facts, delta_rel):
            probe1 = source_relation(facts, delta_rel).probe1
            out: List[Fact] = []
            append = out.append
            for row in rows:
                for f in probe1(position0, row[key_slot]):
                    if len(f) == arity:
                        append(tuple(f[i] if g else row[i] for g, i in emit_spec))
            return out

        return fused_probe1

    # Scan shape (single-literal rules, copy rules): emit per matching fact.
    if len(emit_spec) == 1 and emit_spec[0][0]:
        ((_, index0),) = emit_spec

        def fused_scan_f(rows, facts, delta_rel):
            relation = source_relation(facts, delta_rel)
            out: List[Fact] = []
            append = out.append
            for row in rows:
                for f in relation:
                    if len(f) == arity:
                        append((f[index0],))
            return out

        return fused_scan_f

    def fused_scan(rows, facts, delta_rel):
        relation = source_relation(facts, delta_rel)
        out: List[Fact] = []
        append = out.append
        for row in rows:
            for f in relation:
                if len(f) == arity:
                    append(tuple(f[i] if g else row[i] for g, i in emit_spec))
        return out

    return fused_scan


def _build_executor(
    steps: Tuple[_JoinStep, ...],
    initial_filters: Tuple[_CompiledFilter, ...],
    project: Projector,
    nvars: int,
    head_spec: ValueSpec,
    head_unbound: Optional[Variable],
    leftover_filters: Tuple[_CompiledFilter, ...],
) -> Executor:
    """Chain the step closures into one whole-rule executor.

    When the rule's tail allows it, the last step and the projection fuse
    into a single closure (:func:`_build_fused_terminal`); the common
    shapes (no constants-only initial filters, one or two join steps —
    every linear and binary-recursive rule) are unrolled.
    """
    terminal: Optional[StepRunner] = None
    if steps and head_unbound is None and not leftover_filters:
        terminal = _build_fused_terminal(steps[-1], head_spec)
    if terminal is not None:
        runners = tuple(_build_step_runner(step) for step in steps[:-1])
        emit = terminal
        if not initial_filters and len(runners) == 0:

            def execute_t0(
                facts: ColumnarDatabase, delta_rel: Optional[Relation]
            ) -> List[Fact]:
                return emit([[None] * nvars], facts, delta_rel)

            return execute_t0
        if not initial_filters and len(runners) == 1:
            (run0,) = runners

            def execute_t1(
                facts: ColumnarDatabase, delta_rel: Optional[Relation]
            ) -> List[Fact]:
                rows = run0([[None] * nvars], facts, delta_rel)
                return emit(rows, facts, delta_rel) if rows else []

            return execute_t1
        if not initial_filters and len(runners) == 2:
            run0, run1 = runners

            def execute_t2(
                facts: ColumnarDatabase, delta_rel: Optional[Relation]
            ) -> List[Fact]:
                rows = run0([[None] * nvars], facts, delta_rel)
                if not rows:
                    return []
                rows = run1(rows, facts, delta_rel)
                return emit(rows, facts, delta_rel) if rows else []

            return execute_t2

        def execute_t(
            facts: ColumnarDatabase, delta_rel: Optional[Relation]
        ) -> List[Fact]:
            row: List[object] = [None] * nvars
            for compiled in initial_filters:
                if not compiled.passes(row, facts):
                    return []
            rows = [row]
            for run in runners:
                rows = run(rows, facts, delta_rel)
                if not rows:
                    return []
            return emit(rows, facts, delta_rel)

        return execute_t

    runners = tuple(_build_step_runner(step) for step in steps)
    if not initial_filters and len(runners) == 1:
        (run0,) = runners

        def execute1(facts: ColumnarDatabase, delta_rel: Optional[Relation]) -> List[Fact]:
            rows = run0([[None] * nvars], facts, delta_rel)
            return project(rows, facts) if rows else []

        return execute1
    if not initial_filters and len(runners) == 2:
        run0, run1 = runners

        def execute2(facts: ColumnarDatabase, delta_rel: Optional[Relation]) -> List[Fact]:
            rows = run0([[None] * nvars], facts, delta_rel)
            if not rows:
                return []
            rows = run1(rows, facts, delta_rel)
            return project(rows, facts) if rows else []

        return execute2

    def execute(facts: ColumnarDatabase, delta_rel: Optional[Relation]) -> List[Fact]:
        row: List[object] = [None] * nvars
        for compiled in initial_filters:
            if not compiled.passes(row, facts):
                return []
        rows = [row]
        for run in runners:
            rows = run(rows, facts, delta_rel)
            if not rows:
                return []
        return project(rows, facts)

    return execute


class _JoinPlan:
    """A fixed join order lowered to a specialised executor closure chain.

    The step/filter layouts are kept alongside the executor for
    introspection (``analysis/explain`` renders them) — evaluation goes
    through :attr:`executor` only.
    """

    __slots__ = ("steps", "initial_filters", "leftover_filters", "executor")

    def __init__(
        self,
        steps: Tuple[_JoinStep, ...],
        initial_filters: Tuple[_CompiledFilter, ...],
        leftover_filters: Tuple[_CompiledFilter, ...],
        executor: Executor,
    ) -> None:
        self.steps = steps
        self.initial_filters = initial_filters
        self.leftover_filters = leftover_filters
        self.executor = executor


class RulePlan:
    """The compile-once evaluation strategy of a single rule."""

    __slots__ = (
        "rule",
        "head_predicate",
        "nvars",
        "slot_of",
        "relational",
        "filters",
        "head_spec",
        "head_unbound",
        "_project",
        "_rel_preds",
        "_body_preds",
        "_plans",
        "seed_plans",
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
        self.nvars = len(slot_of)

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

        #: The projection closure is rule-static (the head spec, the
        #: unbound-head guard and the leftover filters do not depend on the
        #: join order), so it is built once and shared by every _JoinPlan.
        self._project = _build_projector(
            self.head_spec,
            self.head_unbound,
            tuple(f for f in self.filters if f.unbound_term is not None),
        )

        #: Default join-order memo, used when the caller supplies none.
        #: Engines sharing this plan pass an instance-local memo instead.
        self._plans: PlanMemo = {}

        #: Statically-seeded plans per delta position, compiled once from
        #: *estimated* relation sizes (repro/analysis/cost.py) instead of
        #: live ones.  Consulted by :meth:`_plan_for` on a cold memo only —
        #: join order affects performance, never the fixpoint, so a seed is
        #: always safe; once live sizes disagree with the estimates enough
        #: to miss the memo again, the runtime planner takes over.
        self.seed_plans: Dict[Optional[int], _JoinPlan] = {}

    # ------------------------------------------------------------------
    # Plan lookup (bucket-memoised) and compilation
    # ------------------------------------------------------------------
    def plan_count(self) -> int:
        """Number of compiled join plans in the default memo (tests)."""
        return len(self._plans)

    def seed(self, delta_position: Optional[int], sizes: Mapping[int, int]) -> None:
        """Compile (once) a statically-seeded plan for ``delta_position``.

        ``sizes`` maps relational body positions to *estimated* relation
        sizes — typically from :func:`repro.analysis.cost.relation_estimates`
        at registry compile time, before any database exists.
        """
        if delta_position not in self.seed_plans:
            self.seed_plans[delta_position] = self._compile(delta_position, sizes)

    def _plan_for(
        self,
        facts: ColumnarDatabase,
        delta: Optional[ColumnarWindow],
        delta_position: Optional[int],
        memo: Optional[PlanMemo] = None,
        use_seeds: bool = True,
    ) -> _JoinPlan:
        # size_bucket() inlined: this runs once per rule firing, so the hit
        # path computes only the bucket signature; the full size map is
        # rebuilt on a memo miss (compile time dwarfs the extra lookups).
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
        plan = memo.get(key)
        if plan is None:
            if use_seeds:
                seed = self.seed_plans.get(delta_position)
            else:
                seed = None
            if seed is not None and all(k[0] != delta_position for k in memo):
                # Cold memo for this delta position: trust the static seed
                # and skip the greedy replan.  Later bucket-signature misses
                # (live sizes drifting from the estimates) recompile
                # adaptively as before.
                plan = seed
            else:
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
                plan = self._compile(delta_position, sizes)
            memo[key] = plan
        return plan

    def _compile(
        self, delta_position: Optional[int], sizes: Mapping[int, int]
    ) -> _JoinPlan:
        body = self.rule.body
        slot_of = self.slot_of

        # Greedy selectivity order: the delta literal seeds the order, then
        # each pick maximises already-bound terms and tie-breaks on smaller
        # relation size.
        order = greedy_join_order(body, self.relational, delta_position, sizes)
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
        steps_tuple = tuple(steps)
        return _JoinPlan(
            steps_tuple,
            initial_filters,
            leftover,
            _build_executor(
                steps_tuple,
                initial_filters,
                self._project,
                self.nvars,
                self.head_spec,
                self.head_unbound,
                leftover,
            ),
        )

    # ------------------------------------------------------------------
    # Plan execution
    # ------------------------------------------------------------------
    def run(
        self,
        facts: ColumnarDatabase,
        delta: Optional[ColumnarWindow] = None,
        delta_position: Optional[int] = None,
        memo: Optional[PlanMemo] = None,
        use_seeds: bool = True,
    ) -> List[Fact]:
        """All head facts derivable by this rule (delta-restricted when asked).

        ``memo`` is the join-order memo to consult (defaulting to this
        plan's own); engines that share one plan through the registry pass
        an instance-local memo so their size-bucket histories stay separate.
        ``use_seeds=False`` opts out of statically-seeded plans (the
        property tests compare both paths).  The result is fully
        materialised before the caller inserts it, so inserting derived
        facts never mutates a relation mid-probe.

        Evaluation dispatches to the plan's precompiled executor closure
        chain.
        """
        plan = self._plan_for(facts, delta, delta_position, memo, use_seeds)
        delta_rel: Optional[Relation] = None
        if delta is not None and delta_position is not None:
            delta_rel = delta.lookup(self._body_preds[delta_position])
        return plan.executor(facts, delta_rel)


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
