"""``explain()``: render what the engine will do before it does it.

The optimizer layer's user-facing surface.  Given any program shape the
analyzer accepts (datalog :class:`~repro.datalog.ast.Program`, a
:class:`~repro.mdatalog.program.MonadicProgram`, an Elog wrapper — which is
translated through :func:`repro.elog.to_mdatalog.to_monadic_datalog` — or
raw source text), ``explain`` compiles the program exactly the way
:class:`~repro.datalog.engine.SemiNaiveEngine` would, runs the engine's
greedy join planner (:meth:`~repro.datalog.plan.RulePlan.compile`) over the
static size estimates (:func:`repro.analysis.cost.relation_estimates`), and
renders per rule:

* the join order the planner picks from those estimates for the naive
  round plus each semi-naive delta variant, step by step, with the probe's
  bound-position key and the cost model's estimated rows in → out;
* the filter hoist points — which builtin/negation filters run after
  which step — and any leftover filters;
* the advised index keys and the estimated relation cardinalities;
* the ``P00x`` performance diagnostics.

The engine plans from live relation sizes instead, so the plans shown are
what the estimates predict, not a promise of what a fixpoint runs.

The report is deterministic (pure arithmetic, sorted iteration), which the
golden snapshot suite relies on, and carries a ``to_dict``/``to_json`` view
for the ``python -m repro.analysis --explain --json`` CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..datalog.ast import Program
from ..datalog.plan import RulePlan, _JoinPlan, compile_stratum
from ..datalog.stratify import stratify
from .cost import DEFAULT_DOMAIN_SIZE, check_performance, relation_estimates
from .datalog_checks import TREE_SIGNATURE
from .diagnostics import Diagnostic
from .fragments import classify

Explainable = Union[Program, "MonadicProgram", "ElogProgram", str]  # noqa: F821


@dataclass(frozen=True)
class ExplainStep:
    """One join step of one plan variant, with its static row estimates."""

    predicate: str
    access: str  # "scan" or "probe(positions)"
    from_delta: bool
    rows_in: float
    rows_out: float
    filters_after: Tuple[str, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "predicate": self.predicate,
            "access": self.access,
            "from_delta": self.from_delta,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "filters_after": list(self.filters_after),
        }


@dataclass(frozen=True)
class ExplainPlan:
    """One plan variant of one rule (naive round or one delta position)."""

    variant: str  # "naive" or "delta(<predicate>)"
    steps: Tuple[ExplainStep, ...]
    initial_filters: Tuple[str, ...]
    leftover_filters: Tuple[str, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "variant": self.variant,
            "steps": [step.to_dict() for step in self.steps],
            "initial_filters": list(self.initial_filters),
            "leftover_filters": list(self.leftover_filters),
        }


@dataclass(frozen=True)
class ExplainRule:
    """Everything ``explain`` knows about one rule."""

    rule: str
    head_predicate: str
    stratum: int
    plans: Tuple[ExplainPlan, ...]
    estimated_rows: float
    cost_magnitude: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "head_predicate": self.head_predicate,
            "stratum": self.stratum,
            "plans": [plan.to_dict() for plan in self.plans],
            "estimated_rows": self.estimated_rows,
            "cost_magnitude": self.cost_magnitude,
        }


@dataclass(frozen=True)
class ExplainReport:
    """The full explanation of one program (deterministic, renderable)."""

    fragment_verdict: str
    strata: int
    rules: Tuple[ExplainRule, ...]
    index_advice: Tuple[Tuple[str, Tuple[Tuple[int, ...], ...]], ...]
    estimates: Tuple[Tuple[str, float], ...]
    diagnostics: Tuple[Diagnostic, ...] = field(compare=False)
    domain_size: int = DEFAULT_DOMAIN_SIZE

    # -- rendering ---------------------------------------------------------
    def render(self, name: str = "") -> str:
        lines: List[str] = []
        title = f"explain {name}".rstrip()
        lines.append(title)
        lines.append("=" * len(title))
        lines.append(f"fragment: {self.fragment_verdict}")
        lines.append(
            f"strata: {self.strata}; modelled domain size: {self.domain_size}"
        )
        lines.append("")
        lines.append("relation estimates:")
        for predicate, size in self.estimates:
            lines.append(f"  {predicate}: ~{size:.1e} rows")
        if self.index_advice:
            lines.append("advised indexes:")
            for predicate, keys in self.index_advice:
                rendered = ", ".join(
                    "(" + ",".join(map(str, key)) + ")" for key in keys
                )
                lines.append(f"  {predicate}: key positions {rendered}")
        for rule in self.rules:
            lines.append("")
            lines.append(f"rule [stratum {rule.stratum}] {rule.rule}")
            lines.append(
                f"  estimated output: ~{rule.estimated_rows:.1e} rows "
                f"(cost magnitude 10^{rule.cost_magnitude})"
            )
            for plan in rule.plans:
                lines.append(f"  plan {plan.variant}:")
                for filter_text in plan.initial_filters:
                    lines.append(f"    filter {filter_text} (before any step)")
                for index, step in enumerate(plan.steps, start=1):
                    source = "delta " if step.from_delta else ""
                    lines.append(
                        f"    {index}. {step.access} {source}{step.predicate}"
                        f"  ~{step.rows_in:.1e} -> ~{step.rows_out:.1e} rows"
                    )
                    for filter_text in step.filters_after:
                        lines.append(f"       then filter {filter_text}")
                for filter_text in plan.leftover_filters:
                    lines.append(f"    leftover filter {filter_text}")
        if self.diagnostics:
            lines.append("")
            lines.append("performance diagnostics:")
            for diagnostic in self.diagnostics:
                lines.append(f"  {diagnostic}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "fragment": self.fragment_verdict,
            "strata": self.strata,
            "domain_size": self.domain_size,
            "estimates": {predicate: size for predicate, size in self.estimates},
            "index_advice": {
                predicate: [list(key) for key in keys]
                for predicate, keys in self.index_advice
            },
            "rules": [rule.to_dict() for rule in self.rules],
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, name: str = "") -> str:
        payload = self.to_dict()
        if name:
            payload["name"] = name
        return json.dumps(payload, indent=2, sort_keys=True)


def _filter_text(compiled) -> str:
    prefix = "not " if compiled.negated else ""
    return f"{prefix}{compiled.predicate}/{len(compiled.spec)}"


def _explain_plan(
    plan: RulePlan,
    joined: _JoinPlan,
    variant: str,
    estimates: Dict[str, float],
    domain: float,
    delta_scale: float = 1.0,
) -> ExplainPlan:
    steps: List[ExplainStep] = []
    rows = 1.0
    for step in joined.steps:
        size = estimates.get(step.predicate, domain)
        if step.from_delta:
            size = max(size * delta_scale, 1.0)
        fanout = max(size / (domain ** len(step.bound_positions)), 1e-3)
        rows_in = rows
        rows *= fanout
        access = (
            "scan"
            if not step.bound_positions
            else "probe(" + ",".join(map(str, step.bound_positions)) + ")"
        )
        steps.append(
            ExplainStep(
                predicate=step.predicate,
                access=access,
                from_delta=step.from_delta,
                rows_in=rows_in,
                rows_out=rows,
                filters_after=tuple(_filter_text(f) for f in step.filters_after),
            )
        )
    return ExplainPlan(
        variant=variant,
        steps=tuple(steps),
        initial_filters=tuple(_filter_text(f) for f in joined.initial_filters),
        leftover_filters=tuple(_filter_text(f) for f in joined.leftover_filters),
    )


def explain(
    program: Explainable,
    query: Optional[Sequence[str]] = None,
    *,
    edb: Optional[object] = None,
    domain_size: int = DEFAULT_DOMAIN_SIZE,
) -> ExplainReport:
    """Explain the evaluation plan of ``program``.

    ``query`` narrows the performance diagnostics (P004 demand analysis) to
    the given query predicates; plan rendering always covers the whole
    program, because the engines materialise the full fixpoint.  ``edb``
    follows the analyzer convention (:data:`~repro.analysis.datalog_checks.
    TREE_SIGNATURE` for tau_ur tree heuristics); monadic and Elog programs
    default to the tree signature.
    """
    resolved, edb, query = _resolve_program(program, edb, query)
    # Compile exactly the way the engine would: same builtins, same
    # stratification, same plan compiler, same greedy planner.
    from ..datalog.engine import SemiNaiveEngine

    builtins = SemiNaiveEngine.BUILTINS
    strata = stratify(resolved)
    estimates = relation_estimates(resolved, edb=edb, domain_size=domain_size)
    domain = float(domain_size)
    advice: Dict[str, Set[Tuple[int, ...]]] = {}
    rules: List[ExplainRule] = []
    for stratum_index, stratum_rules in enumerate(strata):
        plans, triggers = compile_stratum(stratum_rules, builtins)
        trigger_positions: Dict[RulePlan, Set[int]] = {}
        for pairs in triggers.values():
            for plan, position in pairs:
                trigger_positions.setdefault(plan, set()).add(position)
        for plan in plans:
            body = plan.rule.body
            sizes = {
                position: int(estimates.get(body[position].atom.predicate, domain_size))
                for position in plan.relational
            }
            naive = plan.compile(None, sizes)
            variants = [("naive", 1.0, naive)]
            for position in sorted(trigger_positions.get(plan, ())):
                # A trigger's delta is far smaller than its full relation;
                # model it at 1/16th of the estimate.
                delta_sizes = dict(sizes)
                delta_sizes[position] = max(sizes[position] // 16, 1)
                variant = f"delta({body[position].atom.predicate})"
                variants.append((variant, 1.0 / 16.0, plan.compile(position, delta_sizes)))
            explained: List[ExplainPlan] = []
            for variant, scale, joined in variants:
                explained.append(
                    _explain_plan(plan, joined, variant, estimates, domain, scale)
                )
                for step in joined.steps:
                    if step.bound_positions and not step.from_delta:
                        advice.setdefault(step.predicate, set()).add(step.bound_positions)
            rows = 1.0
            total = 0.0
            for step in naive.steps:
                size = estimates.get(step.predicate, domain)
                fanout = max(size / (domain ** len(step.bound_positions)), 1e-3)
                rows *= fanout
                total += rows
            rules.append(
                ExplainRule(
                    rule=str(plan.rule),
                    head_predicate=plan.head_predicate,
                    stratum=stratum_index,
                    plans=tuple(explained),
                    estimated_rows=rows,
                    cost_magnitude=_magnitude(total),
                )
            )
    diagnostics = tuple(
        check_performance(
            resolved, edb=edb, query_predicates=query, domain_size=domain_size
        )
    )
    mentioned = sorted(estimates)
    return ExplainReport(
        fragment_verdict=classify(resolved).verdict(),
        strata=len(strata),
        rules=tuple(rules),
        index_advice=tuple(
            (predicate, tuple(sorted(keys))) for predicate, keys in sorted(advice.items())
        ),
        estimates=tuple((predicate, estimates[predicate]) for predicate in mentioned),
        diagnostics=diagnostics,
        domain_size=domain_size,
    )


def _magnitude(cost: float) -> int:
    from math import log10

    if cost <= 1.0:
        return 0
    return int(log10(cost)) + 1


def _resolve_program(
    program: Explainable,
    edb: Optional[object],
    query: Optional[Sequence[str]],
) -> Tuple[Program, Optional[object], Optional[Sequence[str]]]:
    """Normalise any accepted shape to a datalog Program + edb + queries."""
    from ..elog.ast import ElogProgram
    from ..mdatalog.program import MonadicProgram

    if isinstance(program, ElogProgram):
        from ..elog.to_mdatalog import to_monadic_datalog

        program = to_monadic_datalog(program)
    if isinstance(program, MonadicProgram):
        if query is None:
            query = tuple(sorted(program.query_predicates))
        return (
            program.to_datalog_program(),
            edb if edb is not None else TREE_SIGNATURE,
            query,
        )
    if isinstance(program, Program):
        return program, edb, query
    if isinstance(program, str):
        from .analyzer import DATALOG, sniff_kind

        if sniff_kind(program) == DATALOG:
            from ..datalog.parser import parse_program

            return parse_program(program), edb, query
        from ..elog.parser import parse_elog

        return _resolve_program(parse_elog(program), edb, query)
    raise TypeError(
        f"cannot explain {type(program).__name__}; expected Program, "
        "MonadicProgram, ElogProgram or source text"
    )
