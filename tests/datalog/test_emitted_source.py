"""The generated join executors of repro/datalog/plan.py, read as source.

Every join order is lowered to Python source and compiled.  These tests
pin two properties of that source over a program that exercises every
step shape (scan, a single-position or composite ``index(...).get``, the
delta window's ``probe1`` / ``probe``, constants in keys, repeated
variables, negation, a builtin, an unbound head):

* it parses under the grammar of the oldest Python CI runs (3.9), also
  when a join longer than one function's loop nest continues in nested
  functions;
* it carries no user-supplied text — no string literal, no literal but a
  small integer (positions, arities, slots), and no identifier the
  emitter did not generate.  Constants, predicate names and filters reach
  the executor as arguments of its factory, so a constant can never
  change what the source means.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.datalog import RulePlan, SemiNaiveEngine, parse_program
from repro.datalog.plan import _executor_source

PROGRAM = parse_program(
    """
    reach(X, Y) :- edge(X, Y).
    reach(X, Y) :- reach(X, Z), edge(Z, Y).
    sg(X, Y) :- child(XP, X), sg(XP, YP), child(YP, Y).
    gold(X) :- item(X, X, "gold\\"); import os #").
    tagged(X, 4242) :- label(X, "{brace}\\n'"), triple(X, Y, Z), triple(Z, Y, X).
    cheap(X) :- item(X, P, Q), lt(P, 4242), not banned(X, "a\\\\b").
    lonely(X, W) :- edge(X, Y), not edge(Y, X).
    fact("it's", 4242).
    hot(X) :- reach(X, 4242).
    loopy(X) :- reach(4242, 4242), edge(X, X).
    """
)

#: A 20-step join: more loops than one generated function nests.
LONG_CHAIN = parse_program(
    "long(X0, X20) :- "
    + ", ".join(f"hop(X{i}, X{i + 1})" for i in range(20))
    + ', neq(X0, "stop").'
).rules[0]

GENERATED_NAME = re.compile(
    r"^(?:[vfrqgcphms]\d+|make|execute|facts|delta_rel|out|append|len|EvaluationError)$"
)


def _emit(rule, delta_position):
    plan = RulePlan(rule, SemiNaiveEngine.BUILTINS)
    joined = plan.compile(delta_position, {position: 8 for position in plan.relational})
    source, _ = _executor_source(
        joined.steps,
        joined.initial_filters,
        joined.leftover_filters,
        plan.head_spec,
        plan.head_unbound,
    )
    return source


def _sources():
    sources = {}
    for index, rule in enumerate(PROGRAM.rules):
        for delta_position in (None,) + RulePlan(rule, SemiNaiveEngine.BUILTINS).relational:
            sources[f"rule{index}-delta{delta_position}"] = _emit(rule, delta_position)
    sources["long-chain"] = _emit(LONG_CHAIN, None)
    return sources


SOURCES = _sources()


def test_the_program_covers_every_step_shape():
    text = "\n".join(SOURCES.values())
    for shape in (
        ".index((0,), 2).get\n",
        ".index((0, 1), 2).get\n",
        ".index((0, 1, 2), 3).get\n",
        "delta_rel.probe1\n",
        "delta_rel.probe\n",
        "= delta_rel",
        " != f",
        "raise EvaluationError",
        "def s1(v",
    ):
        assert shape in text, shape
    # A filter check, a composite index read with a tuple key, and a
    # composite delta-window probe passing a tuple of positions.
    assert re.search(r"if not h\d+\(", text)
    assert re.search(r"g\d+\(\(\w+, \w+\), \(\)\)", text)
    assert re.search(r"q\d+\(\(\d+, \d+", text)


@pytest.mark.parametrize("source", SOURCES.values(), ids=SOURCES.keys())
def test_emitted_source_parses_as_python_3_9(source):
    ast.parse(source, feature_version=(3, 9))


@pytest.mark.parametrize("source", SOURCES.values(), ids=SOURCES.keys())
def test_emitted_source_holds_no_user_text(source):
    for node in ast.walk(ast.parse(source)):
        assert not isinstance(node, ast.JoinedStr), source
        if isinstance(node, ast.Constant):
            assert type(node.value) is int and 0 <= node.value < 100, source
        if isinstance(node, ast.Name):
            assert GENERATED_NAME.match(node.id), (node.id, source)
        if isinstance(node, ast.arg):
            assert GENERATED_NAME.match(node.arg), (node.arg, source)
        if isinstance(node, ast.Attribute):
            assert node.attr in {
                "lookup", "index", "get", "probe1", "probe", "append"
            }, source


def _loops(source):
    """``(iterated expression, the body's leading test or "")`` per loop."""
    return [
        (
            ast.unparse(node.iter),
            ast.unparse(node.body[0].test) if isinstance(node.body[0], ast.If) else "",
        )
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.For)
    ]


@pytest.mark.parametrize("source", SOURCES.values(), ids=SOURCES.keys())
def test_only_scan_and_delta_steps_test_the_arity(source):
    # An index holds rows of its step's arity only, so a probed step
    # (``g<d>(key, ())``) needs no len() test; a scan of the relation
    # (``r<d>``) and the delta window (``r<d>`` or ``q<d>(...)``) keep it.
    for iterated, first in _loops(source):
        if re.match(r"g\d+\(", iterated):
            assert "len(" not in first, (iterated, first)
        else:
            assert re.match(r"(?:r\d+|q\d+\(.*\))$", iterated), iterated
            assert re.match(r"len\(f\d+\) != \d+", first), (iterated, first)


def test_repeated_variables_are_checked_on_probed_steps():
    # gold(X) :- item(X, X, "..."): probed on its constant, the step still
    # compares the two X positions of each row.
    [(iterated, first)] = _loops(SOURCES["rule3-deltaNone"])
    assert re.match(r"g\d+\(", iterated)
    assert first == "f0[1] != f0[0]", first


def test_rules_of_one_shape_share_one_source():
    first, second = parse_program(
        'p(X) :- e(X, "one"). q(Y) :- f(Y, 2).'
    ).rules
    emitted = []
    for rule in (first, second):
        plan = RulePlan(rule, SemiNaiveEngine.BUILTINS)
        joined = plan.compile(None, {0: 1})
        emitted.append(
            _executor_source(
                joined.steps, (), (), plan.head_spec, plan.head_unbound
            )
        )
    (source_a, values_a), (source_b, values_b) = emitted
    assert source_a == source_b
    assert values_a == ("e", "one") and values_b == ("f", 2)


def test_engine_doc_prints_the_emitted_same_generation_executor():
    doc = (Path(__file__).resolve().parents[2] / "docs" / "ENGINE.md").read_text()
    example = doc.split("For `sg(X, Y)", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert example == SOURCES["rule2-delta1"]


def test_nesting_depth_does_not_grow_with_the_rule():
    # Python caps both nested blocks (20) and indentation levels (100) per
    # source, so a long join must spread over functions side by side.
    def deepest(length):
        rule = parse_program(
            f"p(X0, X{length}) :- "
            + ", ".join(f"e(X{i}, X{i + 1})" for i in range(length))
            + "."
        ).rules[0]
        source = _emit(rule, None)
        return max(len(line) - len(line.lstrip(" ")) for line in source.splitlines())

    assert deepest(40) == deepest(200)
