"""The content identity of an Elog wrapper (:func:`wrapper_fingerprint`).

A wrapper component keys its verifying trace by this fingerprint, and a
session keys its Elog analysis reports by it.  A built ``ElogProgram`` is
a value that is never edited, so its fingerprint is rendered once, on first
use, and kept on the program; a changed wrapper is a new program with a
fingerprint of its own.  Two different wrappers must never share one, not
even when the allocator hands a dead program's ``id()`` to a new one.
"""

from __future__ import annotations

import gc
import platform
from dataclasses import FrozenInstanceError, replace

import pytest

from repro import Session
from repro.elog import ElogProgram, ElogRule, parse_elog, parse_rule, wrapper_fingerprint
from repro.html import parse_html
from repro.server.components import WrapperComponent
from repro.web import SimulatedWeb

TEXT_A = """
title(S, X) <- document(_, S), subelem(S, ?.title, X)
"""

TEXT_B = """
price(S, X) <- document(_, S), subelem(S, ?.price, X)
"""


def fresh_program(text: str) -> ElogProgram:
    # A new ElogProgram object per call; the fingerprint reads only the
    # rules' text and the auxiliary set.
    return ElogProgram(rules=list(parse_elog(text).rules))


def test_content_equal_programs_share_one_fingerprint():
    assert wrapper_fingerprint(fresh_program(TEXT_A)) == wrapper_fingerprint(
        fresh_program(TEXT_A)
    )
    assert wrapper_fingerprint(fresh_program(TEXT_A)) != wrapper_fingerprint(
        fresh_program(TEXT_B)
    )


def test_auxiliary_patterns_are_part_of_the_fingerprint():
    plain = fresh_program(TEXT_A)
    marked = replace(fresh_program(TEXT_A), auxiliary_patterns={"title"})
    assert str(plain) == str(marked)
    assert wrapper_fingerprint(plain) != wrapper_fingerprint(marked)


def test_a_built_program_and_its_rules_are_frozen():
    program = fresh_program(TEXT_A)
    with pytest.raises(FrozenInstanceError):
        program.rules = ()
    with pytest.raises(FrozenInstanceError):
        program.auxiliary_patterns = frozenset({"title"})
    with pytest.raises(FrozenInstanceError):
        program.rules[0].pattern = "heading"
    assert isinstance(program.rules, tuple)
    assert isinstance(program.auxiliary_patterns, frozenset)


def test_three_distinct_programs_give_three_fingerprints():
    program = fresh_program(TEXT_A)
    seen = {wrapper_fingerprint(program)}
    price = parse_rule("price(S, X) <- document(_, S), subelem(S, ?.price, X)")
    extended = ElogProgram((*program.rules, price))
    seen.add(wrapper_fingerprint(extended))
    # replace() builds a new program, which keys itself, not its origin's key.
    marked = replace(extended, auxiliary_patterns={"title"})
    seen.add(wrapper_fingerprint(marked))
    assert len(seen) == 3


def test_a_program_is_rendered_once_however_often_it_runs(monkeypatch):
    rendered = []
    render = ElogRule.__str__

    def counting(rule):
        rendered.append(rule.pattern)
        return render(rule)

    monkeypatch.setattr(ElogRule, "__str__", counting)
    url = "shop.test/titles"
    page = "<html><head><title>Shop</title></head><body><p>x</p></body></html>"
    web = SimulatedWeb()
    web.publish(url, page)
    program = parse_elog(TEXT_A + TEXT_B)
    component = WrapperComponent("titles", program, web, url)
    for _ in range(50):
        component.process([])
    session = Session()
    document = parse_html(page, url=url)
    for _ in range(50):
        [result] = session.extract_many(program, [document])
    assert result.texts("title") == ("Shop",)
    assert sorted(rendered) == sorted(rule.pattern for rule in program.rules)


@pytest.mark.skipif(
    platform.python_implementation() != "CPython",
    reason="id() address recycling is a CPython allocator behaviour",
)
def test_a_recycled_id_never_aliases_two_wrappers():
    """Force GC + id reuse: an ``id(program)`` key collides for two
    *different* wrappers, the fingerprint does not."""
    rules_a = list(parse_elog(TEXT_A).rules)
    rules_b = list(parse_elog(TEXT_B).rules)

    # Every other one of many TEXT_A wrappers dies; many same-shaped TEXT_B
    # wrappers are then allocated and kept alive.  The collection up front
    # frees the cyclic garbage earlier tests left, which would otherwise be
    # freed by the collection after the deaths and hand its slots out ahead
    # of the dead wrappers'.  The surviving TEXT_A wrappers keep each
    # allocator pool that held a dead one in use, so the freed slots are
    # handed out again rather than the memory going back to the system; the
    # TEXT_B rule lists are built before the deaths, so the only allocations
    # after them that can take a freed slot are the TEXT_B programs.
    gc.collect()
    programs_a = [ElogProgram(rules=list(rules_a)) for _ in range(4000)]
    survivors_a = programs_a[1::2]
    dead_addresses = {id(program) for program in programs_a[::2]}
    fingerprint_a = wrapper_fingerprint(programs_a[0])
    rule_lists_b = [list(rules_b) for _ in range(2000)]
    del programs_a
    gc.collect()
    candidates = [ElogProgram(rules=rules) for rules in rule_lists_b]
    program_b = next(
        (candidate for candidate in candidates if id(candidate) in dead_addresses),
        None,
    )
    if program_b is None:
        pytest.skip("allocator recycled none of 2000 freed addresses")
    assert wrapper_fingerprint(program_b) != fingerprint_a
    assert wrapper_fingerprint(survivors_a[0]) == fingerprint_a


def test_gc_churn_never_gives_two_wrappers_one_fingerprint():
    texts = [TEXT_A, TEXT_B, TEXT_A.replace("title", "author"), TEXT_B.replace("price", "bids")]
    owners = {}
    for round_ in range(50):
        text = texts[round_ % len(texts)]
        program = fresh_program(text)
        assert owners.setdefault(wrapper_fingerprint(program), text) == text
        del program
        if round_ % 7 == 0:
            gc.collect()
    assert len(owners) == len(texts)
