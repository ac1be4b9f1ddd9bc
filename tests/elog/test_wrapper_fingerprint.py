"""The content identity of an Elog wrapper (:func:`wrapper_fingerprint`).

A wrapper component keys its verifying trace by this fingerprint, and a
session keys its Elog analysis reports by it.  ``ElogProgram`` is a
mutable AST, so the fingerprint is recomputed per use: editing a program
in place must move it, and two different wrappers must never share one,
not even when the allocator hands a dead program's ``id()`` to a new one.
"""

from __future__ import annotations

import gc
import platform

import pytest

from repro.elog import ElogProgram, parse_elog, parse_rule, wrapper_fingerprint

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
    marked = fresh_program(TEXT_A).mark_auxiliary("title")
    assert str(plain) == str(marked)
    assert wrapper_fingerprint(plain) != wrapper_fingerprint(marked)


def test_in_place_edits_move_the_fingerprint():
    program = fresh_program(TEXT_A)
    seen = {wrapper_fingerprint(program)}
    program.add_rule(parse_rule("price(S, X) <- document(_, S), subelem(S, ?.price, X)"))
    seen.add(wrapper_fingerprint(program))
    program.mark_auxiliary("title")
    seen.add(wrapper_fingerprint(program))
    assert len(seen) == 3


@pytest.mark.skipif(
    platform.python_implementation() != "CPython",
    reason="id() address recycling is a CPython allocator behaviour",
)
def test_a_recycled_id_never_aliases_two_wrappers():
    """Force GC + id reuse: an ``id(program)`` key collides for two
    *different* wrappers, the fingerprint does not."""
    rules_a = list(parse_elog(TEXT_A).rules)
    rules_b = list(parse_elog(TEXT_B).rules)

    # Many TEXT_A wrappers die; many same-shaped TEXT_B wrappers are then
    # allocated and kept alive — the allocator's free lists virtually
    # guarantee some TEXT_B program lands on a dead TEXT_A address.
    programs_a = [ElogProgram(rules=list(rules_a)) for _ in range(2000)]
    dead_addresses = {id(program) for program in programs_a}
    fingerprint_a = wrapper_fingerprint(programs_a[0])
    del programs_a
    gc.collect()
    candidates = [ElogProgram(rules=list(rules_b)) for _ in range(2000)]
    program_b = next(
        (candidate for candidate in candidates if id(candidate) in dead_addresses),
        None,
    )
    if program_b is None:
        pytest.skip("allocator recycled none of 2000 freed addresses")
    assert wrapper_fingerprint(program_b) != fingerprint_a


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
