"""EngineOptions: the one tuning object every evaluator accepts."""

from __future__ import annotations

import pytest

from repro import EngineOptions


def test_defaults_match_the_pre_facade_constructor_defaults():
    options = EngineOptions()
    assert options.cache_size == 8
    assert options.force_generic is False


def test_options_are_frozen_and_hashable():
    options = EngineOptions()
    with pytest.raises(Exception):
        options.cache_size = 4  # type: ignore[misc]
    # Hashability is load-bearing: options key session evaluator memos and
    # the automata module evaluator cache.
    assert hash(options) == hash(EngineOptions())
    assert options == EngineOptions()
    assert options != EngineOptions(cache_size=4)


def test_derive_returns_an_updated_copy():
    base = EngineOptions()
    tuned = base.derive(cache_size=32, force_generic=True)
    assert tuned.cache_size == 32 and tuned.force_generic
    assert base.cache_size == 8 and not base.force_generic  # unchanged


def test_cache_size_is_validated_at_construction():
    with pytest.raises(ValueError):
        EngineOptions(cache_size=0)
