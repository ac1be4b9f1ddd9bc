"""Visual wrapper specification (the Interactive Pattern Builder, simulated)."""

from .generalize import (
    exact_path,
    generalized_path,
    path_between,
    suggest_conditions,
)
from .pattern_builder import FilterProposal, PatternBuilderError, PatternBuilderSession
from .region import RenderedPage

__all__ = [
    "FilterProposal",
    "PatternBuilderError",
    "PatternBuilderSession",
    "RenderedPage",
    "exact_path",
    "generalized_path",
    "path_between",
    "suggest_conditions",
]
