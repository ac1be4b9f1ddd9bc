"""The Interactive Pattern Builder, simulated programmatically.

Section 3.2 describes the visual specification loop:

1. select a destination pattern and a parent pattern;
2. the system highlights the instances of the parent pattern on the example
   document;
3. the user marks a subregion of one highlighted region; the system computes
   the best-describing path ``pi`` and adds the rule
   ``p(S, X) <- p0(_, S), subelem(S, pi, X)``;
4. if the filter is too general, the user refines it (generalise the path,
   add conditions); if too narrow, further filters are added.

:class:`PatternBuilderSession` reproduces that loop against a rendered
example document.  Every interaction returns ordinary Elog objects, so the
resulting wrapper can be saved, inspected, and run by the Extractor — the
user never has to write Elog by hand, exactly as the paper stipulates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..elog.ast import ROOT_PATTERN, Condition, ElogProgram, ElogRule, SubElem
from ..elog.epath import AttributeCondition, ElementPath
from ..elog.extractor import Extractor
from ..elog.instance_base import PatternInstanceBase
from ..tree.document import Document
from ..tree.node import Node
from .generalize import exact_path, generalized_path
from .region import RenderedPage


class PatternBuilderError(RuntimeError):
    """Raised on invalid interactions (unknown patterns, bad selections)."""


@dataclass
class FilterProposal:
    """What the builder shows the user after a selection: the rule it would
    add, plus the instances that rule currently matches on the example."""

    rule: ElogRule
    matched_nodes: List[Node]

    def match_count(self) -> int:
        return len(self.matched_nodes)


class PatternBuilderSession:
    """One visual wrapper-specification session over an example document."""

    def __init__(self, document: Document) -> None:
        self.document = document
        self.page = RenderedPage.render(document)
        self.program = ElogProgram()
        self._pattern_names: List[str] = [ROOT_PATTERN]

    # ------------------------------------------------------------------
    # Pattern / filter management
    # ------------------------------------------------------------------
    def patterns(self) -> List[str]:
        return list(self._pattern_names)

    def program_tree(self) -> Dict[str, List[str]]:
        """The pattern/filter tree shown in the GUI (Figure 4, top left)."""
        return {
            pattern: [str(rule) for rule in self.program.rules_for(pattern)]
            for pattern in self._pattern_names
            if pattern != ROOT_PATTERN
        }

    def highlight_instances(self, pattern: str) -> List[Node]:
        """The regions the GUI would highlight for ``pattern``."""
        if pattern == ROOT_PATTERN:
            return [self.document.root]
        base = self._extract()
        return base.nodes_of(pattern)

    # ------------------------------------------------------------------
    # The core interaction: select a region, get a rule
    # ------------------------------------------------------------------
    def propose_filter(
        self,
        pattern: str,
        parent: str,
        selected_text: str,
        occurrence: int = 0,
        generalize: bool = True,
    ) -> FilterProposal:
        """Simulate marking the ``occurrence``-th occurrence of
        ``selected_text`` while defining ``pattern`` under ``parent``.

        Returns the proposed rule together with the nodes it matches so the
        user can decide to accept, refine or generalise it.
        """
        if parent != ROOT_PATTERN and parent not in self._pattern_names:
            raise PatternBuilderError(f"unknown parent pattern {parent!r}")
        target = self.page.select_text(selected_text, occurrence=occurrence)
        if target is None:
            raise PatternBuilderError(f"no region matching {selected_text!r} found")
        if target.label == "#text" and target.parent is not None:
            target = target.parent
        parent_node = self._enclosing_parent_instance(parent, target)
        if parent_node is None:
            raise PatternBuilderError(
                f"the selection is not inside any instance of the parent pattern {parent!r}"
            )
        path = generalized_path(parent_node, target) if generalize else exact_path(parent_node, target)
        rule = ElogRule(pattern=pattern, parent=parent, extraction=SubElem(path=path))
        return FilterProposal(rule=rule, matched_nodes=self._matches_of(rule))

    def propose_filter_region(
        self,
        pattern: str,
        parent: str,
        start: int,
        end: int,
        generalize: bool = True,
    ) -> FilterProposal:
        """Like :meth:`propose_filter` but with an explicit character region
        of the rendered page (a mouse drag spanning several elements)."""
        if parent != ROOT_PATTERN and parent not in self._pattern_names:
            raise PatternBuilderError(f"unknown parent pattern {parent!r}")
        target = self.page.node_for_selection(start, end)
        if target is None:
            raise PatternBuilderError("the selected region does not cover any node")
        if target.label == "#text" and target.parent is not None:
            target = target.parent
        parent_node = self._enclosing_parent_instance(parent, target)
        if parent_node is None:
            raise PatternBuilderError(
                f"the selection is not inside any instance of the parent pattern {parent!r}"
            )
        path = generalized_path(parent_node, target) if generalize else exact_path(parent_node, target)
        rule = ElogRule(pattern=pattern, parent=parent, extraction=SubElem(path=path))
        return FilterProposal(rule=rule, matched_nodes=self._matches_of(rule))

    def accept(self, proposal: FilterProposal) -> ElogRule:
        """Add the proposed filter: the wrapper becomes a new program."""
        self.program = ElogProgram((*self.program.rules, proposal.rule))
        if proposal.rule.pattern not in self._pattern_names:
            self._pattern_names.append(proposal.rule.pattern)
        return proposal.rule

    # ------------------------------------------------------------------
    # Refinement actions (the "filter too general / too specific" loop)
    # ------------------------------------------------------------------
    def refine_with_attribute(
        self, proposal: FilterProposal, attribute: str, value: str, mode: str = "exact"
    ) -> FilterProposal:
        rule = proposal.rule
        extraction = rule.extraction
        assert isinstance(extraction, SubElem)
        refined_path = ElementPath(
            steps=extraction.path.steps,
            conditions=extraction.path.conditions + (AttributeCondition(attribute, value, mode),),
        )
        refined = ElogRule(
            pattern=rule.pattern,
            parent=rule.parent,
            extraction=SubElem(path=refined_path),
            conditions=rule.conditions,
        )
        return FilterProposal(rule=refined, matched_nodes=self._matches_of(refined))

    def refine_with_condition(self, proposal: FilterProposal, condition: Condition) -> FilterProposal:
        rule = proposal.rule
        refined = ElogRule(
            pattern=rule.pattern,
            parent=rule.parent,
            extraction=rule.extraction,
            conditions=rule.conditions + (condition,),
        )
        return FilterProposal(rule=refined, matched_nodes=self._matches_of(refined))

    # ------------------------------------------------------------------
    # Testing the wrapper (the "test pattern" button)
    # ------------------------------------------------------------------
    def test_pattern(self, pattern: str) -> List[str]:
        """The extracted textual instances of ``pattern`` on the example."""
        return self._extract().values_of(pattern)

    def wrapper(self) -> ElogProgram:
        """The Elog program built so far."""
        return self.program

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _extract(self) -> PatternInstanceBase:
        return Extractor(self.program).extract(document=self.document)

    def _enclosing_parent_instance(self, parent: str, target: Node) -> Optional[Node]:
        if parent == ROOT_PATTERN:
            return self.document.root
        candidates = [
            node
            for node in self.highlight_instances(parent)
            if node.is_ancestor_of(target)
        ]
        if not candidates:
            return None
        # the innermost enclosing instance
        return max(candidates, key=lambda node: node.preorder_index)

    def _matches_of(self, rule: ElogRule) -> List[Node]:
        probe = ElogProgram((*self.program.rules, rule))
        base = Extractor(probe).extract(document=self.document)
        return base.nodes_of(rule.pattern)
