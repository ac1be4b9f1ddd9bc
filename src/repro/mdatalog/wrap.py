"""The output-tree ("tree minor") construction of Section 2.1.

Given a set of information extraction functions evaluated over an input tree,
the paper describes the natural way to compute the wrapping result: the
output tree contains a node for every input node that was assigned at least
one extraction predicate, relabelled accordingly; it contains an edge from v
to w whenever there is a directed path from v to w in the input tree on which
no intermediate node was assigned an extraction predicate.  Document order is
preserved.  Nodes not assigned any predicate are filtered out.

This is exactly what :func:`wrap_tree` computes.  When a node matches several
predicates, either the caller-provided label function decides the output
label, or labels are joined with "+" (matching the XML Designer's behaviour
of letting the pattern name act as a default label).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from ..tree.document import Document
from ..tree.node import Node
from ..xmlgen.document import XmlElement


def assignment_from_queries(
    document: Document,
    selections: Mapping[str, Iterable[Node]],
) -> Dict[int, List[str]]:
    """Turn per-predicate node selections into a node -> predicates map."""
    assignment: Dict[int, List[str]] = {}
    for predicate in sorted(selections):
        for node in selections[predicate]:
            assignment.setdefault(node.preorder_index, []).append(predicate)
    return assignment


def wrap_tree(
    document: Document,
    selections: Mapping[str, Iterable[Node]],
    label_for: Optional[Callable[[Node, Sequence[str]], str]] = None,
    root_name: str = "result",
    include_text: bool = True,
) -> XmlElement:
    """Compute the output tree of the wrapping process as an XML element.

    Parameters
    ----------
    document:
        The wrapped input document.
    selections:
        Mapping from extraction-predicate name to the selected nodes.
    label_for:
        Optional function choosing the output label of a node given the
        predicates assigned to it.  Default: single predicate name, or the
        names joined with ``+``.
    root_name:
        Name of the synthetic root of the output tree (needed because the
        selected nodes may be incomparable in the input tree).
    include_text:
        When true, a relabelled node with no relabelled descendants carries
        the normalised text content of its input subtree.
    """
    assignment = assignment_from_queries(document, selections)
    output_root = XmlElement(root_name)
    if not assignment:
        return output_root

    def choose_label(node: Node, predicates: Sequence[str]) -> str:
        if label_for is not None:
            return label_for(node, predicates)
        return predicates[0] if len(predicates) == 1 else "+".join(predicates)

    # Walk the input tree in document order keeping a stack of the nearest
    # relabelled ancestors; attach each relabelled node to the closest one.
    stack: List[tuple] = []  # (input node, output element)
    order: List[Node] = list(document)
    elements_by_index: Dict[int, XmlElement] = {}
    for node in order:
        # Pop ancestors that are not ancestors of the current node.
        while stack and not stack[-1][0].is_ancestor_of(node):
            stack.pop()
        predicates = assignment.get(node.preorder_index)
        if predicates is None:
            continue
        parent_element = stack[-1][1] if stack else output_root
        element = parent_element.add(choose_label(node, predicates))
        element.attributes["source_order"] = str(node.preorder_index)
        elements_by_index[node.preorder_index] = element
        stack.append((node, element))

    if include_text:
        for index, element in elements_by_index.items():
            if not element.children:
                element.text = document.node_at(index).normalized_text()
    # The synthetic attribute was useful for ordering debuggability; keep it
    # only when it carries information (more than one child anywhere).
    for element in output_root.iter():
        element.attributes.pop("source_order", None)
    return output_root
