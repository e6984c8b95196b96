"""Hypothesis strategies for random documents and tree patterns.

A small tag alphabet is deliberate: collisions between document tags and
pattern tags must be likely, or every random pattern would trivially match
nothing.
"""

from __future__ import annotations

import os
from collections import deque

from hypothesis import strategies as st

from repro.core.labels import DESCENDANT, WILDCARD
from repro.core.pattern import PatternNode, TreePattern
from repro.xmltree.tree import XMLTree, XMLTreeBuilder

TAGS = ("a", "b", "c", "d", "e")


def property_max_examples(base: int) -> int:
    """Example budget for a pinned property-suite test.

    Tier-1 runs keep the per-test baseline so the suite stays fast; the
    CI property-test job exports ``HYPOTHESIS_PROFILE=thorough`` (see
    ``tests/conftest.py``) and gets an 8× deeper sweep.
    """
    if os.environ.get("HYPOTHESIS_PROFILE", "") == "thorough":
        return base * 8
    return base


@st.composite
def xml_trees(draw, max_depth: int = 4, max_children: int = 3) -> XMLTree:
    """Random small documents over the shared tag alphabet."""

    def subtree(depth: int):
        tag = draw(st.sampled_from(TAGS))
        if depth >= max_depth:
            return tag
        n_children = draw(st.integers(min_value=0, max_value=max_children))
        if n_children == 0:
            return tag
        return (tag, [subtree(depth + 1) for _ in range(n_children)])

    return XMLTree.from_nested(subtree(1), doc_id=draw(st.integers(0, 10_000)))


def breadth_first(tree: XMLTree) -> XMLTree:
    """*tree* renumbered breadth-first.

    Parents still precede children, as :class:`XMLTreeBuilder` requires,
    but a subtree's nodes are no longer numbered contiguously — the
    numbering :meth:`XMLTree.from_nested` (pre-order) always produces.
    """
    builder = XMLTreeBuilder()
    queue = deque([(tree.root, -1)])
    while queue:
        node, parent = queue.popleft()
        index = builder.add(tree.labels[node], parent)
        queue.extend((kid, index) for kid in tree.children[node])
    return builder.build(doc_id=tree.doc_id)


@st.composite
def any_order_xml_trees(draw, max_depth: int = 4, max_children: int = 3):
    """:func:`xml_trees`, numbered pre-order or breadth-first."""
    tree = draw(xml_trees(max_depth=max_depth, max_children=max_children))
    if draw(st.booleans(), label="breadth-first?"):
        return breadth_first(tree)
    return tree


@st.composite
def pattern_nodes(draw, max_depth: int = 3, max_children: int = 2) -> PatternNode:
    """Random pattern subtrees with tags, wildcards and descendant nodes."""
    kind = draw(
        st.sampled_from(("tag", "tag", "tag", "wildcard", "descendant"))
    )
    if kind == "descendant" and max_depth > 1:
        child = draw(
            pattern_nodes(max_depth=max_depth - 1, max_children=max_children)
        )
        while child.label == DESCENDANT:
            child = draw(
                pattern_nodes(max_depth=max_depth - 1, max_children=max_children)
            )
        return PatternNode(DESCENDANT, (child,))
    label = WILDCARD if kind == "wildcard" else draw(st.sampled_from(TAGS))
    if max_depth <= 1:
        return PatternNode(label)
    n_children = draw(st.integers(min_value=0, max_value=max_children))
    children = tuple(
        draw(pattern_nodes(max_depth=max_depth - 1, max_children=max_children))
        for _ in range(n_children)
    )
    return PatternNode(label, children)


@st.composite
def tree_patterns(draw, max_root_children: int = 2) -> TreePattern:
    """Random complete tree patterns."""
    n = draw(st.integers(min_value=1, max_value=max_root_children))
    return TreePattern(tuple(draw(pattern_nodes()) for _ in range(n)))
