"""Property suite for the trie walk: every visit against a reference walk.

``PatternTrie._walk`` takes a visit with one anchor its own way: it
reads the candidates of a child step straight off the document's index,
keeps a ``//`` step's candidates by the anchor's pre-order interval, and
counts the aliveness misses of the whole walk with one set union.  The
reference walk below, :func:`reference_walk`, takes every visit the
general way instead: candidate lists built per visit, a descendant
scope set, and one set union per visit.

Hypothesis draws pattern sets and documents numbered pre-order or
breadth-first (so a subtree need not be a contiguous run of node
numbers), and matches the documents one at a time and as one batch.
Each time, :meth:`PatternTrie.match_entries` must report what the
reference walk reports on the same trie: the same accepted entries per
document (compared as sets), the same operations per document, and the
same pool hits and misses.
"""

from __future__ import annotations

from types import MethodType
from typing import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labels import DESCENDANT, WILDCARD
from repro.core.pattern import PatternNode, TreePattern
from repro.core.pattern_parser import parse_xpath
from repro.routing.trie import _CHILD, _DESCENDANT, PatternTrie, _plan_of
from repro.xmltree.parser import parse_xml
from tests.strategies import (
    any_order_xml_trees,
    pattern_nodes,
    property_max_examples,
    tree_patterns,
)


def reference_walk(self, state, accepted):
    """The walk with every visit taken the general way, whatever its
    number of anchors."""
    missing = state.missing
    seen = state.seen
    tree_children = state.tree.children
    children_by_label = state.index.children_by_label
    branch_sat = self._branch_sat
    gate_sat = self._gate_sat
    lookups = misses = ops = 0
    stack = [(self._root, ())]
    while stack:
        parent, anchors = stack.pop()
        plan = parent.plan
        if plan is None:
            plan = parent.plan = _plan_of(parent)
        groups, child_masks, width = plan
        lookups += width
        before = len(seen)
        seen |= child_masks
        misses += len(seen) - before
        scope = None
        for axis, label, shared, members, uniform in groups:
            if shared & missing:
                continue
            live = (
                members
                if uniform
                else [m for m in members if not m.req_mask & missing]
            )
            if not live:
                continue
            candidates: Sequence[int]
            if axis == _CHILD:
                if label == WILDCARD:
                    candidates = [
                        kid for anchor in anchors for kid in tree_children[anchor]
                    ]
                else:
                    by_parent = children_by_label.get(label)
                    candidates = (
                        [
                            kid
                            for anchor in anchors
                            for kid in by_parent.get(anchor, ())
                        ]
                        if by_parent is not None
                        else []
                    )
                ops += len(anchors) + len(candidates)
            elif axis == _DESCENDANT:
                if scope is None:
                    scope = state.index.scope(anchors)
                candidates = self._descendants(label, scope, state)
            else:
                candidates = self._root_candidates(axis, label, state)
            if not candidates:
                continue
            for member in live:
                member_anchors = candidates
                branches = member.branches
                if branches:
                    kept = []
                    for anchor in candidates:
                        for branch in branches:
                            if not branch_sat(branch, anchor, state):
                                break
                        else:
                            kept.append(anchor)
                    if not kept:
                        continue
                    member_anchors = kept
                for entry in member.accepts.values():
                    for gate in entry.gates:
                        if not gate_sat(gate, state):
                            break
                    else:
                        accepted.append(entry)
                if member.child_order:
                    stack.append((member, member_anchors))
    pool = state.pool
    pool.hits += lookups - misses
    pool.misses += misses
    state.ops += misses + ops


def reference_entries(trie, trees):
    """``trie.match_entries(trees)`` walked by :func:`reference_walk`."""
    trie._walk = MethodType(reference_walk, trie)
    try:
        return trie.match_entries(trees)
    finally:
        del trie._walk


def outcome(batch):
    """What a walk reports: per document its accepted entries as a set
    and its operations, and the pool's hits and misses."""
    for accepted in batch.accepted:
        assert len(set(accepted)) == len(accepted), "an entry accepted twice"
    return (
        [set(accepted) for accepted in batch.accepted],
        batch.operations,
        batch.memo_hits,
        batch.memo_misses,
    )


def assert_walks_like_the_reference(trie, trees):
    assert outcome(trie.match_entries(trees)) == outcome(
        reference_entries(trie, trees)
    )


@st.composite
def below_the_root(draw, document):
    """``/r//x[…]``, with r *document*'s root label and x one of its
    labels: a ``//`` step whose one anchor is the root, which carries x
    itself whenever x is r."""
    label = draw(st.sampled_from(sorted(set(document.labels))))
    kids = draw(st.lists(pattern_nodes(max_depth=2), max_size=2))
    step = PatternNode(DESCENDANT, (PatternNode(label, tuple(kids)),))
    root = document.labels[document.root]
    return TreePattern((PatternNode(root, (step,)),))


def trie_of(patterns):
    trie = PatternTrie()
    for index, pattern in enumerate(patterns):
        trie.add(pattern, index)
    return trie


class TestWalkEqualsTheReference:
    @settings(max_examples=property_max_examples(60), deadline=None)
    @given(
        st.lists(tree_patterns(), min_size=1, max_size=8),
        st.lists(any_order_xml_trees(), min_size=1, max_size=4),
    )
    def test_each_document_walks_like_the_reference(self, patterns, documents):
        trie = trie_of(patterns)
        for document in documents:
            assert_walks_like_the_reference(trie, [document])

    @settings(max_examples=property_max_examples(40), deadline=None)
    @given(
        st.lists(tree_patterns(), min_size=1, max_size=8),
        st.lists(any_order_xml_trees(), min_size=1, max_size=5),
        st.data(),
    )
    def test_a_batch_walks_like_the_reference(self, patterns, documents, data):
        trie = trie_of(patterns)
        # Repeats let the pool answer whole documents and shared subtrees.
        batch = data.draw(
            st.lists(st.sampled_from(documents), min_size=1, max_size=6),
            label="batch",
        )
        assert_walks_like_the_reference(trie, batch)

    @settings(max_examples=property_max_examples(40), deadline=None)
    @given(
        st.lists(tree_patterns(), max_size=4),
        any_order_xml_trees(),
        st.data(),
    )
    def test_a_descendant_step_below_the_root_walks_like_the_reference(
        self, patterns, document, data
    ):
        below = data.draw(
            st.lists(below_the_root(document), min_size=1, max_size=4),
            label="below the root",
        )
        assert_walks_like_the_reference(trie_of(patterns + below), [document])


class TestOneAnchorSteps:
    """Small cases of the one-anchor steps, each against the reference."""

    def test_a_descendant_step_leaves_the_anchor_out(self):
        # The root's only anchor is itself; ``//a`` below it must not
        # take it back in, even though the document's last node lies
        # inside its interval.
        trie = trie_of([parse_xpath("/a//a"), parse_xpath("/a//b")])
        document = parse_xml("<a><b/></a>")
        result = trie.match_entries([document])
        assert [entry.pattern for entry in result.accepted[0]] == [
            parse_xpath("/a//b")
        ]
        assert_walks_like_the_reference(trie, [document])

    def test_child_steps_count_the_anchor_looked_up(self):
        trie = trie_of([parse_xpath("/a/b/c"), parse_xpath("/a/*/d")])
        document = parse_xml("<a><b><c/></b><e/></a>")
        assert_walks_like_the_reference(trie, [document])
