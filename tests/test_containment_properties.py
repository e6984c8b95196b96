"""Property suite for containment's shortcuts and the cached tag sets.

``contains(p, q)`` answers False when ``p.tags() <= q.tags()`` fails and
True for equal patterns, both before any homomorphism search.  Neither
shortcut may change an answer, so over hypothesis pattern pairs and over
every ordered pair of a seeded 150-pattern NITF sample the suite checks:

* ``contains`` equals the homomorphism search with the shortcuts
  bypassed, and the search, which walks the pattern pairs with an
  explicit stack and a memo, answers what the plain recursion answers;
* a containment implies the tag subset;
* ``TreePattern.tags()`` equals a fresh walk of the pattern, and equal
  tag sets are one shared object.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.containment import _homomorphic, contains
from repro.core.labels import DESCENDANT, WILDCARD, is_tag
from repro.core.pattern import PatternNode, TreePattern
from repro.dtd.builtin import nitf_dtd
from repro.generators.querygen import PatternGenerator
from tests.strategies import property_max_examples, tree_patterns


def walked_tags(pattern: TreePattern) -> frozenset[str]:
    """The pattern's tags, from a fresh walk of its nodes."""
    return frozenset(node.label for node in pattern.iter_nodes() if is_tag(node.label))


def rebuilt(pattern: TreePattern) -> TreePattern:
    """An equal pattern made of new nodes, siblings in reverse order."""

    def node(original: PatternNode) -> PatternNode:
        return PatternNode(original.label, tuple(map(node, original.children[::-1])))

    return TreePattern(tuple(map(node, pattern.root_children[::-1])))


def recursive_embeds(p: PatternNode, q: PatternNode) -> bool:
    """The homomorphism recursion anchored at *q*, unmemoised."""
    if p.label == DESCENDANT:
        return recursive_embeds(p.children[0], q) or any(
            recursive_embeds(p, child) for child in q.children
        )
    if q.label == DESCENDANT or p.label not in (WILDCARD, q.label):
        return False
    return all(
        any(recursive_embeds(p_child, q_child) for q_child in q.children)
        for p_child in p.children
    )


def recursive_root_embeds(p: PatternNode, q: PatternNode) -> bool:
    """:func:`recursive_embeds` for two root constraints."""
    if p.label == DESCENDANT:
        if recursive_root_embeds(p.children[0], q):
            return True
        if q.label == DESCENDANT:
            return recursive_embeds(p, q.children[0]) or recursive_root_embeds(
                p, q.children[0]
            )
        return any(recursive_embeds(p, child) for child in q.children)
    return q.label != DESCENDANT and recursive_embeds(p, q)


def recursive_homomorphic(p: TreePattern, q: TreePattern) -> bool:
    """The homomorphism search as a plain recursion."""
    return all(
        any(recursive_root_embeds(p_child, q_child) for q_child in q.root_children)
        for p_child in p.root_children
    )


def check_pair(p: TreePattern, q: TreePattern) -> bool:
    """Assert the shortcut properties on (p, q); return the answer."""
    answer = contains(p, q)
    assert answer == _homomorphic(p, q) == recursive_homomorphic(p, q)
    if answer:
        assert p.tags() <= q.tags()
    return answer


class TestRandomPairs:
    @settings(max_examples=property_max_examples(200), deadline=None)
    @given(tree_patterns(), tree_patterns())
    def test_shortcuts_change_no_answer(self, p, q):
        check_pair(p, q)
        check_pair(q, p)
        # p plus q's constraints: p contains it, over a vocabulary that
        # may be strictly larger than p's.
        widened = TreePattern(p.root_children + q.root_children)
        assert check_pair(p, widened)

    @settings(max_examples=property_max_examples(200), deadline=None)
    @given(tree_patterns())
    def test_tags_are_a_fresh_walk_shared_by_equal_patterns(self, p):
        assert p.tags() == walked_tags(p)
        copy = rebuilt(p)
        assert copy == p and copy is not p
        assert copy.tags() is p.tags()
        assert check_pair(p, copy) and check_pair(copy, p)


@pytest.fixture(scope="module")
def nitf_sample() -> list[TreePattern]:
    return PatternGenerator(nitf_dtd(), seed=31).generate_many(150)


class TestNitfSample:
    def test_every_ordered_pair(self, nitf_sample):
        pairs = [(p, q) for p in nitf_sample for q in nitf_sample]
        answers = [check_pair(p, q) for p, q in pairs]
        # The sample reaches both sides of the tag test, and some of its
        # containments are over a strictly larger vocabulary.
        assert not all(p.tags() <= q.tags() for p, q in pairs)
        assert any(
            answer and p.tags() < q.tags()
            for answer, (p, q) in zip(answers, pairs, strict=True)
        )

    def test_tags_are_fresh_walks_interned_by_value(self, nitf_sample):
        shared: dict[frozenset[str], frozenset[str]] = {}
        for pattern in nitf_sample:
            tags = pattern.tags()
            assert tags == walked_tags(pattern)
            assert shared.setdefault(tags, tags) is tags
            assert rebuilt(pattern).tags() is tags
