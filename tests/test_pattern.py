"""Tree-pattern model: structure, validation, unordered equality."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.labels import DESCENDANT, WILDCARD
from repro.core.pattern import PatternError, PatternNode, TreePattern, _compare_keys
from repro.core.pattern_parser import parse_xpath
from tests.strategies import pattern_nodes, tree_patterns


def chain(*labels: str) -> PatternNode:
    node = None
    for label in reversed(labels):
        node = PatternNode(label, (node,) if node else ())
    assert node is not None
    return node


def deep_chain(depth: int, leaf: str = "x") -> PatternNode:
    node = PatternNode(leaf)
    for _ in range(depth):
        node = PatternNode("a", (node,))
    return node


def reference_key(node: PatternNode) -> tuple:
    """The recursive canonical key patterns were hashed and compared by
    before keys were cached; the cache must reproduce it exactly."""
    return (node.label, tuple(sorted(reference_key(c) for c in node.children)))


def reference_pattern_key(pattern: TreePattern) -> tuple:
    return tuple(sorted(reference_key(c) for c in pattern.root_children))


def permuted(node: PatternNode, rng) -> PatternNode:
    """An independently built copy of *node* with every sibling list
    shuffled."""
    children = [permuted(child, rng) for child in node.children]
    rng.shuffle(children)
    return PatternNode(node.label, tuple(children))


class TestPatternNode:
    def test_leaf(self):
        node = PatternNode("a")
        assert node.is_leaf
        assert node.size() == 1
        assert node.height() == 1

    def test_children_are_tuple(self):
        node = PatternNode("a", [PatternNode("b")])
        assert isinstance(node.children, tuple)

    def test_immutable(self):
        node = PatternNode("a")
        with pytest.raises(AttributeError):
            node.label = "b"

    def test_descendant_requires_single_child(self):
        with pytest.raises(PatternError):
            PatternNode(DESCENDANT)
        with pytest.raises(PatternError):
            PatternNode(DESCENDANT, (PatternNode("a"), PatternNode("b")))

    def test_descendant_child_cannot_be_descendant(self):
        inner = PatternNode(DESCENDANT, (PatternNode("a"),))
        with pytest.raises(PatternError):
            PatternNode(DESCENDANT, (inner,))

    def test_descendant_child_may_be_wildcard(self):
        node = PatternNode(DESCENDANT, (PatternNode(WILDCARD),))
        assert node.children[0].label == WILDCARD

    def test_root_label_rejected_on_nodes(self):
        with pytest.raises(PatternError):
            PatternNode("/.")

    def test_size_and_height(self):
        node = PatternNode("a", (chain("b", "c"), PatternNode("d")))
        assert node.size() == 4
        assert node.height() == 3

    def test_tags_excludes_operators(self):
        node = PatternNode(
            "a", (PatternNode(WILDCARD), PatternNode(DESCENDANT, (PatternNode("b"),)))
        )
        assert node.tags() == {"a", "b"}

    def test_iter_subtree_preorder(self):
        node = PatternNode("a", (PatternNode("b", (PatternNode("c"),)), PatternNode("d")))
        labels = [n.label for n in node.iter_subtree()]
        assert labels == ["a", "b", "c", "d"]


class TestUnorderedEquality:
    def test_sibling_order_irrelevant(self):
        p1 = PatternNode("a", (PatternNode("b"), PatternNode("c")))
        p2 = PatternNode("a", (PatternNode("c"), PatternNode("b")))
        assert p1 == p2
        assert hash(p1) == hash(p2)

    def test_deep_reordering(self):
        p1 = PatternNode("a", (chain("b", "x"), chain("b", "y")))
        p2 = PatternNode("a", (chain("b", "y"), chain("b", "x")))
        assert p1 == p2

    def test_different_labels_unequal(self):
        assert PatternNode("a") != PatternNode("b")

    def test_different_structure_unequal(self):
        assert PatternNode("a", (PatternNode("b"),)) != PatternNode("a")

    def test_not_equal_to_other_types(self):
        assert PatternNode("a") != "a"
        assert TreePattern((PatternNode("a"),)) != "a"
        assert PatternNode("a") != TreePattern((PatternNode("a"),))
        assert TreePattern((PatternNode("a"),)) != PatternNode("a")
        assert PatternNode("a").__eq__(("a", ())) is NotImplemented
        assert TreePattern((PatternNode("a"),)).__eq__((("a", ()),)) is NotImplemented


class TestTreePattern:
    def test_requires_children(self):
        with pytest.raises(PatternError):
            TreePattern(())

    def test_immutable(self):
        pattern = TreePattern((PatternNode("a"),))
        with pytest.raises(AttributeError):
            pattern.root_children = ()

    def test_size_includes_root(self):
        pattern = TreePattern((PatternNode("a"),))
        assert pattern.size() == 2

    def test_height_includes_root(self):
        pattern = TreePattern((chain("a", "b", "c"),))
        assert pattern.height() == 4

    def test_tags_union_over_children(self):
        pattern = TreePattern((PatternNode("a"), chain("b", "c")))
        assert pattern.tags() == {"a", "b", "c"}

    def test_has_descendant_ops(self):
        plain = TreePattern((PatternNode("a"),))
        desc = TreePattern((PatternNode(DESCENDANT, (PatternNode("a"),)),))
        assert not plain.has_descendant_ops()
        assert desc.has_descendant_ops()

    def test_has_wildcards(self):
        plain = TreePattern((PatternNode("a"),))
        wild = TreePattern((PatternNode(WILDCARD),))
        assert not plain.has_wildcards()
        assert wild.has_wildcards()

    def test_root_children_order_irrelevant(self):
        p1 = TreePattern((PatternNode("a"), PatternNode("b")))
        p2 = TreePattern((PatternNode("b"), PatternNode("a")))
        assert p1 == p2
        assert hash(p1) == hash(p2)

    def test_iter_nodes_covers_all(self):
        pattern = TreePattern((chain("a", "b"), PatternNode("c")))
        assert sorted(n.label for n in pattern.iter_nodes()) == ["a", "b", "c"]


class TestPatternProperties:
    @given(tree_patterns())
    def test_equality_is_reflexive(self, pattern):
        assert pattern == pattern

    @given(tree_patterns())
    def test_hash_consistent_with_rebuild(self, pattern):
        clone = TreePattern(tuple(reversed(pattern.root_children)))
        assert clone == pattern
        assert hash(clone) == hash(pattern)

    @given(tree_patterns())
    def test_size_counts_nodes(self, pattern):
        assert pattern.size() == 1 + sum(1 for _ in pattern.iter_nodes())

    @given(tree_patterns())
    def test_height_at_least_two(self, pattern):
        assert pattern.height() >= 2


class TestIdentityContract:
    """Cached keys change neither what is equal nor any hash value."""

    @given(tree_patterns())
    def test_hash_is_the_reference_key_hash(self, pattern):
        assert hash(pattern) == hash(reference_pattern_key(pattern))
        for node in pattern.iter_nodes():
            assert hash(node) == hash(reference_key(node))

    @given(tree_patterns(), tree_patterns(), st.randoms(use_true_random=False), st.booleans())
    def test_equal_exactly_when_reference_keys_are(self, p, other, rng, permute):
        q = (
            TreePattern(tuple(permuted(child, rng) for child in p.root_children))
            if permute
            else other
        )
        assert (p == q) == (reference_pattern_key(p) == reference_pattern_key(q))
        assert (p != q) == (reference_pattern_key(p) != reference_pattern_key(q))
        if permute:
            assert p == q and hash(p) == hash(q)

    @given(pattern_nodes(), pattern_nodes(), st.randoms(use_true_random=False))
    def test_node_equality_follows_reference_keys(self, a, b, rng):
        assert (a == b) == (reference_key(a) == reference_key(b))
        assert a == permuted(a, rng)

    @given(tree_patterns(), tree_patterns())
    def test_deep_fallback_orders_keys_as_tuples_do(self, p, q):
        # Deep siblings are sorted by the explicit-stack comparison; it
        # must agree with tuple order, or their hashes would move.
        a, b = reference_pattern_key(p), reference_pattern_key(q)
        assert _compare_keys(a, b) == (a > b) - (a < b)


class TestDeepPatterns:
    def test_ten_thousand_deep_chain_hashes_and_equals_its_rebuild(self):
        chain_node, rebuilt = deep_chain(10_000), deep_chain(10_000)
        assert hash(chain_node) == hash(rebuilt)
        assert chain_node == rebuilt
        assert chain_node != deep_chain(10_000, leaf="y")
        assert chain_node.height() == 10_001
        pattern = TreePattern((chain_node,))
        assert pattern == TreePattern((rebuilt,))
        assert hash(pattern) == hash(TreePattern((rebuilt,)))
        assert pattern.height() == 10_002

    def test_parsed_six_hundred_step_path(self):
        expression = "/" + "/".join(["a"] * 600)
        pattern, again = parse_xpath(expression), parse_xpath(expression)
        assert pattern == again
        assert hash(pattern) == hash(again)
        assert pattern.height() == 601

    def test_deep_siblings_sort_canonically(self):
        left = PatternNode("r", (deep_chain(2_000, "x"), deep_chain(2_000, "y")))
        right = PatternNode("r", (deep_chain(2_000, "y"), deep_chain(2_000, "x")))
        assert left == right
        assert hash(left) == hash(right)
        assert left != PatternNode("r", (deep_chain(2_000, "x"), deep_chain(2_000, "x")))
