"""Array-based XML tree model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.xmltree.parser import parse_xml
from repro.xmltree.tree import XMLTree, XMLTreeBuilder
from tests.strategies import any_order_xml_trees, breadth_first, xml_trees


class TestBuilder:
    def test_build_simple(self):
        builder = XMLTreeBuilder()
        root = builder.add("a")
        child = builder.add("b", root)
        tree = builder.build(doc_id=7)
        assert tree.labels == ["a", "b"]
        assert tree.parents == [-1, 0]
        assert tree.children[root] == [child]
        assert tree.doc_id == 7

    def test_root_must_be_first(self):
        builder = XMLTreeBuilder()
        builder.add("a")
        with pytest.raises(ValueError):
            builder.add("b")  # second parentless node

    def test_parent_must_exist(self):
        builder = XMLTreeBuilder()
        builder.add("a")
        with pytest.raises(ValueError):
            builder.add("b", parent=5)

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError):
            XMLTreeBuilder().build()


class TestFromNested:
    def test_plain_string_is_leaf_root(self):
        tree = XMLTree.from_nested("a")
        assert tree.labels == ["a"]

    def test_nested_structure(self):
        tree = XMLTree.from_nested(("a", ["b", ("c", ["d"])]))
        assert tree.labels == ["a", "b", "c", "d"]
        assert tree.parents == [-1, 0, 0, 2]

    def test_round_trip_with_to_nested(self):
        spec = ("a", ["b", ("c", ["d", "e"])])
        assert XMLTree.from_nested(spec).to_nested() == spec

    @given(xml_trees())
    def test_round_trip_keeps_preorder_sibling_order(self, tree):
        rebuilt = XMLTree.from_nested(tree.to_nested())
        assert rebuilt.labels == tree.labels
        assert rebuilt.children == tree.children

    def test_deep_chain_round_trips(self):
        depth = 10_000
        tree = parse_xml("<a>" * depth + "<leaf/>" + "</a>" * depth)
        rebuilt = XMLTree.from_nested(tree.to_nested())
        # The arrays, not the nested specs: == on 10^4-deep tuples
        # recurses in C.
        assert rebuilt.labels == tree.labels
        assert rebuilt.children == tree.children


class TestStructure:
    @pytest.fixture()
    def tree(self):
        return XMLTree.from_nested(("a", [("b", ["c", "d"]), "e"]))

    def test_len(self, tree):
        assert len(tree) == 5

    def test_n_edges(self, tree):
        assert tree.n_edges == 4

    def test_root(self, tree):
        assert tree.root == 0
        assert tree.label(0) == "a"

    def test_children_and_parent(self, tree):
        b = tree.child_indices(0)[0]
        assert tree.label(b) == "b"
        assert tree.parent(b) == 0

    def test_is_leaf(self, tree):
        assert not tree.is_leaf(0)
        assert tree.is_leaf(len(tree) - 1)

    def test_tag_set(self, tree):
        assert tree.tag_set == {"a", "b", "c", "d", "e"}

    def test_preorder(self, tree):
        labels = [tree.label(n) for n in tree.iter_preorder()]
        assert labels == ["a", "b", "c", "d", "e"]

    def test_depth(self, tree):
        assert tree.depth() == 3

    def test_node_depths(self, tree):
        assert tree.node_depths()[0] == 1
        assert max(tree.node_depths()) == tree.depth()

    def test_path_labels(self, tree):
        c = [n for n in tree.iter_preorder() if tree.label(n) == "c"][0]
        assert tree.path_labels(c) == ("a", "b", "c")

    def test_leaves(self, tree):
        leaf_labels = sorted(tree.label(n) for n in tree.leaves())
        assert leaf_labels == ["c", "d", "e"]

    def test_invalid_parallel_arrays(self):
        with pytest.raises(ValueError):
            XMLTree(["a"], [-1, 0], [[]])

    def test_node0_must_be_root(self):
        with pytest.raises(ValueError):
            XMLTree(["a", "b"], [1, -1], [[], []])


class TestProperties:
    @given(xml_trees())
    def test_parent_child_consistency(self, tree):
        for node in range(1, len(tree)):
            assert node in tree.children[tree.parents[node]]

    @given(xml_trees())
    def test_preorder_visits_every_node_once(self, tree):
        visited = list(tree.iter_preorder())
        assert sorted(visited) == list(range(len(tree)))

    @given(xml_trees())
    def test_edges_count(self, tree):
        assert sum(len(kids) for kids in tree.children) == tree.n_edges

    @given(xml_trees())
    def test_depth_bounds(self, tree):
        assert 1 <= tree.depth() <= len(tree)

    @given(xml_trees())
    def test_approx_bytes_positive(self, tree):
        assert tree.approx_bytes() > 0


class TestTreeIndex:
    @given(any_order_xml_trees())
    def test_index_matches_the_tree(self, tree):
        index = tree.index
        assert index is tree.index
        labels = tree.labels
        for label, nodes in index.positions.items():
            assert nodes == [n for n in range(len(tree)) if labels[n] == label]
        for label, by_parent in index.children_by_label.items():
            for parent, kids in by_parent.items():
                assert kids == [
                    kid for kid in tree.children[parent] if labels[kid] == label
                ]
        assert sorted(index.preorder) == list(range(len(tree)))
        for node in range(len(tree)):
            subtree = index.preorder[index.start[node] : index.end[node]]
            assert subtree == list(tree.iter_preorder(node))

    @given(any_order_xml_trees(), st.data())
    def test_scope_is_the_descendant_or_self_closure(self, tree, data):
        anchors = data.draw(
            st.lists(st.integers(0, len(tree) - 1), max_size=4), label="anchors"
        )
        expected = {
            node for anchor in anchors for node in tree.iter_preorder(anchor)
        }
        assert tree.index.scope(anchors) == expected

    def test_breadth_first_numbering_is_not_preorder(self):
        tree = breadth_first(XMLTree.from_nested(("a", [("b", ["c"]), "d"])))
        assert tree.labels == ["a", "b", "d", "c"]
        index = tree.index
        assert index.preorder == [0, 1, 3, 2]
        assert index.scope([1]) == {1, 3}

    def test_deep_chain_index(self):
        builder = XMLTreeBuilder()
        for node in range(10_000):
            builder.add("a", node - 1)
        index = builder.build().index
        assert index.preorder == list(range(10_000))
        assert index.end == [10_000] * 10_000
        assert index.scope([9_998]) == {9_998, 9_999}
