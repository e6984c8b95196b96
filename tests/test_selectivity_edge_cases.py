"""Selectivity estimation edge cases across representations and pruned
synopsis shapes."""

import pytest

from repro.core.pattern_parser import parse_xpath
from repro.core.selectivity import SelectivityEstimator
from repro.synopsis.pruning import fold_leaves, merge_same_label
from repro.synopsis.synopsis import DocumentSynopsis
from repro.xmltree.tree import XMLTree


def build(mode, specs, capacity=100):
    synopsis = DocumentSynopsis(mode=mode, capacity=capacity, seed=3)
    for doc_id, spec in enumerate(specs):
        synopsis.insert_document(XMLTree.from_nested(spec, doc_id=doc_id))
    return synopsis


class TestOperatorOnlyPatterns:
    """Patterns carrying no tag at all (pure * and //)."""

    SPECS = [("a", ["b"]), ("c", [("d", ["e"])])]

    @pytest.mark.parametrize("mode", ["sets", "hashes"])
    def test_root_wildcard(self, mode):
        estimator = SelectivityEstimator(build(mode, self.SPECS))
        assert estimator.selectivity(parse_xpath("/*")) == pytest.approx(1.0)

    @pytest.mark.parametrize("mode", ["sets", "hashes"])
    def test_double_wildcard(self, mode):
        estimator = SelectivityEstimator(build(mode, self.SPECS))
        # Both documents have a depth-2 node.
        assert estimator.selectivity(parse_xpath("/*/*")) == pytest.approx(1.0)

    @pytest.mark.parametrize("mode", ["counters", "sets", "hashes"])
    def test_triple_wildcard(self, mode):
        estimator = SelectivityEstimator(build(mode, self.SPECS))
        # Only the second document is three levels deep.
        assert estimator.selectivity(parse_xpath("/*/*/*")) == pytest.approx(0.5)

    @pytest.mark.parametrize("mode", ["sets", "hashes"])
    def test_descendant_wildcard(self, mode):
        estimator = SelectivityEstimator(build(mode, self.SPECS))
        assert estimator.selectivity(parse_xpath("//*")) == pytest.approx(1.0)

    def test_counters_max_substitution_undercounts_across_siblings(self):
        """Counter mode replaces union by max, so a wildcard spanning two
        distinct root tags sees only the larger count — the documented
        conservative approximation of Section 4."""
        estimator = SelectivityEstimator(build("counters", self.SPECS))
        assert estimator.selectivity(parse_xpath("/*")) == pytest.approx(0.5)
        assert estimator.selectivity(parse_xpath("//*")) == pytest.approx(0.5)


class TestDeepDescendants:
    SPECS = [
        ("a", [("b", [("c", [("d", ["e"])])])]),
        ("a", [("x", ["e"])]),
    ]

    @pytest.mark.parametrize("mode", ["sets", "hashes"])
    def test_stacked_descendants(self, mode):
        estimator = SelectivityEstimator(build(mode, self.SPECS))
        assert estimator.selectivity(parse_xpath("//b//d//e")) == pytest.approx(
            0.5
        )

    @pytest.mark.parametrize("mode", ["sets", "hashes"])
    def test_descendant_to_shared_leaf(self, mode):
        estimator = SelectivityEstimator(build(mode, self.SPECS))
        assert estimator.selectivity(parse_xpath("//e")) == pytest.approx(1.0)

    def test_counter_mode_descendants_bounded(self):
        estimator = SelectivityEstimator(build("counters", self.SPECS))
        value = estimator.selectivity(parse_xpath("//e"))
        assert 0.0 < value <= 1.0


class TestPrunedShapes:
    def test_counters_with_folded_labels(self):
        synopsis = build("counters", [("a", [("b", ["c"])])] * 1)
        folds = fold_leaves(synopsis, min_similarity=0.0)
        assert folds > 0
        estimator = SelectivityEstimator(synopsis)
        assert estimator.selectivity(parse_xpath("/a/b/c")) == pytest.approx(1.0)

    def test_merged_then_folded(self):
        synopsis = build(
            "sets",
            [("a", [("b", ["x"]), ("c", ["x"])])] * 3,
        )
        merge_same_label(synopsis, min_similarity=0.9)
        fold_leaves(synopsis, min_similarity=0.9)
        estimator = SelectivityEstimator(synopsis)
        for expression in ("/a/b/x", "/a/c/x", "/a[b/x][c/x]", "//x"):
            assert estimator.selectivity(
                parse_xpath(expression)
            ) == pytest.approx(1.0), expression

    def test_pattern_deeper_than_folded_synopsis(self):
        synopsis = build("sets", [("a", [("b", ["c"])])] * 2)
        fold_leaves(synopsis, min_similarity=0.0)
        fold_leaves(synopsis, min_similarity=0.0)
        estimator = SelectivityEstimator(synopsis)
        # Deeper than anything stored: must be 0, not an error.
        assert estimator.selectivity(parse_xpath("/a/b/c/d/e")) == 0.0

    def test_wildcard_through_folded_label(self):
        synopsis = build("sets", [("a", [("b", ["c"])])] * 2)
        fold_leaves(synopsis, min_similarity=0.0)
        estimator = SelectivityEstimator(synopsis)
        assert estimator.selectivity(parse_xpath("/a/*/c")) == pytest.approx(1.0)

    def test_descendant_through_folded_label(self):
        synopsis = build("sets", [("a", [("b", [("c", ["d"])])])] * 2)
        for _ in range(3):
            fold_leaves(synopsis, min_similarity=0.0)
        estimator = SelectivityEstimator(synopsis)
        assert estimator.selectivity(parse_xpath("//c/d")) == pytest.approx(1.0)
        assert estimator.selectivity(parse_xpath("/a//d")) == pytest.approx(1.0)


class TestDocumentIdentityQuirks:
    def test_duplicate_doc_id_counts_once_in_sets(self):
        synopsis = DocumentSynopsis(mode="sets", capacity=10, seed=1)
        tree = XMLTree.from_nested(("a", ["b"]), doc_id=7)
        synopsis.insert_document(tree)
        synopsis.insert_document(tree)  # same id offered twice
        estimator = SelectivityEstimator(synopsis)
        # Two offers, one distinct id: P <= 1 must still hold.
        assert estimator.selectivity(parse_xpath("/a/b")) <= 1.0

    def test_interleaved_estimation_and_insertion(self):
        synopsis = DocumentSynopsis(mode="sets", capacity=100, seed=1)
        estimator = SelectivityEstimator(synopsis)
        pattern = parse_xpath("/a/b")
        synopsis.insert_document(XMLTree.from_nested(("a", ["b"]), doc_id=0))
        estimator.clear_cache()
        assert estimator.selectivity(pattern) == pytest.approx(1.0)
        synopsis.insert_document(XMLTree.from_nested(("a", ["c"]), doc_id=1))
        estimator.clear_cache()
        assert estimator.selectivity(pattern) == pytest.approx(0.5)

    def test_interleaved_estimation_and_insertion_without_clear_cache(self):
        # Memos follow the synopsis version, so no clear_cache() is needed.
        synopsis = DocumentSynopsis(mode="sets", capacity=100, seed=1)
        estimator = SelectivityEstimator(synopsis)
        pattern = parse_xpath("/a/b")
        synopsis.insert_document(XMLTree.from_nested(("a", ["b"]), doc_id=0))
        assert estimator.selectivity(pattern) == pytest.approx(1.0)
        synopsis.insert_document(XMLTree.from_nested(("a", ["c"]), doc_id=1))
        assert estimator.selectivity(pattern) == pytest.approx(0.5)
        assert estimator.matching_view(pattern).ids == frozenset({0})
