"""The memoised estimator returns exactly what a fresh evaluation returns.

:class:`~repro.core.selectivity.SelectivityEstimator` memoises each root
constraint's ``SEL`` result, skips synopsis subtrees whose tag mask lacks
a tag the pattern needs, and drops its memos when
:attr:`~repro.synopsis.synopsis.DocumentSynopsis.version` moves.  The
oracle here is :class:`ReferenceEstimator`: a test-local copy of the
evaluator those three replaced — Algorithm 1 over an index-compiled
pattern, with only a per-evaluation memo and the per-pattern result
cache — rebuilt for every check, so it cannot see stale state.

One estimator per synopsis is queried between interleaved updates
(insertions, lossy and lossless folds, same-label merges, compression)
and never has its cache cleared; every ``selectivity``,
``matching_view`` (level and ids) and ``joint_selectivity`` must equal
the oracle's exactly, in all three synopsis modes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labels import DESCENDANT, label_below
from repro.core.pattern import TreePattern
from repro.core.pattern_algebra import merge_patterns
from repro.core.pattern_parser import parse_xpath
from repro.core.selectivity import SelectivityEstimator
from repro.dtd.builtin import nitf_dtd
from repro.generators.docgen import DocumentGenerator
from repro.generators.querygen import PatternGenerator
from repro.synopsis.compression import compress_to_ratio
from repro.synopsis.node import LabelTree, SynopsisNode
from repro.synopsis.pruning import fold_leaves, merge_same_label
from repro.synopsis.setops import SampleView, intersect_views, union_views
from repro.synopsis.synopsis import DocumentSynopsis
from repro.xmltree.matcher import CompiledPattern
from repro.xmltree.tree import XMLTree
from tests.strategies import property_max_examples, tree_patterns, xml_trees

#: Per-node hash-sample capacity small enough that views carry levels.
HASH_CAPACITY = 2
#: Reservoir size for sets mode: smaller than some corpora, so evictions
#: happen between checks.
SETS_CAPACITY = 6

STEPS = ("insert", "fold", "fold_lossless", "merge", "compress")


class ReferenceEstimator:
    """Algorithm 1 as evaluated before root-constraint memos, tag pruning
    and versioned memos: every pattern is compiled and walked from the
    synopsis root, with a memo that lives for one evaluation."""

    def __init__(self, synopsis: DocumentSynopsis) -> None:
        self.synopsis = synopsis
        self._cache: dict[TreePattern, float] = {}

    def selectivity(self, pattern: TreePattern) -> float:
        cached = self._cache.get(pattern)
        if cached is None:
            cached = self._estimate(pattern)
            self._cache[pattern] = cached
        return cached

    def joint_selectivity(self, p: TreePattern, q: TreePattern) -> float:
        return self.selectivity(merge_patterns(p, q))

    def matching_view(self, pattern: TreePattern) -> SampleView:
        return self._root_view(CompiledPattern(pattern))

    def _cursor_children(self, node: SynopsisNode, label: LabelTree):
        result = []
        if label is node.label:
            result.extend((child, child.label) for child in node.children)
        result.extend((node, component) for component in label.children)
        return result

    def _empty(self) -> SampleView:
        return SampleView.empty(self.synopsis.hasher)

    def _root_view(self, cp: CompiledPattern) -> SampleView:
        root = self.synopsis.root
        kids = self._cursor_children(root, root.label)
        memo: dict = {}
        branch_views = []
        for u in cp.root_children:
            view = (
                union_views([self._view(cp, n, lab, u, memo) for n, lab in kids])
                if kids
                else self._empty()
            )
            if view.is_empty():
                return self._empty()
            branch_views.append(view)
        return intersect_views(branch_views)

    def _view(self, cp, node, label, u, memo) -> SampleView:
        if not label_below(label.tag, cp.labels[u]):
            return self._empty()
        key = (node.node_id, id(label), u)
        if key in memo:
            return memo[key]
        pattern_kids = cp.children[u]
        if not pattern_kids:
            result = self.synopsis.full_view(node)
        elif cp.labels[u] != DESCENDANT:
            kids = self._cursor_children(node, label)
            result = self._empty()
            if kids:
                branch_views = []
                for child_u in pattern_kids:
                    view = union_views(
                        [self._view(cp, n, lab, child_u, memo) for n, lab in kids]
                    )
                    if view.is_empty():
                        branch_views = []
                        break
                    branch_views.append(view)
                if branch_views:
                    result = intersect_views(branch_views)
        else:
            zero = intersect_views(
                [self._view(cp, node, label, cu, memo) for cu in pattern_kids]
            )
            kids = self._cursor_children(node, label)
            deeper = union_views([self._view(cp, n, lab, u, memo) for n, lab in kids])
            result = zero.union(deeper)
        memo[key] = result
        return result

    def _root_count(self, cp: CompiledPattern, total: float) -> float:
        root = self.synopsis.root
        kids = self._cursor_children(root, root.label)
        memo: dict = {}
        probability = 1.0
        for u in cp.root_children:
            best = max(
                (self._count(cp, n, lab, u, memo, total) for n, lab in kids),
                default=0.0,
            )
            if best <= 0.0:
                return 0.0
            probability *= best / total
        return probability * total

    def _count(self, cp, node, label, u, memo, total) -> float:
        if not label_below(label.tag, cp.labels[u]):
            return 0.0
        key = (node.node_id, id(label), u)
        if key in memo:
            return memo[key]
        pattern_kids = cp.children[u]
        if not pattern_kids:
            result = float(node.summary.count)
        elif cp.labels[u] != DESCENDANT:
            kids = self._cursor_children(node, label)
            result = 1.0 if kids else 0.0
            for child_u in pattern_kids:
                best = max(
                    (self._count(cp, n, lab, child_u, memo, total) for n, lab in kids),
                    default=0.0,
                )
                if best <= 0.0:
                    result = 0.0
                    break
                result *= best / total
            result *= total if result else 0.0
        else:
            zero = 1.0
            for child_u in pattern_kids:
                zero *= self._count(cp, node, label, child_u, memo, total) / total
            zero *= total
            kids = self._cursor_children(node, label)
            deeper = max(
                (self._count(cp, n, lab, u, memo, total) for n, lab in kids),
                default=0.0,
            )
            result = max(zero, deeper)
        memo[key] = result
        return result

    def _estimate(self, pattern: TreePattern) -> float:
        cp = CompiledPattern(pattern)
        synopsis = self.synopsis
        if synopsis.mode == "counters":
            total = float(synopsis.root.summary.count)
            if total <= 0:
                return 0.0
            return _clamp(self._root_count(cp, total) / total)
        result = self._root_view(cp)
        if synopsis.mode == "sets":
            denominator = synopsis.represented_documents
            if denominator <= 0:
                return 0.0
            return _clamp(len(result.ids) / denominator)
        if synopsis.n_documents <= 0:
            return 0.0
        return _clamp(result.estimate_cardinality() / synopsis.n_documents)


def _clamp(value: float) -> float:
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


def check(
    estimator: SelectivityEstimator,
    synopsis: DocumentSynopsis,
    patterns: list[TreePattern],
) -> int:
    """Assert the estimator agrees exactly with a fresh reference; return
    the highest hash level among the views compared."""
    reference = ReferenceEstimator(synopsis)
    highest = 0
    for pattern in patterns:
        assert estimator.selectivity(pattern) == reference.selectivity(pattern)
    if synopsis.mode != "counters":
        for pattern in patterns:
            got = estimator.matching_view(pattern)
            want = reference.matching_view(pattern)
            assert (got.level, got.ids) == (want.level, want.ids)
            highest = max(highest, got.level)
    for p in patterns:
        for q in patterns:
            assert estimator.joint_selectivity(p, q) == reference.joint_selectivity(
                p, q
            )
    return highest


def new_synopsis(mode: str) -> DocumentSynopsis:
    capacity = {"sets": SETS_CAPACITY, "hashes": HASH_CAPACITY}.get(mode, 1)
    return DocumentSynopsis(mode=mode, capacity=capacity, seed=3)


def run_scenario(
    mode: str,
    documents: list[XMLTree],
    patterns: list[TreePattern],
    steps: list[str],
) -> int:
    """Insert half the corpus, then apply *steps*, checking one long-lived
    estimator after every step; returns the highest view level seen."""
    synopsis = new_synopsis(mode)
    estimator = SelectivityEstimator(synopsis)
    pending = list(documents)
    half = (len(pending) + 1) // 2
    for document in pending[:half]:
        synopsis.insert_document(document)
    del pending[:half]
    highest = check(estimator, synopsis, patterns)
    for step in steps:
        if step == "insert" and pending:
            synopsis.insert_document(pending.pop(0))
        elif step == "fold":
            fold_leaves(synopsis, min_similarity=0.0)
        elif step == "fold_lossless":
            fold_leaves(synopsis, lossless_only=True)
        elif step == "merge":
            merge_same_label(synopsis, min_similarity=0.0)
        elif step == "compress":
            compress_to_ratio(synopsis, 0.5)
        highest = max(highest, check(estimator, synopsis, patterns))
    return highest


@st.composite
def corpora(draw, max_docs: int = 8) -> list[XMLTree]:
    n = draw(st.integers(min_value=1, max_value=max_docs))
    documents = []
    for doc_id in range(n):
        tree = draw(xml_trees())
        documents.append(
            XMLTree(tree.labels, tree.parents, tree.children, doc_id=doc_id)
        )
    return documents


@pytest.mark.parametrize("mode", ["sets", "hashes", "counters"])
@settings(max_examples=property_max_examples(40), deadline=None)
@given(
    documents=corpora(),
    patterns=st.lists(tree_patterns(), min_size=1, max_size=5),
    steps=st.lists(st.sampled_from(STEPS), max_size=6),
)
def test_memoised_estimator_equals_fresh_evaluation(mode, documents, patterns, steps):
    run_scenario(mode, documents, patterns, steps)


def test_small_hash_capacity_gives_leveled_views():
    """The hashes-mode properties above compare views above level 0."""
    dtd = nitf_dtd()
    generator = DocumentGenerator(dtd, seed=8)
    documents = [generator.generate(doc_id=index) for index in range(12)]
    patterns = PatternGenerator(dtd, seed=7).generate_many(12)
    steps = ["fold", "insert", "merge", "compress", "insert"]
    assert run_scenario("hashes", documents, patterns, steps) > 0


def test_nitf_scenario_in_every_mode():
    """NITF-shaped documents and patterns, which fold and merge deeper
    than the random alphabet does."""
    dtd = nitf_dtd()
    generator = DocumentGenerator(dtd, seed=4)
    documents = [generator.generate(doc_id=index) for index in range(16)]
    patterns = PatternGenerator(dtd, seed=5).generate_many(10)
    steps = ["fold_lossless", "insert", "fold", "insert", "merge", "compress"]
    for mode in ("sets", "hashes", "counters"):
        run_scenario(mode, documents, patterns, steps)


def test_reordered_constraint_is_not_served_from_the_memo():
    """Counter mode multiplies branch ratios in child order: a constraint
    equal to a memoised one but listing its children in another order
    must be evaluated in its own order."""
    synopsis = DocumentSynopsis(mode="counters")
    for doc_id, nested in enumerate(
        [("a", ["b", "c", "d"]), ("a", ["d"]), ("a", ["d"]), "a", "a"]
    ):
        synopsis.insert_document(XMLTree.from_nested(nested, doc_id=doc_id))
    forward = parse_xpath("/a[b][c][d]")
    backward = parse_xpath("/.[a[d][c][b]][.//b]")
    assert forward.root_children[0] == backward.root_children[0]
    estimator = SelectivityEstimator(synopsis)
    estimator.selectivity(forward)
    fresh = ReferenceEstimator(synopsis).selectivity(backward)
    assert fresh != ReferenceEstimator(synopsis).selectivity(
        parse_xpath("/.[a[b][c][d]][.//b]")
    ), "the counts no longer expose product order; pick others"
    assert estimator.selectivity(backward) == fresh
