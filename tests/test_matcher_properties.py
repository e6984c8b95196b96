"""Property tests: the memoised matcher against an independent reference.

The reference implementation computes, bottom-up over the pattern, the full
*satisfaction sets* ``Sat(u) = {t : (T, t) ⊨ Subtree(u)}`` — a structurally
different algorithm from the matcher's memoised top-down walk, so
agreement between the two is meaningful evidence for both.

The walk itself keeps its frames on an explicit stack;
:class:`RecursiveMatcher` is the plain recursion it replaced, and on
shallow inputs the two must decide the same pairs with the same verdicts,
so the oracle does the work it did before.
"""

from hypothesis import given, settings

from repro.core.labels import DESCENDANT, WILDCARD
from repro.core.pattern import PatternNode, TreePattern
from repro.xmltree.matcher import CompiledPattern, PatternMatcher, matches
from repro.xmltree.skeleton import skeleton
from repro.xmltree.tree import XMLTree
from tests.strategies import tree_patterns, xml_trees


def reference_matches(tree: XMLTree, pattern: TreePattern) -> bool:
    """Bottom-up set-based implementation of the Section 2 semantics."""
    all_nodes = frozenset(range(len(tree)))
    parents = tree.parents
    labels = tree.labels

    def ancestors_or_self(nodes: frozenset[int]) -> frozenset[int]:
        result = set(nodes)
        frontier = list(nodes)
        while frontier:
            node = frontier.pop()
            parent = parents[node]
            if parent != -1 and parent not in result:
                result.add(parent)
                frontier.append(parent)
        return frozenset(result)

    def sat(u: PatternNode) -> frozenset[int]:
        child_sets = [sat(child) for child in u.children]

        def satisfies_children(t: int) -> bool:
            return all(t in s for s in child_sets)

        if u.label == DESCENDANT:
            good = frozenset(t for t in all_nodes if satisfies_children(t))
            return ancestors_or_self(good)
        if u.label == WILDCARD:
            good = (t for t in all_nodes if satisfies_children(t))
        else:
            good = (
                t
                for t in all_nodes
                if labels[t] == u.label and satisfies_children(t)
            )
        return frozenset(
            parents[t] for t in good if parents[t] != -1
        )

    def root_ok(v: PatternNode) -> bool:
        child_sets = [sat(child) for child in v.children]
        if v.label == DESCENDANT:
            target = v.children[0]
            target_sets = [sat(c) for c in target.children]
            for t in all_nodes:
                label_ok = (
                    target.label == WILDCARD or labels[t] == target.label
                )
                if label_ok and all(t in s for s in target_sets):
                    return True
            return False
        if v.label != WILDCARD and labels[tree.root] != v.label:
            return False
        return all(tree.root in s for s in child_sets)

    return all(root_ok(v) for v in pattern.root_children)


@settings(max_examples=300, deadline=None)
@given(xml_trees(), tree_patterns())
def test_matcher_agrees_with_reference(tree, pattern):
    assert matches(tree, pattern) == reference_matches(tree, pattern)


@settings(max_examples=200, deadline=None)
@given(xml_trees(), tree_patterns())
def test_skeletonisation_only_adds_matches(tree, pattern):
    """Coalescing same-tag children can only bring constraint branches
    together, never separate them: T ⊨ p implies skeleton(T) ⊨ p."""
    if matches(tree, pattern):
        assert matches(skeleton(tree), pattern)


@settings(max_examples=200, deadline=None)
@given(xml_trees())
def test_trivial_root_pattern_always_matches(tree):
    pattern = TreePattern((PatternNode(WILDCARD),))
    assert matches(tree, pattern)


@settings(max_examples=200, deadline=None)
@given(xml_trees())
def test_root_tag_pattern(tree):
    pattern = TreePattern((PatternNode(tree.labels[0]),))
    assert matches(tree, pattern)


@settings(max_examples=200, deadline=None)
@given(xml_trees())
def test_descendant_tag_pattern_iff_tag_present(tree):
    for tag in ("a", "e"):
        pattern = TreePattern(
            (PatternNode(DESCENDANT, (PatternNode(tag),)),)
        )
        assert matches(tree, pattern) == (tag in tree.tag_set)


def matches_without_prefilter(tree: XMLTree, pattern: TreePattern) -> bool:
    """The exact ``PatternMatcher.matches`` walk, with the
    ``required_tags`` rejection short-circuit disabled."""
    return PatternMatcher(pattern)._walk(tree, {}, {})


class RecursiveMatcher:
    """``PatternMatcher``'s walk as the plain recursion it was, one
    Python frame per (pattern node, document node) pair and its
    ``any`` / ``all`` generators, filling the same two memos."""

    def __init__(self, pattern: TreePattern):
        self.compiled = CompiledPattern(pattern)

    def walk(self, tree, memo, root_memo):
        return all(
            self._root_sat(tree, tree.root, u, memo, root_memo)
            for u in self.compiled.root_children
        )

    def _sat(self, tree, t, u, memo):
        key = u * len(tree.labels) + t
        cached = memo.get(key)
        if cached is not None:
            return cached
        cp = self.compiled
        label = cp.labels[u]
        pattern_kids = cp.children[u]
        doc_labels = tree.labels
        if label == DESCENDANT:
            memo[key] = False
            result = all(self._sat(tree, t, ku, memo) for ku in pattern_kids)
            if not result:
                result = any(
                    self._sat(tree, kid, u, memo) for kid in tree.children[t]
                )
        elif label == WILDCARD:
            result = any(
                all(self._sat(tree, kid, ku, memo) for ku in pattern_kids)
                for kid in tree.children[t]
            )
        else:
            result = any(
                doc_labels[kid] == label
                and all(self._sat(tree, kid, ku, memo) for ku in pattern_kids)
                for kid in tree.children[t]
            )
        memo[key] = result
        return result

    def _root_sat(self, tree, t, u, memo, root_memo):
        cp = self.compiled
        label = cp.labels[u]
        if label == DESCENDANT:
            key = u * len(tree.labels) + t
            cached = root_memo.get(key)
            if cached is not None:
                return cached
            root_memo[key] = False
            target = cp.children[u][0]
            result = self._root_sat(tree, t, target, memo, root_memo) or any(
                self._root_sat(tree, kid, u, memo, root_memo)
                for kid in tree.children[t]
            )
            root_memo[key] = result
            return result
        if label != WILDCARD and tree.labels[t] != label:
            return False
        return all(self._sat(tree, t, ku, memo) for ku in cp.children[u])


@settings(max_examples=300, deadline=None)
@given(xml_trees(), tree_patterns())
def test_the_stack_walk_decides_what_the_recursion_decides(tree, pattern):
    """Same verdict, and the same memos: every pair the recursion
    decided, and no other, with the same verdict each."""
    walked: tuple[dict[int, bool], dict[int, bool]] = ({}, {})
    recursed: tuple[dict[int, bool], dict[int, bool]] = ({}, {})
    verdict = PatternMatcher(pattern)._walk(tree, *walked)
    assert verdict == RecursiveMatcher(pattern).walk(tree, *recursed)
    assert walked == recursed


@settings(max_examples=300, deadline=None)
@given(xml_trees(), tree_patterns())
def test_required_tags_prefilter_never_changes_verdict(tree, pattern):
    """The prefilter is a pure accelerator: a pattern naming a tag the
    document lacks can never match, so rejecting on missing tags must
    agree with the full recursion on every (pattern, document) pair."""
    assert PatternMatcher(pattern).matches(tree) == (
        matches_without_prefilter(tree, pattern)
    )
