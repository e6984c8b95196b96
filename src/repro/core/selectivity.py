"""Tree-pattern selectivity estimation over a document synopsis.

Implements Algorithms 1 and 2 of the paper.  ``SEL(v, u)`` recursively pairs
synopsis nodes with pattern nodes:

* a label mismatch (synopsis label not below the pattern label in the
  ``a ≼ * ≼ //`` order) prunes the pair;
* a pattern leaf contributes the synopsis node's *full* matching set;
* an inner pattern node takes, for each of its children, the union over the
  synopsis node's children, and intersects across pattern children
  (branching = conjunction);
* a ``//`` node either matches a zero-length path (children evaluated at the
  current synopsis node) or recurses into each synopsis child.

``P(p) = |SEL(rs, rp)| / |S(rs)|``.

Two evaluation modes share this structure:

* **set mode** (``"sets"``/``"hashes"``) manipulates
  :class:`~repro.synopsis.setops.SampleView` values, so correlations between
  branches are captured by actual id intersections;
* **counter mode** replaces union / intersection / cardinality by
  maximum / scaled product / value (the independence assumption of [4]).

Folded synopsis labels (``c[f][o[n]]``) are expanded transparently: each
nested label component behaves as a virtual child whose matching set equals
the folded node's, which is exactly the approximation the fold made when it
unioned the samples.  A synopsis position is therefore a *cursor*: a
(synopsis node, label component) pair.

Shared work.  A pattern's ``SEL`` is the intersection, in order, of its
*root constraints'* results — the subtrees below its ``/.`` root, each
taking the union over the synopsis root's cursors (in counter mode the
largest count, and the intersection becomes a product).  The estimator
memoises each root constraint's result, keyed by its
:class:`~repro.core.pattern.PatternNode`.  A single pattern costs one SEL
evaluation per constraint not seen before, each ``O(|HS| · |constraint|)``
set operations under a per-evaluation (cursor, sub-pattern) memo, plus one
intersection per further constraint.  Root-merging only concatenates
constraints, so the joint ``P(p ∧ q)`` of two estimated patterns costs one
intersection (one product in counter mode), and :meth:`matching_view`
after :meth:`selectivity` walks nothing.

Subtree-tag pruning.  Every cursor carries a bitmask of the tag atoms at or
below it — folded components and DAG children included — and every
pattern node the bitmask of the tag labels in its subtree.  A pair whose
cursor lacks a bit the pattern node requires returns the level-0 empty view
(0.0 in counter mode) without recursing.  This is exact: by induction, the
recursion of such a pair only ever reaches label mismatches and the
empty-branch early exit, both of which return level-0 empties, so no hash
level changes either.

Memos follow :attr:`DocumentSynopsis.version
<repro.synopsis.synopsis.DocumentSynopsis.version>`: once an insertion,
fold, merge, deletion or compression has moved it, the next query drops
every memo.  Callers therefore need not call
:meth:`SelectivityEstimator.clear_cache` after updating the synopsis; it
remains for timing cold estimates.
"""

from __future__ import annotations

from repro.core.labels import DESCENDANT, is_tag, label_below
from repro.core.pattern import PatternNode, TreePattern
from repro.core.pattern_algebra import merge_patterns
from repro.synopsis.node import LabelTree, SynopsisNode
from repro.synopsis.setops import SampleView, intersect_views, union_views
from repro.synopsis.synopsis import DocumentSynopsis, post_order

__all__ = ["SelectivityEstimator"]

_Cursor = tuple[SynopsisNode, LabelTree]
_CursorKey = tuple[int, int]
#: Per-evaluation memo key: a cursor's key and ``id()`` of a pattern node.
_MemoKey = tuple[_CursorKey, int]


def _cursor_key(node: SynopsisNode, label: LabelTree) -> _CursorKey:
    """Key of the cursor at *label*, a component of *node*'s label.

    Label components are held by the synopsis and replaced only by
    updates that move its version, which drops every memo keyed by them.
    """
    # reprolint: disable=RL003 -- in-process key, dropped with the version
    return node.node_id, id(label)


class SelectivityEstimator:
    """Estimates ``P(p)`` and matching-set samples for tree patterns.

    >>> from repro.synopsis.synopsis import DocumentSynopsis
    >>> from repro.xmltree.tree import XMLTree
    >>> from repro.core.pattern_parser import parse_xpath
    >>> synopsis = DocumentSynopsis(mode="sets", capacity=100)
    >>> _ = synopsis.insert_document(XMLTree.from_nested(("a", ["b"])))
    >>> _ = synopsis.insert_document(XMLTree.from_nested(("a", ["c"])))
    >>> SelectivityEstimator(synopsis).selectivity(parse_xpath("/a/b"))
    0.5
    """

    def __init__(self, synopsis: DocumentSynopsis) -> None:
        self.synopsis = synopsis
        self._selectivity_cache: dict[TreePattern, float] = {}
        # Root constraint -> its SEL union (set modes).
        self._views: dict[PatternNode, SampleView] = {}
        # Root constraint -> (the node evaluated, its best count) (counters).
        self._counts: dict[PatternNode, tuple[PatternNode, float]] = {}
        # Tag atom -> its bit in the cursor and pattern masks.
        self._tag_bits: dict[str, int] = {}
        # Cursor key -> tag mask; filled on first use at each version.
        self._cursor_masks: dict[_CursorKey, int] = {}
        self._version = synopsis.version

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def selectivity(self, pattern: TreePattern) -> float:
        """Estimated probability that a stream document matches *pattern*."""
        self._follow_synopsis()
        cached = self._selectivity_cache.get(pattern)
        if cached is None:
            cached = self._estimate(pattern)
            self._selectivity_cache[pattern] = cached
        return cached

    def joint_selectivity(self, p: TreePattern, q: TreePattern) -> float:
        """Estimated ``P(p ∧ q)`` via the root-merge construction."""
        return self.selectivity(merge_patterns(p, q))

    def estimated_count(self, pattern: TreePattern) -> float:
        """Estimated number of stream documents matching *pattern*."""
        return self.selectivity(pattern) * self.synopsis.n_documents

    def matching_view(self, pattern: TreePattern) -> SampleView:
        """The raw ``SEL(rs, rp)`` sample (set modes only)."""
        if self.synopsis.mode == "counters":
            raise TypeError("counter mode has no matching-set view")
        self._follow_synopsis()
        return self._root_view(pattern)

    def clear_cache(self) -> None:
        """Forget every memoised result, so the next estimate runs cold.

        Memos already follow the synopsis's version; this is for timing.
        """
        self._selectivity_cache.clear()
        self._views.clear()
        self._counts.clear()
        self._tag_bits.clear()
        self._cursor_masks = {}
        self._version = self.synopsis.version

    def _follow_synopsis(self) -> None:
        """Drop every memo once the synopsis has been updated."""
        if self._version != self.synopsis.version:
            self.clear_cache()

    # ------------------------------------------------------------------
    # shared cursor plumbing
    # ------------------------------------------------------------------

    def _cursor_children(self, node: SynopsisNode, label: LabelTree) -> list[_Cursor]:
        """Children of a cursor: real synopsis children when the cursor sits
        on the node's own label, plus virtual children for folded nested
        components at the current label position."""
        result: list[_Cursor] = []
        if label is node.label:
            for child in node.children:
                result.append((child, child.label))
        for component in label.children:
            result.append((node, component))
        return result

    def _tag_bit(self, tag: str) -> int:
        """The mask bit of *tag*, allocated on first sight."""
        bits = self._tag_bits
        bit = bits.get(tag)
        if bit is None:
            bit = bits[tag] = 1 << len(bits)
        return bit

    def _synopsis_masks(self) -> dict[_CursorKey, int]:
        """Tag mask of every cursor: the bits of the tag atoms at or below
        it, folded components and DAG children included.

        Children come before parents (:func:`~repro.synopsis.synopsis.post_order`)
        and nested components before the labels holding them, so each mask
        ORs masks already computed.
        """
        masks: dict[_CursorKey, int] = {}
        for node in post_order(self.synopsis.root):
            labels = [node.label]
            for label in labels:  # grows: breadth-first over the components
                labels.extend(label.children)
            for label in reversed(labels):
                mask = self._tag_bit(label.tag)
                for component in label.children:
                    mask |= masks[_cursor_key(node, component)]
                if label is node.label:
                    for child in node.children:
                        mask |= masks[_cursor_key(child, child.label)]
                masks[_cursor_key(node, label)] = mask
        return masks

    def _pattern_masks(self, constraint: PatternNode) -> dict[int, int]:
        """Tag mask of every node of *constraint* — the bits of the tag
        labels in its subtree — keyed by ``id()`` of the node, which the
        constraint keeps alive for the evaluation that uses them."""
        masks: dict[int, int] = {}
        # Reversed pre-order lists every node after its descendants.
        for node in reversed(list(constraint.iter_subtree())):
            mask = self._tag_bit(node.label) if is_tag(node.label) else 0
            for child in node.children:
                # reprolint: disable=RL003 -- per-evaluation key, never persisted
                mask |= masks[id(child)]
            # reprolint: disable=RL003 -- per-evaluation key, never persisted
            masks[id(node)] = mask
        return masks

    def _masks_for(self, constraint: PatternNode) -> dict[int, int]:
        """Masks for evaluating *constraint*: the synopsis's, computed once
        per version, and the constraint's own (returned)."""
        if not self._cursor_masks:
            self._cursor_masks = self._synopsis_masks()
        return self._pattern_masks(constraint)

    # ------------------------------------------------------------------
    # set mode (Sets / Hashes)
    # ------------------------------------------------------------------

    def _root_view(self, pattern: TreePattern) -> SampleView:
        """``SEL(rs, rp)``: the root constraints' views, intersected in order."""
        branch_views: list[SampleView] = []
        for constraint in pattern.root_children:
            view = self._views.get(constraint)
            if view is None:
                view = self._constraint_view(constraint)
                self._views[constraint] = view
            if view.is_empty():
                return SampleView.empty(self.synopsis.hasher)
            branch_views.append(view)
        return intersect_views(branch_views)

    def _constraint_view(self, constraint: PatternNode) -> SampleView:
        """One root constraint's SEL: the union over the root's cursors."""
        root = self.synopsis.root
        kids = self._cursor_children(root, root.label)
        if not kids:
            return SampleView.empty(self.synopsis.hasher)
        masks = self._masks_for(constraint)
        memo: dict[_MemoKey, SampleView] = {}
        return union_views(
            [self._sel_view(kn, kl, constraint, masks, memo) for kn, kl in kids]
        )

    def _sel_view(
        self,
        node: SynopsisNode,
        label: LabelTree,
        u: PatternNode,
        masks: dict[int, int],
        memo: dict[_MemoKey, SampleView],
    ) -> SampleView:
        if not label_below(label.tag, u.label):
            return SampleView.empty(self.synopsis.hasher)
        cursor = _cursor_key(node, label)
        # reprolint: disable=RL003 -- per-evaluation key, never persisted
        unit = id(u)
        need = masks[unit]
        if need & self._cursor_masks[cursor] != need:
            return SampleView.empty(self.synopsis.hasher)
        key = (cursor, unit)
        cached = memo.get(key)
        if cached is not None:
            return cached

        pattern_kids = u.children
        if not pattern_kids:
            result = self.synopsis.full_view(node)
        elif u.label != DESCENDANT:
            kids = self._cursor_children(node, label)
            if not kids:
                result = SampleView.empty(self.synopsis.hasher)
            else:
                branch_views: list[SampleView] = []
                for child_u in pattern_kids:
                    view = union_views(
                        [
                            self._sel_view(kn, kl, child_u, masks, memo)
                            for kn, kl in kids
                        ]
                    )
                    if view.is_empty():
                        branch_views = []
                        break
                    branch_views.append(view)
                result = (
                    intersect_views(branch_views)
                    if branch_views
                    else SampleView.empty(self.synopsis.hasher)
                )
        else:
            # '//': zero-length mapping evaluates the (single) pattern child
            # at this cursor; otherwise descend into each synopsis child.
            zero = intersect_views(
                [self._sel_view(node, label, cu, masks, memo) for cu in pattern_kids]
            )
            kids = self._cursor_children(node, label)
            deeper = union_views(
                [self._sel_view(kn, kl, u, masks, memo) for kn, kl in kids]
            )
            result = zero.union(deeper)

        memo[key] = result
        return result

    # ------------------------------------------------------------------
    # counter mode
    # ------------------------------------------------------------------

    def _constraint_count(self, constraint: PatternNode, total: float) -> float:
        """One root constraint's best count over the root's cursors, memoised.

        Counter mode multiplies branch ratios in child order, so an equal
        constraint that lists children in another order can round
        differently: it is evaluated afresh rather than served from the
        memo, keeping every estimate bit-identical to a one-off evaluation.
        """
        entry = self._counts.get(constraint)
        if entry is not None and _same_order(entry[0], constraint):
            return entry[1]
        root = self.synopsis.root
        kids = self._cursor_children(root, root.label)
        masks = self._masks_for(constraint)
        memo: dict[_MemoKey, float] = {}
        counts = (
            self._sel_count(kn, kl, constraint, masks, memo, total) for kn, kl in kids
        )
        best = max(counts, default=0.0)
        if entry is None:
            self._counts[constraint] = (constraint, best)
        return best

    def _sel_count(
        self,
        node: SynopsisNode,
        label: LabelTree,
        u: PatternNode,
        masks: dict[int, int],
        memo: dict[_MemoKey, float],
        total: float,
    ) -> float:
        if not label_below(label.tag, u.label):
            return 0.0
        cursor = _cursor_key(node, label)
        # reprolint: disable=RL003 -- per-evaluation key, never persisted
        unit = id(u)
        need = masks[unit]
        if need & self._cursor_masks[cursor] != need:
            return 0.0
        key = (cursor, unit)
        cached = memo.get(key)
        if cached is not None:
            return cached

        pattern_kids = u.children
        if not pattern_kids:
            result = float(node.summary.count)
        elif u.label != DESCENDANT:
            kids = self._cursor_children(node, label)
            result = 1.0 if kids else 0.0
            for child_u in pattern_kids:
                best = max(
                    (
                        self._sel_count(kn, kl, child_u, masks, memo, total)
                        for kn, kl in kids
                    ),
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
                zero *= (
                    self._sel_count(node, label, child_u, masks, memo, total)
                    / total
                )
            zero *= total
            kids = self._cursor_children(node, label)
            deeper = max(
                (self._sel_count(kn, kl, u, masks, memo, total) for kn, kl in kids),
                default=0.0,
            )
            result = max(zero, deeper)

        memo[key] = result
        return result

    # ------------------------------------------------------------------
    # P(p) — Algorithm 2
    # ------------------------------------------------------------------

    def _estimate(self, pattern: TreePattern) -> float:
        synopsis = self.synopsis

        if synopsis.mode == "counters":
            total = float(synopsis.root.summary.count)
            if total <= 0:
                return 0.0
            probability = 1.0
            for constraint in pattern.root_children:
                best = self._constraint_count(constraint, total)
                if best <= 0.0:
                    return 0.0
                probability *= best / total
            return _clamp(probability * total / total)

        result = self._root_view(pattern)
        if synopsis.mode == "sets":
            denominator = synopsis.represented_documents
            if denominator <= 0:
                return 0.0
            return _clamp(len(result.ids) / denominator)

        # Hashes: the SEL sample is expanded at its own level; the
        # denominator |S(rs)| is the whole stream, which the synopsis counts
        # exactly (a single counter).  Aligning the numerator up to the
        # *root* sample's level instead would discard resolution whenever
        # some universal path forced the root sample to a high level —
        # empirically 2-8x worse on selective workloads.
        if synopsis.n_documents <= 0:
            return 0.0
        return _clamp(result.estimate_cardinality() / synopsis.n_documents)


def _same_order(first: PatternNode, second: PatternNode) -> bool:
    """True when two equal pattern nodes also list every node's children in
    the same order (equality ignores sibling order)."""
    stack = [(first, second)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if a.label != b.label or len(a.children) != len(b.children):
            return False
        stack.extend(zip(a.children, b.children, strict=True))
    return True


def _clamp(value: float) -> float:
    """Clamp an estimate into the probability range [0, 1]."""
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value
