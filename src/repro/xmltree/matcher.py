"""Exact tree-pattern matching, ``T ⊨ p`` (Section 2 semantics).

This module is the ground-truth oracle of the reproduction: the estimation
error of every synopsis configuration is measured against it.  It implements
the paper's matching definition directly:

* a pattern node labeled with tag ``a`` at document node ``t`` requires a
  *child* of ``t`` labeled ``a`` satisfying all the pattern node's children;
* ``*`` requires some child of any tag;
* ``//`` requires some descendant-or-self node satisfying the pattern node's
  children;
* pattern-root children are special (the root constrains the document root
  node itself): a tag child requires the document root to carry that tag, and
  a ``//`` child may re-anchor its subtree at any document node.

Matching is memoised per (pattern node, document node) pair, giving the
standard ``O(|T|·|p|)`` bound, and patterns are *compiled* once into integer
arrays so one compiled pattern can be matched against a whole corpus.  Both
compiling and matching walk with an explicit stack rather than one Python
frame per level, so neither a deep document nor a deep pattern meets the
interpreter's recursion limit.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.labels import DESCENDANT, WILDCARD, is_tag
from repro.core.pattern import PatternNode, TreePattern
from repro.xmltree.tree import XMLTree

__all__ = ["CompiledPattern", "PatternMatcher", "matches"]

#: One pair's frame of :meth:`PatternMatcher._walk`: it yields the
#: ``(document node, pattern node, root-anchored?)`` pairs it needs, is
#: sent None to start and then each one's verdict, and returns its own.
_Frame = Generator[tuple[int, int, bool], Optional[bool], bool]


class CompiledPattern:
    """A tree pattern flattened to parallel integer-indexed arrays."""

    __slots__ = ("pattern", "labels", "children", "root_children", "required_tags")

    def __init__(self, pattern: TreePattern):
        self.pattern = pattern
        self.labels: list[str] = []
        self.children: list[list[int]] = []
        self.root_children: list[int] = []
        # Pre-order numbering: each node, then its subtrees in order.
        stack: list[tuple[PatternNode, list[int]]] = [
            (child, self.root_children)
            for child in reversed(pattern.root_children)
        ]
        while stack:
            node, siblings = stack.pop()
            siblings.append(len(self.labels))
            self.labels.append(node.label)
            kids: list[int] = []
            self.children.append(kids)
            stack.extend((child, kids) for child in reversed(node.children))
        self.required_tags = frozenset(
            label for label in self.labels if is_tag(label)
        )

    def __len__(self) -> int:
        return len(self.labels)


class PatternMatcher:
    """Reusable matcher for one pattern against many documents.

    >>> from repro.core.pattern_parser import parse_xpath
    >>> from repro.xmltree.tree import XMLTree
    >>> m = PatternMatcher(parse_xpath("/a[b][.//d]"))
    >>> m.matches(XMLTree.from_nested(("a", ["b", ("c", ["d"])])))
    True
    """

    __slots__ = ("compiled",)

    def __init__(self, pattern: TreePattern | CompiledPattern):
        if isinstance(pattern, TreePattern):
            pattern = CompiledPattern(pattern)
        self.compiled = pattern

    def matches(self, tree: XMLTree) -> bool:
        """Decide ``tree ⊨ pattern``."""
        # Every tag label in the pattern must label some document node;
        # this cheap filter rejects most non-matching documents outright.
        if not self.compiled.required_tags <= tree.tag_set:
            return False
        return self._walk(tree, {}, {})

    # -- internal walk --------------------------------------------------------
    #
    # Memo keys pack (pattern node, document node) into one int; pattern
    # count is small so ``u * n + t`` stays well within machine ints.

    def _walk(
        self, tree: XMLTree, memo: dict[int, bool], root_memo: dict[int, bool]
    ) -> bool:
        """Whether every pattern-root child holds at the document root,
        filling *memo* with the verdict of each (pattern node, document
        node) constraint it decides and *root_memo* with that of each
        root-anchored ``//`` pair.

        Each pair is a frame on an explicit stack: a generator that
        yields ``(document node, pattern node, root-anchored?)`` for each
        pair it needs, in the order a recursion would ask, and is sent
        back the verdict, read from a memo when the pair was decided
        before.  Frames short-circuit as ``any`` / ``all`` do, so the
        walk decides exactly the pairs the plain recursion decides.
        """
        cp = self.compiled
        labels = cp.labels
        pattern_children = cp.children
        doc_labels = tree.labels
        doc_children = tree.children
        width = len(doc_labels)

        def sat(t: int, u: int) -> _Frame:
            """(T, t) ⊨ Subtree(u): the constraint of u holds below t."""
            label = labels[u]
            kids = pattern_children[u]
            result = False
            if label == DESCENDANT:
                # Zero-length: u's children hold at t itself; otherwise
                # descend into some document child.
                result = True
                for ku in kids:
                    if not (yield t, ku, False):
                        result = False
                        break
                if not result:
                    for kid in doc_children[t]:
                        if (yield kid, u, False):
                            result = True
                            break
            else:
                for kid in doc_children[t]:
                    if label != WILDCARD and doc_labels[kid] != label:
                        continue
                    for ku in kids:
                        if not (yield kid, ku, False):
                            break
                    else:
                        result = True
                        break
            memo[u * width + t] = result
            return result

        def anchored(t: int, u: int) -> _Frame:
            """Root semantics: pattern-root child u holds with t as the
            anchor."""
            label = labels[u]
            if label == DESCENDANT:
                result = bool((yield t, pattern_children[u][0], True))
                if not result:
                    for kid in doc_children[t]:
                        if (yield kid, u, True):
                            result = True
                            break
                root_memo[u * width + t] = result
                return result
            if label != WILDCARD and doc_labels[t] != label:
                return False
            for ku in pattern_children[u]:
                if not (yield t, ku, False):
                    return False
            return True

        def whole() -> _Frame:
            for u in cp.root_children:
                if not (yield tree.root, u, True):
                    return False
            return True

        stack = [whole()]
        value: Optional[bool] = None
        while stack:
            try:
                t, u, at_root = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                value = done.value
                continue
            if at_root:
                value = None
                if labels[u] == DESCENDANT:
                    value = root_memo.get(u * width + t)
                if value is None:
                    stack.append(anchored(t, u))
            else:
                value = memo.get(u * width + t)
                if value is None:
                    stack.append(sat(t, u))
        return bool(value)


def matches(tree: XMLTree, pattern: TreePattern) -> bool:
    """One-shot convenience wrapper around :class:`PatternMatcher`."""
    return PatternMatcher(pattern).matches(tree)
