"""Tree-pattern data model.

A tree pattern (Section 2 of the paper) is an unordered node-labeled tree
that constrains the content and structure of an XML document.  Node labels
are tag names, ``*`` (wildcard), or ``//`` (descendant); the root carries the
special label ``/.``.  A ``//`` node must have exactly one child, which is a
regular node or a ``*``.

Patterns are immutable.  Because they are *unordered*, two patterns that
differ only in sibling order are equal; equality and hashing go through a
canonical key that recursively sorts children.  Patterns are built
bottom-up, so each node computes its key once, at construction, from its
children's already-computed keys, and no Python recursion follows the
nesting depth.  The key is stored on the object, so ``==`` costs an
identity check, then a cached-hash mismatch, then one tuple comparison;
the hash is the key's, computed on first use and cached.  Where nesting
is too deep for the interpreter to compare tuples, comparison falls back
to an explicit-stack walk with the same order.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Iterable, Iterator

from repro.core.labels import (
    DESCENDANT,
    ROOT_LABEL,
    SPECIAL_LABELS,
    WILDCARD,
    is_tag,
    validate_label,
)

__all__ = ["PatternNode", "TreePattern", "PatternError"]


class PatternError(ValueError):
    """Raised when a structurally invalid tree pattern is constructed."""


#: One object per distinct set :meth:`TreePattern.tags` has returned,
#: shared process-wide: patterns over one vocabulary hold one set.
_TAG_SETS: dict[frozenset[str], frozenset[str]] = {}


def _compare_keys(a: tuple, b: tuple) -> int:
    """Three-way comparison of two canonical keys, without recursion.

    The order of the keys' own ``<`` and ``==``, walked with an explicit
    stack: comparing nested tuples recurses in C and raises
    ``RecursionError`` a few hundred pattern levels down.
    """
    stack = [(a, b, 0)]
    while stack:
        x, y, i = stack.pop()
        if i == len(x) or i == len(y):
            if len(x) != len(y):
                return -1 if len(x) < len(y) else 1
            continue
        stack.append((x, y, i + 1))
        u, v = x[i], y[i]
        if u is v:
            continue
        # Keys have one shape: a label, or a tuple of keys, per position.
        if isinstance(u, tuple):
            stack.append((u, v, 0))
        elif u != v:
            return -1 if u < v else 1
    return 0


def _sorted_keys(keys: Iterable[tuple]) -> tuple:
    """*keys* in canonical (sorted) order, at any nesting depth."""
    ordered = list(keys)
    try:
        ordered.sort()
    except RecursionError:
        ordered.sort(key=cmp_to_key(_compare_keys))
    return tuple(ordered)


def _same_key(a: "PatternNode | TreePattern", b: "PatternNode | TreePattern") -> bool:
    """Canonical-key equality of two distinct patterns or nodes."""
    if a._hash is not None and b._hash is not None and a._hash != b._hash:
        return False
    try:
        return a._key == b._key
    except RecursionError:
        return _compare_keys(a._key, b._key) == 0


class PatternNode:
    """One node of a tree pattern: a label plus zero or more children.

    Instances are immutable; build patterns bottom-up::

        leaf = PatternNode("Mozart")
        last = PatternNode("last", (leaf,))
    """

    __slots__ = ("label", "children", "_key", "_hash")

    def __init__(self, label: str, children: tuple["PatternNode", ...] = ()) -> None:
        validate_label(label)
        children = tuple(children)
        if label == DESCENDANT:
            if len(children) != 1:
                raise PatternError(
                    f"a '//' node must have exactly one child, got {len(children)}"
                )
            child = children[0]
            if child.label == DESCENDANT:
                raise PatternError("the child of a '//' node must be a tag or '*'")
        if label == ROOT_LABEL:
            raise PatternError(
                "the '/.' label is reserved for pattern roots; "
                "use TreePattern(children=...)"
            )
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "children", children)
        object.__setattr__(
            self, "_key", (label, _sorted_keys(child._key for child in children))
        )
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PatternNode is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        """True when the node has no children."""
        return not self.children

    def iter_subtree(self) -> Iterator["PatternNode"]:
        """Yield this node and every descendant, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def size(self) -> int:
        """Number of nodes in the subtree rooted here."""
        return sum(1 for _ in self.iter_subtree())

    def height(self) -> int:
        """Number of nodes on the longest root-to-leaf path of this subtree."""
        best = 0
        stack = [(self, 1)]
        while stack:
            node, depth = stack.pop()
            best = max(best, depth)
            stack.extend((child, depth + 1) for child in node.children)
        return best

    def tags(self) -> frozenset[str]:
        """All plain tag names occurring in the subtree."""
        return frozenset(
            node.label for node in self.iter_subtree() if is_tag(node.label)
        )

    # -- canonical form / equality ------------------------------------------

    @property
    def canonical_key(self) -> tuple:
        """The canonical key cached at construction: ``(label, sorted child
        keys)``.  Structurally equal subtrees — equal up to sibling order —
        have equal keys, and the keys' tuple order is the canonical order."""
        return self._key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PatternNode):
            return NotImplemented
        return _same_key(self, other)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(self._key)
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:
        return f"PatternNode({self.label!r}, {len(self.children)} children)"


class TreePattern:
    """A complete tree pattern: a ``/.`` root with constraint subtrees below.

    The root's children are the top-level constraints on a document.  A child
    carrying a tag label constrains the *document root's* tag (Section 2's
    special treatment of ``root(p)``); a ``//`` child lets its subtree match
    anywhere in the document, including at the root.
    """

    __slots__ = ("root_children", "_key", "_hash", "_tags")

    def __init__(self, children: tuple[PatternNode, ...] | list[PatternNode]) -> None:
        children = tuple(children)
        if not children:
            raise PatternError("a tree pattern needs at least one constraint")
        object.__setattr__(self, "root_children", children)
        object.__setattr__(
            self, "_key", _sorted_keys(child._key for child in children)
        )
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_tags", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TreePattern is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def root_label(self) -> str:
        """The special root label ``/.``."""
        return ROOT_LABEL

    def iter_nodes(self) -> Iterator[PatternNode]:
        """Yield every non-root node, pre-order."""
        for child in self.root_children:
            yield from child.iter_subtree()

    def size(self) -> int:
        """Number of nodes including the ``/.`` root."""
        return 1 + sum(child.size() for child in self.root_children)

    def height(self) -> int:
        """Nodes on the longest root-to-leaf path, including the root."""
        return 1 + max(child.height() for child in self.root_children)

    def tags(self) -> frozenset[str]:
        """All plain tag names occurring anywhere in the pattern.

        Any document matching the pattern must contain every one of these
        tags, which makes this set useful for candidate pruning and for
        containment's tag test.  The set is computed on first use and
        cached on the pattern, as the hash is, and equal sets are
        interned process-wide, so patterns with one vocabulary share one
        set object.
        """
        cached = self._tags
        if cached is None:
            stack = list(self.root_children)
            tags: set[str] = set()
            while stack:
                node = stack.pop()
                tags.add(node.label)
                stack.extend(node.children)
            tags -= SPECIAL_LABELS
            # Copied from a set, a frozenset's table is sized for its
            # members instead of grown by insertion: for most tag sets,
            # half the slots.
            found = frozenset(tags)
            cached = _TAG_SETS.setdefault(found, found)
            object.__setattr__(self, "_tags", cached)
        return cached

    def has_descendant_ops(self) -> bool:
        """True when the pattern uses ``//`` anywhere."""
        return any(node.label == DESCENDANT for node in self.iter_nodes())

    def has_wildcards(self) -> bool:
        """True when the pattern uses ``*`` anywhere."""
        return any(node.label == WILDCARD for node in self.iter_nodes())

    # -- equality ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, TreePattern):
            return NotImplemented
        return _same_key(self, other)

    def sorts_before(self, other: "TreePattern") -> bool:
        """Whether this pattern's canonical key orders strictly before
        *other*'s: a total order on patterns that ignores how either was
        built, for picking one of several equivalent patterns."""
        try:
            return bool(self._key < other._key)
        except RecursionError:
            return _compare_keys(self._key, other._key) < 0

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(self._key)
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:
        from repro.core.pattern_parser import to_xpath

        return f"TreePattern({to_xpath(self)!r})"
