"""Compact node-labeled XML trees.

The experiments stream tens of thousands of documents with a couple of
hundred nodes each; a Python object per node would dominate memory and
slow every traversal.  ``XMLTree`` therefore stores a document as parallel
arrays over integer node indices:

* ``labels[i]`` — the (interned) tag of node ``i``;
* ``parents[i]`` — parent index, ``-1`` for the root;
* ``children[i]`` — list of child indices, in document order.

Node ``0`` is always the root.  Trees are built through
:class:`XMLTreeBuilder` or :func:`XMLTree.from_nested` and are treated as
immutable afterwards, which is what lets a tree cache derived lookups
(:attr:`XMLTree.tag_set`, :attr:`XMLTree.index`) for every reader.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator, Sequence

__all__ = [
    "XMLTree",
    "XMLTreeBuilder",
    "TreeIndex",
    "NestedSpec",
    "intern_skeleton_keys",
]

#: Convenience type for literal tree construction:
#: a tag, or a ``(tag, [children...])`` pair.
NestedSpec = "str | tuple[str, list]"


class XMLTree:
    """A node-labeled document tree over integer node indices."""

    __slots__ = (
        "labels",
        "parents",
        "children",
        "doc_id",
        "_tag_set",
        "_index",
        "_skeleton",
    )

    def __init__(
        self,
        labels: list[str],
        parents: list[int],
        children: list[list[int]],
        doc_id: int = -1,
    ):
        if not labels:
            raise ValueError("an XML tree needs at least a root node")
        if not (len(labels) == len(parents) == len(children)):
            raise ValueError("parallel arrays must have equal length")
        if parents[0] != -1:
            raise ValueError("node 0 must be the root (parent -1)")
        self.labels = labels
        self.parents = parents
        self.children = children
        self.doc_id = doc_id
        self._tag_set: frozenset[str] | None = None
        self._index: TreeIndex | None = None
        self._skeleton: tuple[list[int], dict[tuple, int]] | None = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_nested(cls, spec, doc_id: int = -1) -> "XMLTree":
        """Build a tree from nested ``(tag, [children])`` literals.

        >>> t = XMLTree.from_nested(("a", ["b", ("c", ["d"])]))
        >>> t.labels
        ['a', 'b', 'c', 'd']
        """
        builder = XMLTreeBuilder()
        stack = [(spec, -1)]
        while stack:
            node_spec, parent = stack.pop()
            if isinstance(node_spec, str):
                builder.add(node_spec, parent)
                continue
            tag, kids = node_spec
            index = builder.add(tag, parent)
            stack.extend((kid, index) for kid in reversed(kids))
        return builder.build(doc_id=doc_id)

    # -- basic structure -----------------------------------------------------

    @property
    def root(self) -> int:
        """Index of the root node (always 0)."""
        return 0

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        """Number of parent-child edges ("tag pairs" in the paper's sizing)."""
        return len(self.labels) - 1

    def label(self, node: int) -> str:
        """Tag of *node*."""
        return self.labels[node]

    def child_indices(self, node: int) -> Sequence[int]:
        """Children of *node* in document order."""
        return self.children[node]

    def parent(self, node: int) -> int:
        """Parent index of *node*, ``-1`` for the root."""
        return self.parents[node]

    def is_leaf(self, node: int) -> bool:
        """True when *node* has no children."""
        return not self.children[node]

    @property
    def tag_set(self) -> frozenset[str]:
        """Set of distinct tags in the document (cached)."""
        if self._tag_set is None:
            self._tag_set = frozenset(self.labels)
        return self._tag_set

    @property
    def index(self) -> "TreeIndex":
        """Label and subtree lookups over this document (built once, on
        first use, and shared by every reader of the tree)."""
        if self._index is None:
            self._index = TreeIndex(self)
        return self._index

    @property
    def skeleton_keys(self) -> tuple[list[int], dict[tuple, int]]:
        """Every node's skeleton key and the interner that numbered them
        (see :func:`intern_skeleton_keys`), computed once into a fresh
        interner and shared by every reader of the tree.  Readers must
        not mutate the interner: copy it to intern further documents."""
        if self._skeleton is None:
            shapes: dict[tuple, int] = {}
            self._skeleton = (intern_skeleton_keys(self, shapes), shapes)
        return self._skeleton

    # -- traversals ----------------------------------------------------------

    def iter_preorder(self, start: int = 0) -> Iterator[int]:
        """Yield node indices of the subtree under *start*, pre-order."""
        stack = [start]
        children = self.children
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(children[node]))

    def descendants_or_self(self, node: int) -> Iterator[int]:
        """Alias of :meth:`iter_preorder`, named for the matcher's use."""
        return self.iter_preorder(node)

    def depth(self) -> int:
        """Number of levels (root counts as level 1)."""
        depths = [1] * len(self.labels)
        best = 1
        for node in range(1, len(self.labels)):
            depth = depths[self.parents[node]] + 1
            depths[node] = depth
            if depth > best:
                best = depth
        return best

    def node_depths(self) -> list[int]:
        """Per-node level, root = 1.  Nodes are in topological (index) order
        because builders append children after their parents."""
        depths = [1] * len(self.labels)
        for node in range(1, len(self.labels)):
            depths[node] = depths[self.parents[node]] + 1
        return depths

    def path_labels(self, node: int) -> tuple[str, ...]:
        """Labels from the root down to *node* (inclusive)."""
        path: list[str] = []
        while node != -1:
            path.append(self.labels[node])
            node = self.parents[node]
        path.reverse()
        return tuple(path)

    def leaves(self) -> Iterator[int]:
        """Yield indices of all leaf nodes."""
        for node, kids in enumerate(self.children):
            if not kids:
                yield node

    # -- misc ------------------------------------------------------------------

    def approx_bytes(self) -> int:
        """Rough in-memory footprint, for stream-budget experiments."""
        return (
            sys.getsizeof(self.labels)
            + sys.getsizeof(self.parents)
            + sum(sys.getsizeof(kids) for kids in self.children)
        )

    def to_nested(self, node: int = 0):
        """Inverse of :meth:`from_nested` (labels only)."""
        labels, children = self.labels, self.children
        built: dict[int, object] = {}
        # A negative entry ~n assembles n once its children are built.
        stack = [node]
        while stack:
            current = stack.pop()
            if current < 0:
                current = ~current
                built[current] = (
                    labels[current],
                    [built.pop(kid) for kid in children[current]],
                )
            elif children[current]:
                stack.append(~current)
                stack.extend(children[current])
            else:
                built[current] = labels[current]
        return built[node]

    def __repr__(self) -> str:
        return f"XMLTree(doc_id={self.doc_id}, nodes={len(self.labels)})"


def intern_skeleton_keys(tree: XMLTree, shapes: dict[tuple, int]) -> list[int]:
    """The skeleton key of every node of *tree*, interned into *shapes*.

    A node's skeleton key names the canonical form of its subtree with
    identical sibling subtrees deduplicated (unlike the Section 3.1
    skeleton tree of :mod:`repro.xmltree.skeleton`, it never merges
    distinct same-tag siblings): ``(label, sorted distinct child
    skeleton keys)``.  *shapes* maps each skeleton to a dense key, so
    structurally equal subtrees — within the tree and across every tree
    interned into the same *shapes* — share one key.  Matching that only
    quantifies children existentially (tree-pattern satisfaction) cannot
    tell such subtrees apart.  Keys are assigned bottom-up by a reverse
    scan, which sees every child before its parent because builders
    append parents before children.
    """
    children = tree.children
    labels = tree.labels
    skel = [0] * len(labels)
    for position in reversed(range(len(labels))):
        kids = children[position]
        shape = (
            labels[position],
            tuple(sorted({skel[kid] for kid in kids})) if kids else (),
        )
        key = shapes.get(shape)
        if key is None:
            key = shapes[shape] = len(shapes)
        skel[position] = key
    return skel


class TreeIndex:
    """Per-document lookups a filtering pass asks for over and over.

    * ``positions[label]`` — the nodes carrying *label*, ascending;
    * ``children_by_label[label][parent]`` — the children of *parent*
      carrying *label*, ascending;
    * ``preorder`` / ``start`` / ``end`` — one pre-order walk of the
      tree, and per node the slice ``preorder[start[node]:end[node]]``
      that holds exactly its subtree (descendant-or-self).

    Everything is linear in the document size and derived from
    ``parents``/``children`` with an explicit stack, so it is exact for
    any node numbering (pre-order or not) and for any depth.
    """

    __slots__ = ("positions", "children_by_label", "preorder", "start", "end")

    def __init__(self, tree: XMLTree) -> None:
        labels = tree.labels
        positions: dict[str, list[int]] = {}
        children_by_label: dict[str, dict[int, list[int]]] = {}
        for node, parent in enumerate(tree.parents):
            label = labels[node]
            positions.setdefault(label, []).append(node)
            if parent >= 0:
                children_by_label.setdefault(label, {}).setdefault(
                    parent, []
                ).append(node)
        self.positions = positions
        self.children_by_label = children_by_label
        children = tree.children
        preorder: list[int] = []
        start = [0] * len(labels)
        end = [0] * len(labels)
        # A negative entry ~node closes node's subtree once every
        # descendant has been emitted.
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node < 0:
                end[~node] = len(preorder)
                continue
            start[node] = len(preorder)
            preorder.append(node)
            stack.append(~node)
            stack.extend(reversed(children[node]))
        self.preorder = preorder
        self.start = start
        self.end = end

    def scope(self, anchors: Iterable[int]) -> set[int]:
        """Every node in the subtree of some anchor (descendant-or-self)."""
        preorder, start, end = self.preorder, self.start, self.end
        scope: set[int] = set()
        for anchor in anchors:
            scope.update(preorder[start[anchor] : end[anchor]])
        return scope


class XMLTreeBuilder:
    """Incremental builder; append nodes in any order consistent with
    parents-before-children (document order satisfies this)."""

    def __init__(self) -> None:
        self._labels: list[str] = []
        self._parents: list[int] = []
        self._children: list[list[int]] = []

    def add(self, label: str, parent: int = -1) -> int:
        """Append a node labeled *label* under *parent* and return its index.

        The first added node must be the root (``parent=-1``).
        """
        index = len(self._labels)
        if parent == -1 and index != 0:
            raise ValueError("only node 0 may be the root")
        if parent != -1 and not (0 <= parent < index):
            raise ValueError(f"parent {parent} does not exist yet")
        self._labels.append(sys.intern(label))
        self._parents.append(parent)
        self._children.append([])
        if parent != -1:
            self._children[parent].append(index)
        return index

    def build(self, doc_id: int = -1) -> XMLTree:
        """Finish and return the tree."""
        return XMLTree(self._labels, self._parents, self._children, doc_id=doc_id)
