"""The document synopsis ``HS`` (Section 3).

A synopsis summarises the streaming document history as a rooted label
structure — a tree while only insertions have occurred, a DAG once pruning
has merged nodes.  Each node corresponds to a root-originating label path of
the stream's skeleton trees and carries a matching-set summary in one of
three representations:

* ``"counters"`` — exact per-node document counts (baseline of [4]);
* ``"sets"``     — explicit id sets over a document-level reservoir sample;
* ``"hashes"``   — per-node bounded distinct samples under a shared hash.

Insertion follows Section 3.1: for each root-to-leaf path of the incoming
document's skeleton tree, walk/extend the synopsis and record the document id
at the path's final node (counters instead increment every node on the path,
once per document).  The *full* matching set of a node — needed by ``SEL`` —
is the union of stored summaries over its descendants and is computed by a
memoised freeze pass, invalidated by further updates.  Every update also
moves :attr:`DocumentSynopsis.version`, which lets estimators drop their
own memos without being told.
"""

from __future__ import annotations

import random
from typing import Container, Iterator, Optional

from repro.core.labels import ROOT_LABEL
from repro.synopsis.counters import CounterSummary
from repro.synopsis.hashes import DistinctHasher, HashSample
from repro.synopsis.node import LabelTree, SynopsisNode
from repro.synopsis.reservoir import DocumentReservoir
from repro.synopsis.setops import SampleView
from repro.xmltree.skeleton import skeleton_paths
from repro.xmltree.tree import XMLTree

__all__ = ["DocumentSynopsis", "MODES", "post_order"]

MODES = ("counters", "sets", "hashes")


def post_order(start: SynopsisNode, done: Container[int] = ()) -> list[SynopsisNode]:
    """Nodes reachable from *start*, each listed after all its children.

    DAG-safe: a node shared by several parents is listed once.  Nodes
    whose ids are in *done* are skipped, and so is everything reachable
    only through them.  The walk keeps an explicit stack, so a synopsis
    as deep as its longest document path never meets the interpreter's
    recursion limit; the order is that of the recursive depth-first walk.
    """
    order: list[SynopsisNode] = []
    if start.node_id in done:
        return order
    seen = {start.node_id}
    stack = [(start, iter(start.children))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if child.node_id not in seen and child.node_id not in done:
                seen.add(child.node_id)
                stack.append((child, iter(child.children)))
                break
        else:
            stack.pop()
            order.append(node)
    return order


class DocumentSynopsis:
    """Incrementally-maintained summary of an XML document stream.

    Parameters
    ----------
    mode:
        Matching-set representation: ``"counters"``, ``"sets"`` or
        ``"hashes"``.
    capacity:
        Per-node maximum hash-sample size (``"hashes"``), or the global
        reservoir size in documents (``"sets"``).  Ignored by counters.
    seed:
        Seeds the shared distinct-sampling hash and the reservoir RNG,
        making synopsis contents reproducible.

    Attributes
    ----------
    version:
        Update counter: moves on every document insertion and on every
        :meth:`invalidate` (folds, merges, deletions, compression and
        deserialisation of a pruned synopsis all reach it through
        :meth:`mark_pruned`).  Anything derived from the synopsis's
        contents and tagged with the version it was computed at is
        current exactly while the version is unchanged.
    """

    def __init__(self, mode: str = "hashes", capacity: int = 1000, seed: int = 0):
        if mode not in MODES:
            raise ValueError(f"unknown synopsis mode {mode!r}; pick one of {MODES}")
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.mode = mode
        self.capacity = capacity
        self.seed = seed
        self.hasher: Optional[DistinctHasher] = (
            DistinctHasher(seed) if mode == "hashes" else None
        )
        self.reservoir: Optional[DocumentReservoir] = (
            DocumentReservoir(capacity, random.Random(seed)) if mode == "sets" else None
        )
        self._next_node_id = 0
        self._next_doc_id = 0
        self.root = self._new_node(ROOT_LABEL)
        self.n_documents = 0  # documents offered to the synopsis
        self._doc_index: dict[int, list[SynopsisNode]] = {}
        self._pruned = False
        self._full_cache: Optional[dict[int, SampleView]] = None
        self.version = 0

    # ------------------------------------------------------------------
    # node management
    # ------------------------------------------------------------------

    def _new_summary(self):
        if self.mode == "counters":
            return CounterSummary()
        if self.mode == "sets":
            return set()
        assert self.hasher is not None
        return HashSample(self.hasher, self.capacity)

    def _new_node(self, tag: str) -> SynopsisNode:
        node = SynopsisNode(self._next_node_id, LabelTree(tag), self._new_summary())
        self._next_node_id += 1
        return node

    def iter_nodes(self) -> Iterator[SynopsisNode]:
        """Yield every node reachable from the root exactly once (DAG-safe)."""
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.node_id in seen:
                continue
            seen.add(node.node_id)
            yield node
            stack.extend(node.children)

    @property
    def n_nodes(self) -> int:
        """Number of synopsis nodes, including the root."""
        return sum(1 for _ in self.iter_nodes())

    # ------------------------------------------------------------------
    # insertion (Section 3.1)
    # ------------------------------------------------------------------

    def insert_document(self, tree: XMLTree) -> int:
        """Insert one streamed document; returns the document id used.

        Ids are taken from ``tree.doc_id`` when set (callers streaming a
        corpus should pre-assign unique ids), else allocated sequentially.
        """
        doc_id = tree.doc_id if tree.doc_id >= 0 else self._next_doc_id
        self._next_doc_id = max(self._next_doc_id, doc_id + 1)
        self.insert_paths(doc_id, skeleton_paths(tree))
        return doc_id

    def insert_paths(self, doc_id: int, paths: Iterator[tuple[str, ...]]) -> None:
        """Insert a document given its skeleton root-to-leaf label paths."""
        self.n_documents += 1
        self._full_cache = None
        self.version += 1

        if self.mode == "sets":
            assert self.reservoir is not None
            decision = self.reservoir.offer(doc_id)
            if decision.evicted is not None:
                self._purge_document(decision.evicted)
            if not decision.admitted:
                return

        touched: set[int] = set()
        touched_nodes: list[SynopsisNode] = []
        final_nodes: list[SynopsisNode] = []
        for path in paths:
            node = self.root
            if node.node_id not in touched:
                touched.add(node.node_id)
                touched_nodes.append(node)
            index = 0
            while index < len(path):
                tag = path[index]
                child = node.child_by_tag(tag)
                if child is None:
                    if self._folded_component(node, tag) is not None:
                        # The remainder of this path was folded into `node`
                        # by compression; record the document here.
                        break
                    child = self._new_node(tag)
                    node.add_child(child)
                node = child
                if node.node_id not in touched:
                    touched.add(node.node_id)
                    touched_nodes.append(node)
                index += 1
            final_nodes.append(node)

        if self.mode == "counters":
            for node in touched_nodes:
                node.summary.increment()
        elif self.mode == "sets":
            recorded: list[SynopsisNode] = []
            for node in final_nodes:
                if doc_id not in node.summary:
                    node.summary.add(doc_id)
                    recorded.append(node)
            self._doc_index[doc_id] = recorded
        else:
            for node in final_nodes:
                node.summary.insert(doc_id)

    @staticmethod
    def _folded_component(node: SynopsisNode, tag: str) -> Optional[LabelTree]:
        for component in node.label.children:
            if component.tag == tag:
                return component
        return None

    def _purge_document(self, doc_id: int) -> None:
        """Remove an evicted document id from all matching sets (sets mode)."""
        if not self._pruned and doc_id in self._doc_index:
            for node in self._doc_index.pop(doc_id):
                node.summary.discard(doc_id)
            return
        self._doc_index.pop(doc_id, None)
        # Folding may have moved ids into the root's stored summary, so the
        # root is scanned too.
        for node in self.iter_nodes():
            node.summary.discard(doc_id)

    # ------------------------------------------------------------------
    # full matching sets (freeze pass)
    # ------------------------------------------------------------------

    def stored_view(self, node: SynopsisNode) -> SampleView:
        """View of the node's *stored* summary (sets/hashes modes)."""
        if self.mode == "sets":
            return SampleView.of_set(node.summary)
        if self.mode == "hashes":
            return SampleView.of_hash_sample(node.summary)
        raise TypeError("counter summaries have no sample view")

    def full_view(self, node: SynopsisNode) -> SampleView:
        """Full matching-set sample of *node*: the union of stored samples
        over the node and all its descendants (memoised; Section 3.2)."""
        if self.mode == "counters":
            raise TypeError("counter mode exposes full_count, not full_view")
        if self._full_cache is None:
            self._full_cache = {}
        cache = self._full_cache
        for current in post_order(node, cache):
            view = self.stored_view(current)
            for child in current.children:
                view = view.union(cache[child.node_id])
            cache[current.node_id] = view
        return cache[node.node_id]

    def full_count(self, node: SynopsisNode) -> float:
        """Full matching-set cardinality (exact for counters, estimated
        otherwise)."""
        if self.mode == "counters":
            return float(node.summary.count)
        return self.full_view(node).estimate_cardinality()

    def invalidate(self) -> None:
        """Drop memoised full views and move :attr:`version` (pruning
        operations call this)."""
        self._full_cache = None
        self.version += 1

    @property
    def represented_documents(self) -> float:
        """(Estimated) number of documents represented by the synopsis —
        the denominator ``|S(rs)|`` of Algorithm 2."""
        if self.mode == "counters":
            return float(self.root.summary.count)
        if self.mode == "sets":
            assert self.reservoir is not None
            return float(len(self.reservoir))
        return self.full_view(self.root).estimate_cardinality()

    # ------------------------------------------------------------------
    # mutation hooks used by pruning (Section 3.3)
    # ------------------------------------------------------------------

    def mark_pruned(self) -> None:
        """Record that structural pruning has happened; document-id purge
        falls back to a full scan from now on."""
        self._pruned = True
        self.invalidate()

    def summary_union_into(self, target: SynopsisNode, source: SynopsisNode) -> None:
        """Union *source*'s stored summary into *target*'s (fold operation)."""
        if self.mode == "counters":
            target.summary.merge_max(source.summary)
        elif self.mode == "sets":
            target.summary |= source.summary
        else:
            target.summary.union_in_place(source.summary)

    def summary_intersection(self, first: SynopsisNode, second: SynopsisNode):
        """New stored summary equal to the intersection of the nodes' *full*
        matching sets (merge operation keeps the inclusion property)."""
        if self.mode == "counters":
            return CounterSummary(min(first.summary.count, second.summary.count))
        full_first = self.full_view(first)
        full_second = self.full_view(second)
        intersection = full_first.intersect(full_second)
        if self.mode == "sets":
            return set(intersection.ids)
        assert self.hasher is not None
        sample = HashSample(self.hasher, self.capacity)
        sample.level = intersection.level
        sample.ids = set(intersection.ids)
        sample._shrink_to_capacity()
        return sample

    def entry_count(self, node: SynopsisNode) -> int:
        """Number of stored entries at *node* (size accounting)."""
        if self.mode == "counters":
            return 1
        return len(node.summary)

    def __repr__(self) -> str:
        return (
            f"DocumentSynopsis(mode={self.mode!r}, nodes={self.n_nodes}, "
            f"documents={self.n_documents})"
        )
