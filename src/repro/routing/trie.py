"""Merged pattern trie: one traversal matches a document against every
routing-table pattern at once.

A broker that evaluates each routing-table pattern independently pays
filtering cost linear in table size — the "large routing tables, complex
filtering" failure mode of Section 1.  :class:`PatternTrie` merges all of
a broker's patterns into one shared structure so the per-document cost is
driven by how much *structure* the table contains, not by how many
patterns spell it.

Structure
---------

Every pattern is decomposed deterministically into

* a **spine** — the chain obtained by repeatedly descending into the
  canonically first child (children ordered exact-first, see below).
  Each spine step is ``(axis, label, branches)``: the axis distinguishes
  the root anchor (``self``), a root-level ``//`` re-anchor
  (``anywhere``), a plain child edge (``child``) and a nested ``//``
  edge (``descendant``); ``branches`` are the step node's remaining
  children, kept as hash-consed subtree constraints;
* **gates** — the pattern's root children other than the spine head,
  evaluated once per document with root semantics.

Spine steps form the trie: two patterns share a node exactly when their
decompositions share a prefix (axis, label *and* branch constraints all
equal), so the common ``/nitf/head/…`` prefixes of a DTD workload are
evaluated once for the whole table.  A node where some pattern's spine
ends is an *accepting* node and carries that pattern's destination set
(keyed by its gates); one traversal therefore returns every matching
destination at once.

Branch and gate subtrees are *hash-consed*: structurally equal subtrees
— across patterns, branches and gates — intern to one node, and their
satisfaction per document node is memoised globally, so a subtree shared
by a thousand patterns is evaluated against a document region once.

Degree-sorted branch order
--------------------------

Children are ordered by *degree* — the number of ``*`` and ``//`` nodes
in the subtree — before the canonical key, so exact (tag-only) branches
are decomposed into the spine and tried before wildcard and descendant
branches; trie children are likewise iterated exact steps first, then
wildcard steps, then descendant steps.  The order never changes which
destinations match (matching is a pure conjunction/disjunction), but it
fails cheap exact prefixes before paying for expensive relocation scans,
and it makes the decomposition — and hence the trie shape and the
operation count — a canonical function of the pattern set, independent
of insertion history.

Matching cost
-------------

``match`` counts one *trie operation* per aliveness test computed (a
memo miss: once per distinct required-tag set, or hash-consed
constraint, and document tag set), per anchor candidate examined —
generated once per group of sibling trie nodes sharing the same (axis,
label) step, since only their (memoised) branch constraints differ —
per hash-consed subtree satisfaction computed (memo misses only; shared
work is free), and per gate evaluated.  Every spine node carries the
tags *all* patterns in its subtrie require, so a subtrie the document
cannot satisfy is killed for one operation before any candidate scan; a
prefix whose anchor set comes up empty likewise prunes everything below
it.  The cost of a non-matching pattern therefore collapses into its
shared prefix.  This count is the filtering-cost unit
:class:`~repro.routing.table.RoutingTable` reports in trie mode.

An operation is a unit of filtering work, not of wall time.  The wall
time around each one goes to interpreter bookkeeping — visiting a spine
node, cutting its children into groups, ordering its accepting entries,
building memo keys, collecting destinations — so the traversal keeps
that bookkeeping out of its inner loops.  Each spine node caches its
children cut into (axis, label) groups and its accepting entries in
gate-key order; the ``add`` / ``discard`` that links or unlinks a child
or an entry there drops the cache, and the next match rebuilds it, so
it is paid once per mutation rather than once per visit.  A document's
aliveness memos are looked up per tag set, keyed by the required-tag
set or constraint id alone; a childless spine node is not visited; an
accepted entry adds its whole destination set in one set update.  None
of this changes which nodes are visited, in which order, or what is
counted.

Per-document index
------------------

Candidate generation reads the document through one
:class:`~repro.xmltree.tree.TreeIndex`: its label positions, its label
→ parent → children map, and a pre-order walk in which every node's
subtree is one contiguous slice, so a descendant scope is the union of
its anchors' slices.  The index is linear in the document size, built
with an explicit stack from parents and children alone (it assumes no
pre-order numbering), and cached on the
:class:`~repro.xmltree.tree.XMLTree` next to its tag set on the first
match, so every broker the document visits and every batch it is
matched in share it.  Documents are immutable, so it is never
invalidated.  Skeleton keys, interned per memo pool, stay per call.

Batched matching
----------------

``match_batch`` evaluates a whole document batch against one shared
memo pool (:class:`_BatchMemo`), amortising constraint work *across
documents* the way hash-consing amortises it across patterns.  The key
is structural: every document node gets a **skeleton key** — the
interned canonical form of its subtree with identical sibling subtrees
deduplicated (sound, because matching quantifies document children
only existentially) — and branch satisfaction is memoised on
``(constraint id, skeleton key)`` instead of ``(constraint id, node
position)``.  Structurally identical subtrees across the batch (common
under the Zipfian generators) therefore hit the memo instead of being
re-traversed; aliveness tests share per-tag-set entries, gates share
per-root-key entries, and a document whose whole skeleton repeats
costs zero trie operations.  Skeleton-key construction is document
bookkeeping (like the tree index), not trie work, so it is never
counted as a trie operation — batched operations are guaranteed ≤ the
sum of the per-document counts.  ``match`` is the batch machinery at
batch size one (a fresh pool per call), so the two paths cannot
drift.

Incremental-maintenance invariants
----------------------------------

The trie is never rebuilt from scratch.  ``add`` / ``discard`` keep it
consistent under covering churn and topology surgery by refcounting:

* every spine node counts the entries whose spine passes through it and
  is unlinked (never orphaned) when the count reaches zero;
* every hash-consed subtree node counts its referers — trie-node
  branches, entry gates, and interned parents — and leaves the intern
  store exactly when the last referer lets go;
* equal patterns (canonically) share one entry whose destination set is
  the union of their destinations, so per-destination add/remove is a
  set update;
* ``rename_destination`` re-keys destination sets in place — trie shape,
  sharing and refcounts are untouched.

``check()`` audits all of these invariants, and that every cached child
grouping and accept order is current; the property suite runs it after
every churn operation.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import groupby
from typing import Hashable, Iterable, Sequence

from repro.core.labels import DESCENDANT, WILDCARD, is_tag
from repro.core.pattern import PatternNode, TreePattern
from repro.xmltree.tree import XMLTree

__all__ = ["PatternTrie", "TrieMatch", "BatchMatch"]

Destination = Hashable

# Spine-step axes.  _SELF anchors at the document root (plain root child),
# _ANYWHERE re-anchors at any document node (root-level ``//``), _CHILD is
# a plain child edge, _DESCENDANT a nested ``//`` edge (child of any
# descendant-or-self of the current anchors).
_SELF = "self"
_ANYWHERE = "anywhere"
_CHILD = "child"
_DESCENDANT = "descendant"


def _canonical(node: PatternNode) -> tuple:
    """The recursive canonical key of a pattern subtree (sorted children)."""
    return (node.label, tuple(sorted(_canonical(c) for c in node.children)))


def _degree(node: PatternNode) -> int:
    """Number of ``*`` / ``//`` nodes in the subtree — the wildness order."""
    return sum(
        1
        for sub in node.iter_subtree()
        if sub.label == WILDCARD or sub.label == DESCENDANT
    )


def _subtree_order(node: PatternNode) -> tuple:
    """Degree-sorted canonical order: exact subtrees first."""
    return (_degree(node), _canonical(node))


def _decompose(
    pattern: TreePattern,
) -> tuple[list[tuple[str, str, tuple[PatternNode, ...]]], tuple[PatternNode, ...]]:
    """Split *pattern* into its spine steps and its root gates.

    Deterministic: root children and every node's children are degree-
    sorted, the spine follows the first child, everything else becomes a
    branch (or, at the root, a gate).  The decomposition is a bijection
    on canonical patterns, so one pattern maps to exactly one accepting
    (node, gates) pair.
    """
    roots = sorted(pattern.root_children, key=_subtree_order)
    head, gates = roots[0], tuple(roots[1:])
    steps: list[tuple[str, str, tuple[PatternNode, ...]]] = []
    node, axis = head, _SELF
    while True:
        if node.label == DESCENDANT:
            axis = _ANYWHERE if axis == _SELF else _DESCENDANT
            node = node.children[0]
            continue
        kids = sorted(node.children, key=_subtree_order)
        steps.append((axis, node.label, tuple(kids[1:])))
        if not kids:
            return steps, gates
        node, axis = kids[0], _CHILD


class _BranchNode:
    """One hash-consed pattern subtree (branch / gate constraint)."""

    __slots__ = (
        "label",
        "children",
        "key",
        "degree",
        "tags",
        "node_id",
        "refs",
    )

    def __init__(
        self,
        label: str,
        children: tuple["_BranchNode", ...],
        key: tuple,
        degree: int,
        tags: frozenset,
        node_id: int,
    ) -> None:
        self.label = label
        self.children = children
        self.key = key
        self.degree = degree
        self.tags = tags
        self.node_id = node_id
        self.refs = 0


# Iteration rank of a spine step: exact child/self steps, then wildcard
# steps, then descendant/anywhere relocations.
def _step_rank(axis: str, label: str) -> int:
    rank = 2 if axis in (_ANYWHERE, _DESCENDANT) else 0
    if label == WILDCARD:
        rank += 1
    return rank


#: A run of sibling spine nodes sharing one (axis, label) step.
_Group = tuple[str, str, tuple["_SpineNode", ...]]


def _group_children(order: list[_SpineNode]) -> tuple[_Group, ...]:
    """Cut a degree-sorted ``child_order`` into its (axis, label) runs."""
    return tuple(
        (axis, label, tuple(members))
        for (axis, label), members in groupby(
            order, key=lambda node: (node.axis, node.label)
        )
    )


class _SpineNode:
    """One trie node: a shared spine prefix of one or more patterns."""

    __slots__ = (
        "axis",
        "label",
        "branches",
        "child_key",
        "order_key",
        "parent",
        "children",
        "child_order",
        "groups",
        "accepts",
        "accept_order",
        "refs",
        "own_tags",
        "req_tags",
    )

    def __init__(
        self,
        axis: str,
        label: str,
        branches: tuple[_BranchNode, ...],
        child_key: tuple,
        parent: "_SpineNode | None",
    ) -> None:
        self.axis = axis
        self.label = label
        self.branches = branches
        self.child_key = child_key
        self.order_key = (_step_rank(axis, label), child_key)
        self.parent = parent
        self.children: dict[tuple, _SpineNode] = {}
        self.child_order: list[_SpineNode] = []
        #: ``child_order`` cut into runs of one (axis, label) step, the
        #: unit the candidate scan is generated for; None until the next
        #: match after a child is linked or unlinked.
        self.groups: tuple[_Group, ...] | None = ()
        self.accepts: dict[tuple, _Entry] = {}
        #: ``accepts`` in gate-key order; None until the next match after
        #: an entry is added or removed here.
        self.accept_order: tuple[_Entry, ...] | None = ()
        self.refs = 0
        #: Tags this step itself demands of any matching document.
        own = frozenset([label]) if is_tag(label) else frozenset()
        for branch in branches:
            own |= branch.tags
        self.own_tags = own
        #: Tags *every* pattern in this subtrie demands: ``own_tags``
        #: plus the intersection of what each accepting entry's gates
        #: and each child subtrie require.  A document missing one of
        #: them cannot match anything below, so the whole subtrie is
        #: killed for one operation.  Maintained by
        #: :meth:`PatternTrie._recompute_req` on every add / discard.
        self.req_tags = own


class _Entry:
    """One canonical pattern's accepting record."""

    __slots__ = (
        "pattern",
        "node",
        "gate_key",
        "gates",
        "gate_tags",
        "destinations",
    )

    def __init__(
        self,
        pattern: TreePattern,
        node: _SpineNode,
        gate_key: tuple,
        gates: tuple[_BranchNode, ...],
        destinations: set,
    ) -> None:
        self.pattern = pattern
        self.node = node
        self.gate_key = gate_key
        self.gates = gates
        self.gate_tags = frozenset().union(*(g.tags for g in gates)) if (
            gates
        ) else frozenset()
        self.destinations = destinations


class _BatchMemo:
    """The shared evaluation pool of one batch (or one ``match`` call).

    Everything keyed here is a pure function of *document structure*
    (skeleton keys, tag sets) and *trie constraints* (hash-consed node
    ids, required-tag sets), so entries are sound across every document
    of the batch.  ``stride`` is the trie's node-id horizon at pool
    creation; combined with the densely interned skeleton keys it packs
    every branch/gate memo key into one int.  A pool must not outlive a
    trie mutation — the matching entry points create one per call, so
    they never do.
    """

    __slots__ = (
        "stride",
        "skeleton_keys",
        "memo",
        "gate_cache",
        "alive",
        "alive_req",
        "results",
        "hits",
        "misses",
    )

    def __init__(self, stride: int) -> None:
        self.stride = stride
        #: Interner: dedup-canonical ``(label, child skeleton keys)`` →
        #: dense skeleton key.
        self.skeleton_keys: dict[tuple, int] = {}
        #: ``skeleton_key * stride + constraint id`` → branch satisfied.
        self.memo: dict[int, bool] = {}
        #: ``root skeleton key * stride + gate id`` → gate satisfied.
        self.gate_cache: dict[int, bool] = {}
        #: Document tag set → {constraint id → constraint alive}.
        self.alive: dict[frozenset, dict[int, bool]] = {}
        #: Document tag set → {required tags → subtrie alive}.
        self.alive_req: dict[frozenset, dict[frozenset, bool]] = {}
        #: Root skeleton key → the whole document's match outcome.
        self.results: dict[int, tuple[set, set]] = {}
        self.hits = 0
        self.misses = 0


class _MatchState:
    """Per-document evaluation state over a shared :class:`_BatchMemo`.

    Holds what is genuinely per document — the tree, its cached
    :class:`~repro.xmltree.tree.TreeIndex`, its skeleton keys, the
    aliveness memos of its tag set and the op counter — while every
    memo table lives in the pool and is shared across the batch.
    """

    __slots__ = (
        "tree",
        "index",
        "tag_set",
        "pool",
        "skel",
        "root_key",
        "alive",
        "alive_req",
        "ops",
    )

    def __init__(self, tree: XMLTree, pool: _BatchMemo) -> None:
        self.tree = tree
        self.index = tree.index
        tag_set = self.tag_set = tree.tag_set
        self.pool = pool
        alive = pool.alive.get(tag_set)
        if alive is None:
            alive = pool.alive[tag_set] = {}
            pool.alive_req[tag_set] = {}
        self.alive = alive
        self.alive_req = pool.alive_req[tag_set]
        # Skeleton keys, bottom-up: the builder appends parents before
        # children, so a reverse scan sees every child before its
        # parent.  Identical sibling subtrees intern to one key —
        # matching only ever quantifies document children existentially,
        # so the deduplication never changes satisfaction.  This is
        # document bookkeeping (like the tree index), not trie work: it
        # is deliberately not counted as trie operations.
        skeleton_keys = pool.skeleton_keys
        children = tree.children
        labels = tree.labels
        skel = [0] * len(labels)
        for position in reversed(range(len(labels))):
            kids = children[position]
            shape = (
                labels[position],
                tuple(sorted({skel[kid] for kid in kids})) if kids else (),
            )
            key = skeleton_keys.get(shape)
            if key is None:
                key = len(skeleton_keys)
                skeleton_keys[shape] = key
            skel[position] = key
        self.skel = skel
        self.root_key = skel[tree.root]
        self.ops = 0

    def is_alive(self, node: "_BranchNode") -> bool:
        """Does the document hold every tag *node* requires?  One memo
        entry per (constraint, document tag set) across the batch."""
        alive = self.alive.get(node.node_id)
        if alive is None:
            self.pool.misses += 1
            self.ops += 1
            alive = self.alive[node.node_id] = node.tags <= self.tag_set
        else:
            self.pool.hits += 1
        return alive


@dataclass
class TrieMatch:
    """Result of one trie traversal over one document."""

    destinations: set
    patterns: set
    operations: int


@dataclass
class BatchMatch:
    """Result of one shared-pool traversal over a document batch.

    ``results`` holds one :class:`TrieMatch` per input document, in
    order; each carries the operations *attributed* to that document
    (memo-amortised work is paid by the first document that needs it),
    so ``operations == sum(r.operations for r in results)``.  ``memo_hits``
    / ``memo_misses`` split the pool lookups into amortised answers and
    cold computations — the hit rate is the batch's structural-sharing
    measure.
    """

    results: list[TrieMatch]
    operations: int
    memo_hits: int
    memo_misses: int

    @property
    def hit_rate(self) -> float:
        """Fraction of pool lookups answered without recomputation."""
        lookups = self.memo_hits + self.memo_misses
        return self.memo_hits / lookups if lookups else 0.0


class PatternTrie:
    """All of a broker's patterns merged into one matching structure."""

    def __init__(self) -> None:
        self._root = _SpineNode(_SELF, "", (), (), None)
        self._entries: dict[TreePattern, _Entry] = {}
        self._interned: dict[tuple, _BranchNode] = {}
        self._next_node_id = 0
        self._spine_count = 0

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def add(self, pattern: TreePattern, destination: Destination) -> None:
        """Register *pattern* as active for *destination*."""
        entry = self._entries.get(pattern)
        if entry is not None:
            entry.destinations.add(destination)
            return
        steps, gate_nodes = _decompose(pattern)
        node = self._root
        path: list[_SpineNode] = []
        for axis, label, branches in steps:
            node = self._step_child(node, axis, label, branches)
            path.append(node)
        gates = tuple(self._intern(g) for g in gate_nodes)
        for gate in gates:
            gate.refs += 1
        gate_key = tuple(gate.key for gate in gates)
        entry = _Entry(pattern, node, gate_key, gates, {destination})
        node.accepts[gate_key] = entry
        node.accept_order = None
        for spine_node in path:
            spine_node.refs += 1
        self._entries[pattern] = entry
        # Unconditional bottom-up pass: freshly created parents were
        # initialised before this child existed, so no early stop here.
        for spine_node in reversed(path):
            spine_node.req_tags = self._req_of(spine_node)

    def discard(self, pattern: TreePattern, destination: Destination) -> None:
        """Retire *pattern*'s active registration for *destination*."""
        entry = self._entries[pattern]
        entry.destinations.remove(destination)
        if entry.destinations:
            return
        del self._entries[pattern]
        del entry.node.accepts[entry.gate_key]
        entry.node.accept_order = None
        for gate in entry.gates:
            self._release(gate)
        node = entry.node
        survivor: _SpineNode | None = None
        while node is not self._root:
            node.refs -= 1
            parent = node.parent
            assert parent is not None
            if node.refs == 0:
                del parent.children[node.child_key]
                parent.child_order.remove(node)
                parent.groups = None
                for branch in node.branches:
                    self._release(branch)
                self._spine_count -= 1
            elif survivor is None:
                survivor = node
            node = parent
        if survivor is not None:
            self._recompute_req(survivor)

    def rename_destination(
        self,
        old: Destination,
        new: Destination,
        patterns: Iterable[TreePattern],
    ) -> None:
        """Re-key *old* to *new* in the entries of *patterns* (the active
        patterns of that destination); trie shape is untouched."""
        for pattern in patterns:
            destinations = self._entries[pattern].destinations
            destinations.remove(old)
            destinations.add(new)

    def clear(self) -> None:
        """Forget every entry and every shared node."""
        self._root = _SpineNode(_SELF, "", (), (), None)
        self._entries.clear()
        self._interned.clear()
        self._spine_count = 0

    def _step_child(
        self,
        parent: _SpineNode,
        axis: str,
        label: str,
        branches: tuple[PatternNode, ...],
    ) -> _SpineNode:
        branch_keys = tuple(_canonical(branch) for branch in branches)
        child_key = (axis, label, branch_keys)
        child = parent.children.get(child_key)
        if child is None:
            interned = tuple(self._intern(branch) for branch in branches)
            for branch in interned:
                branch.refs += 1
            child = _SpineNode(axis, label, interned, child_key, parent)
            parent.children[child_key] = child
            insort(parent.child_order, child, key=lambda n: n.order_key)
            parent.groups = None
            self._spine_count += 1
        return child

    @staticmethod
    def _req_of(node: _SpineNode) -> frozenset:
        """The required-tag summary *node* should carry right now."""
        parts = [entry.gate_tags for entry in node.accepts.values()]
        parts.extend(child.req_tags for child in node.child_order)
        below = frozenset.intersection(*parts) if parts else frozenset()
        return node.own_tags | below

    def _recompute_req(self, node: _SpineNode | None) -> None:
        """Re-derive ``req_tags`` from *node* upward, stopping at the
        first ancestor whose requirement is unchanged.  Only valid when
        every ancestor was consistent beforehand (discard path)."""
        while node is not None and node is not self._root:
            req = self._req_of(node)
            if req == node.req_tags:
                return
            node.req_tags = req
            node = node.parent

    def _intern(self, pnode: PatternNode) -> _BranchNode:
        key = _canonical(pnode)
        node = self._interned.get(key)
        if node is not None:
            return node
        kids = sorted(pnode.children, key=_subtree_order)
        children = tuple(self._intern(kid) for kid in kids)
        for child in children:
            child.refs += 1
        tags = frozenset(
            label
            for label in [pnode.label]
            if is_tag(label)
        ).union(*(child.tags for child in children)) if children else (
            frozenset([pnode.label]) if is_tag(pnode.label) else frozenset()
        )
        node = _BranchNode(
            pnode.label, children, key, _degree(pnode), tags,
            self._next_node_id,
        )
        self._next_node_id += 1
        self._interned[key] = node
        return node

    def _release(self, node: _BranchNode) -> None:
        node.refs -= 1
        if node.refs == 0:
            del self._interned[node.key]
            for child in node.children:
                self._release(child)

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------

    def match(self, tree: XMLTree) -> TrieMatch:
        """One traversal: every matching pattern and destination, plus the
        trie operations spent.

        Routed through the batch machinery at batch size one (a fresh
        memo pool per call), so the single-document and batched paths
        share every line of evaluation code and cannot drift.
        """
        return self.match_batch((tree,)).results[0]

    def match_batch(self, trees: Iterable[XMLTree]) -> BatchMatch:
        """Match every document of a batch through one shared memo pool.

        Branch/gate satisfaction, aliveness tests and whole-document
        outcomes are memoised across the batch on skeleton keys (see
        the module docstring), so structurally repeated work is paid
        once: batched operations are always ≤ the sum of per-document
        ``match`` costs, with equality exactly when the batch shares no
        structure.  The trie must not be mutated while a batch is being
        evaluated (the pool is private to the call, so this only
        excludes mutation from within the iterable).
        """
        results: list[TrieMatch] = []
        if not self._entries:
            for _ in trees:
                results.append(TrieMatch(set(), set(), 0))
            return BatchMatch(results, 0, 0, 0)
        pool = _BatchMemo(max(1, self._next_node_id))
        total = 0
        for tree in trees:
            state = _MatchState(tree, pool)
            cached = pool.results.get(state.root_key)
            if cached is not None:
                pool.hits += 1
                destinations, patterns = cached
                results.append(TrieMatch(set(destinations), set(patterns), 0))
                continue
            pool.misses += 1
            destinations = set()
            patterns: set[TreePattern] = set()
            self._visit_children(
                self._root, (), state, destinations, patterns
            )
            # Later documents of the batch copy these sets on a hit, all
            # before any result leaves this call, so no copy is made here.
            pool.results[state.root_key] = (destinations, patterns)
            total += state.ops
            results.append(TrieMatch(destinations, patterns, state.ops))
        return BatchMatch(results, total, pool.hits, pool.misses)

    def _visit_children(
        self,
        parent: _SpineNode,
        anchors: Sequence[int],
        state: _MatchState,
        destinations: set,
        patterns: set,
    ) -> None:
        groups = parent.groups
        if groups is None:
            groups = parent.groups = _group_children(parent.child_order)
        alive_req = state.alive_req
        tag_set = state.tag_set
        # Aliveness lookups and their misses, settled once per visit.
        lookups = misses = 0
        # The descendant scope of these anchors, shared by every
        # descendant group of this visit.
        scope: set[int] | None = None
        for axis, label, members in groups:
            # One op per distinct (requirement set, document tag set)
            # across the whole batch kills every subtrie whose required
            # tags the document lacks — before any candidate scan is
            # paid.
            live: list[_SpineNode] = []
            lookups += len(members)
            for member in members:
                required = member.req_tags
                alive = alive_req.get(required)
                if alive is None:
                    misses += 1
                    alive = alive_req[required] = required <= tag_set
                if alive:
                    live.append(member)
            if not live:
                continue
            candidates: Sequence[int]
            if axis == _DESCENDANT:
                if scope is None:
                    scope = state.index.scope(anchors)
                candidates = self._descendants(label, scope, state)
            else:
                candidates = self._candidates(axis, label, anchors, state)
            if not candidates:
                continue
            for member in live:
                if member.branches:
                    branches = member.branches
                    member_anchors: Sequence[int] = [
                        anchor
                        for anchor in candidates
                        if all(
                            self._branch_sat(branch, anchor, state)
                            for branch in branches
                        )
                    ]
                    if not member_anchors:
                        continue
                else:
                    member_anchors = candidates
                accept_order = member.accept_order
                if accept_order is None:
                    accept_order = member.accept_order = tuple(
                        member.accepts[gate_key]
                        for gate_key in sorted(member.accepts)
                    )
                for entry in accept_order:
                    if not entry.gates or all(
                        self._gate_sat(gate, state) for gate in entry.gates
                    ):
                        destinations.update(entry.destinations)
                        patterns.add(entry.pattern)
                if member.child_order:
                    self._visit_children(
                        member, member_anchors, state, destinations, patterns
                    )
        pool = state.pool
        pool.hits += lookups - misses
        pool.misses += misses
        state.ops += misses

    @staticmethod
    def _candidates(
        axis: str,
        label: str,
        anchors: Sequence[int],
        state: _MatchState,
    ) -> Sequence[int]:
        """Document nodes a non-descendant step can anchor at."""
        tree = state.tree
        if axis == _SELF:
            state.ops += 1
            root = tree.root
            if label != WILDCARD and tree.labels[root] != label:
                return ()
            return (root,)
        if axis == _ANYWHERE:
            if label == WILDCARD:
                candidates: Sequence[int] = range(len(tree.labels))
            else:
                candidates = state.index.positions.get(label, ())
            state.ops += len(candidates)
            return candidates
        # _CHILD: one op per anchor looked up, one per candidate surfaced
        # — the (label, parent) index is shared by the whole table.
        if label == WILDCARD:
            children = tree.children
            found = [kid for anchor in anchors for kid in children[anchor]]
        else:
            by_parent = state.index.children_by_label.get(label)
            if by_parent is None:
                found = []
            else:
                found = [
                    kid
                    for anchor in anchors
                    for kid in by_parent.get(anchor, ())
                ]
        state.ops += len(anchors) + len(found)
        return found

    @staticmethod
    def _descendants(
        label: str, scope: set[int], state: _MatchState
    ) -> list[int]:
        """_DESCENDANT: children of any node in *scope* (the anchors'
        descendant-or-self closure) carrying *label*, one op per node
        examined."""
        if label == WILDCARD:
            # The scope is closed under children, so every child of a
            # scope node is itself in scope: scan the scope, not the
            # whole document.
            pool: Sequence[int] = sorted(scope)
        else:
            pool = state.index.positions.get(label, ())
        state.ops += len(pool)
        parents = state.tree.parents
        return [position for position in pool if parents[position] in scope]

    def _branch_sat(self, node: _BranchNode, t: int, state: _MatchState) -> bool:
        """(T, t) ⊨ Subtree(node) — the exact :class:`PatternMatcher`
        semantics, memoised on the document node's skeleton key: shared
        across every pattern in the trie *and* every structurally equal
        subtree in the batch.  The cycle-safe placeholder below stays
        sound under key sharing because a strict document descendant has
        a strictly smaller dedup-canonical height than its ancestor, so
        the two can never intern to the same skeleton key."""
        pool = state.pool
        key = state.skel[t] * pool.stride + node.node_id
        memo = pool.memo
        cached = memo.get(key)
        if cached is not None:
            pool.hits += 1
            return cached
        if not state.is_alive(node):
            return False
        pool.misses += 1
        state.ops += 1
        tree = state.tree
        label = node.label
        kids = node.children
        result = False
        if label == DESCENDANT:
            memo[key] = False  # cycle-safe placeholder; tree has no cycles
            result = all(self._branch_sat(ku, t, state) for ku in kids)
            if not result:
                result = any(
                    self._branch_sat(node, kid, state)
                    for kid in tree.children[t]
                )
        elif label == WILDCARD:
            result = any(
                all(self._branch_sat(ku, kid, state) for ku in kids)
                for kid in tree.children[t]
            )
        else:
            doc_labels = tree.labels
            result = any(
                doc_labels[kid] == label
                and all(self._branch_sat(ku, kid, state) for ku in kids)
                for kid in tree.children[t]
            )
        memo[key] = result
        return result

    def _gate_sat(self, gate: _BranchNode, state: _MatchState) -> bool:
        """Root semantics for a non-spine root child, cached per root
        skeleton key — a gate reads the whole document, and documents
        with equal root keys are structurally indistinguishable to it."""
        pool = state.pool
        key = state.root_key * pool.stride + gate.node_id
        gate_cache = pool.gate_cache
        cached = gate_cache.get(key)
        if cached is not None:
            pool.hits += 1
            return cached
        if not state.is_alive(gate):
            gate_cache[key] = False
            return False
        pool.misses += 1
        state.ops += 1
        tree = state.tree
        label = gate.label
        if label == DESCENDANT:
            target = gate.children[0]
            if target.label == WILDCARD:
                pool: Sequence[int] = range(len(tree.labels))
            else:
                pool = state.index.positions.get(target.label, ())
            result = False
            for position in pool:
                state.ops += 1
                if all(
                    self._branch_sat(ku, position, state)
                    for ku in target.children
                ):
                    result = True
                    break
        else:
            root = tree.root
            if label != WILDCARD and tree.labels[root] != label:
                result = False
            else:
                result = all(
                    self._branch_sat(ku, root, state) for ku in gate.children
                )
        gate_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of distinct (canonical) patterns held."""
        return len(self._entries)

    def __contains__(self, pattern: object) -> bool:
        return isinstance(pattern, TreePattern) and pattern in self._entries

    @property
    def node_count(self) -> int:
        """Spine (trie) nodes currently allocated."""
        return self._spine_count

    @property
    def interned_count(self) -> int:
        """Hash-consed branch/gate subtree nodes currently allocated."""
        return len(self._interned)

    def destinations_of(self, pattern: TreePattern) -> frozenset:
        """The destinations *pattern* is active for (empty if absent)."""
        entry = self._entries.get(pattern)
        if entry is None:
            return frozenset()
        return frozenset(entry.destinations)

    def check(self) -> None:
        """Audit every incremental-maintenance invariant; raises
        AssertionError on any inconsistency (test support)."""
        # Walk the spine trie, collecting nodes and recomputing refcounts.
        reachable: list[_SpineNode] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node is not self._root:
                reachable.append(node)
            assert sorted(node.child_order, key=lambda n: n.order_key) == list(
                node.child_order
            ), "child_order not degree-sorted"
            assert set(node.children.values()) == set(node.child_order)
            assert node.groups is None or node.groups == _group_children(
                node.child_order
            ), "cached child groups stale"
            assert node.accept_order is None or node.accept_order == tuple(
                node.accepts[gate_key] for gate_key in sorted(node.accepts)
            ), "cached accept order stale"
            for key, child in node.children.items():
                assert child.child_key == key and child.parent is node
                stack.append(child)
        assert len(reachable) == self._spine_count, "spine count drifted"

        spine_refs: dict[int, int] = {}
        entries_seen: dict[TreePattern, _Entry] = {}
        for node in reachable + [self._root]:
            for gate_key, entry in node.accepts.items():
                assert entry.node is node and entry.gate_key == gate_key
                assert entry.destinations, "entry with no destinations"
                assert entry.pattern not in entries_seen
                entries_seen[entry.pattern] = entry
                walk: _SpineNode | None = node
                while walk is not None and walk is not self._root:
                    # check() is an in-process diagnostic audit; ids index
                    # live nodes for one pass.
                    # reprolint: disable=RL003 -- one-pass in-process audit keys
                    spine_refs[id(walk)] = spine_refs.get(id(walk), 0) + 1
                    walk = walk.parent
        assert entries_seen == self._entries, "entry index out of sync"
        for node in reachable:
            # reprolint: disable=RL003 -- same one-pass diagnostic audit.
            assert node.refs == spine_refs.get(id(node), 0), (
                "spine refcount drifted"
            )
            assert node.refs > 0, "orphan spine node"

        # Recompute branch/gate refcounts from every referer.
        branch_refs: dict[tuple, int] = {}
        for node in reachable:
            for branch in node.branches:
                branch_refs[branch.key] = branch_refs.get(branch.key, 0) + 1
        for entry in self._entries.values():
            for gate in entry.gates:
                branch_refs[gate.key] = branch_refs.get(gate.key, 0) + 1
        for interned in self._interned.values():
            for child in interned.children:
                branch_refs[child.key] = branch_refs.get(child.key, 0) + 1
        assert branch_refs == {
            key: node.refs for key, node in self._interned.items()
        }, "interned refcounts drifted"

        # Recompute required-tag summaries bottom-up and compare.
        def expected_req(node: _SpineNode) -> frozenset:
            own = (
                frozenset([node.label])
                if is_tag(node.label)
                else frozenset()
            )
            for branch in node.branches:
                own |= branch.tags
            assert node.own_tags == own, "own_tags drifted"
            parts = [entry.gate_tags for entry in node.accepts.values()]
            parts.extend(expected_req(child) for child in node.child_order)
            below = frozenset.intersection(*parts) if parts else frozenset()
            req = own | below
            assert node.req_tags == req, "req_tags drifted"
            return req

        for top in self._root.child_order:
            expected_req(top)
        for entry in self._entries.values():
            gate_tags = frozenset().union(
                *(gate.tags for gate in entry.gates)
            ) if entry.gates else frozenset()
            assert entry.gate_tags == gate_tags, "gate_tags drifted"

    def __repr__(self) -> str:
        return (
            f"PatternTrie(patterns={len(self._entries)}, "
            f"nodes={self._spine_count}, interned={len(self._interned)})"
        )
