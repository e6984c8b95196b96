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
memo miss: once per distinct requirement mask, or hash-consed
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

An operation is a unit of filtering work, not of wall time, so the
traversal keeps interpreter bookkeeping out of its inner loops and
evaluates tag requirements bit-parallel, after the ternary match of
"Similarity Search and Locality Sensitive Hashing using TCAMs" (Shinde,
Goel, Gupta).  Each trie gives every tag a bit; a spine node's
``req_mask``, a constraint's ``mask`` and an entry's ``gate_mask`` are
ints of those bits, and a match builds one ``missing`` mask per
document tag set (the complement of the document's tag bits).  A
requirement is alive iff ``req & missing == 0``.  A visit to a spine
node then costs:

* its cached *plan* — children cut into (axis, label) groups, each with
  the AND of its members' ``req_mask`` values, plus the set of the
  children's distinct ``req_mask`` values — rebuilt only after a child is
  linked or unlinked or a child's ``req_mask`` changes;
* one AND per group: a group whose shared tags the document lacks is
  dropped whole, otherwise one AND per member picks the live ones;
* one set union of the plan's mask set into the tag set's pool of
  tested requirements.  Every visit looks up every child, so its
  aliveness lookups are the number of children and its misses are the
  masks the union adds — exactly the counts the per-child memo lookups
  of a dict-keyed test would give;
* for each accepted entry, one append.

The spine is walked with an explicit stack, and a ``//`` constraint
descends the document in a loop, so neither costs one Python frame per
level.  The visit order cannot change a count: each memo key is
computed once, what it computes (and hence which keys it asks for) is a
function of the document and the constraint alone, and every visit
adds the same lookups whenever it happens.  Only the order in which
entries are collected differs, and what a match reports of them — the
union of their destination sets, the set of their patterns — is
order-free.

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
matched in share it.  Its skeleton keys (below) are cached beside it.
Documents are immutable, so neither is ever invalidated.

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
re-traversed; aliveness tests share per-tag-set entries (a requirement
mask set and a constraint memo per document tag set), gates share
per-root-key entries, and a document whose whole skeleton repeats
costs zero trie operations.  A fresh pool adopts its first document's
cached skeleton keys, whose own interning is exactly what the pool
would compute, and copies their interner only when a later document of
the batch interns into it.  Skeleton-key construction is document
bookkeeping (like the tree index), not trie work, so it is never
counted as a trie operation — batched operations are guaranteed ≤ the
sum of the per-document counts.  ``match`` is the batch machinery at
batch size one (a fresh pool per call), so the two paths cannot
drift.

Match results
-------------

A document's match *is* its accepted entries and the operations
attributed to it: :meth:`PatternTrie.match_entries` returns exactly
that, per document of a batch, with the pool's memo hits and misses.
``match`` and ``match_batch`` build sets from it — the union of the
accepted entries' destination sets and the set of their patterns.  An
owner that needs something else reads it off the entries: the routing
table unites their deliver members and tests its few forward links
against their destination sets, without building either set.

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
* ``req_mask`` values change only along the touched spine path: an
  ``add`` narrows each path node's with one AND (the node gains exactly
  one part), a ``discard`` re-derives them bottom-up with C-level ANDs
  until one is unchanged, and a changed one drops its parent's plan;
* ``rename_destination`` re-keys destination sets in place — trie
  shape, sharing and refcounts are untouched.

``add``, ``discard`` and ``rename_destination`` hand back the entries
they touched, the same handles ``match_entries`` reports a document's
accepted entries by, so an owner keeps per-entry state in an entry's
``members`` slot, which the trie never reads, without looking a pattern
up again (the routing table keeps each entry's deliver members there).

``check()`` recomputes every mask and plan from the patterns alone and
audits all of these invariants; the property suite runs it after every
churn operation.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from operator import and_, attrgetter, or_
from typing import Any, Hashable, Iterable, Iterator, Sequence

from repro.core.labels import DESCENDANT, WILDCARD, is_tag
from repro.core.pattern import PatternNode, TreePattern
from repro.xmltree.tree import XMLTree, intern_skeleton_keys

__all__ = [
    "PatternTrie",
    "TrieMatch",
    "BatchMatch",
    "EntryBatch",
]

Destination = Hashable

# Spine-step axes.  _SELF anchors at the document root (plain root child),
# _ANYWHERE re-anchors at any document node (root-level ``//``), _CHILD is
# a plain child edge, _DESCENDANT a nested ``//`` edge (child of any
# descendant-or-self of the current anchors).
_SELF = "self"
_ANYWHERE = "anywhere"
_CHILD = "child"
_DESCENDANT = "descendant"

_REQ_MASK = attrgetter("req_mask")
_DESTINATIONS = attrgetter("destinations")
_MASK = attrgetter("mask")
_STEP = attrgetter("axis", "label")

#: A subtree's degree-sorted canonical order: ``(degree, canonical key)``.
_Order = tuple[int, tuple]


def _subtree_orders(pattern: TreePattern) -> dict[PatternNode, _Order]:
    """The order key of every subtree of *pattern*, for one decomposition.

    A subtree's *degree* — its number of ``*`` / ``//`` nodes, the
    wildness order — is summed bottom-up in one pass (a reversed
    pre-order sees every child before its parent), so sorting children
    never re-walks a subtree; the canonical key is the one
    :class:`~repro.core.pattern.PatternNode` cached at construction.
    """
    orders: dict[PatternNode, _Order] = {}
    for node in reversed(list(pattern.iter_nodes())):
        degree = int(node.label == WILDCARD or node.label == DESCENDANT)
        for child in node.children:
            degree += orders[child][0]
        orders[node] = (degree, node.canonical_key)
    return orders


def _decompose(
    pattern: TreePattern, orders: dict[PatternNode, _Order] | None = None
) -> tuple[list[tuple[str, str, tuple[PatternNode, ...]]], tuple[PatternNode, ...]]:
    """Split *pattern* into its spine steps and its root gates.

    Deterministic: root children and every node's children are degree-
    sorted (by *orders*, computed here unless the caller shares them, see
    :func:`_subtree_orders`), the spine follows the first child,
    everything else becomes a branch (or, at the root, a gate).  The
    decomposition is a bijection on canonical patterns, so one pattern
    maps to exactly one accepting (node, gates) pair.
    """
    if orders is None:
        orders = _subtree_orders(pattern)
    order = orders.__getitem__
    roots = sorted(pattern.root_children, key=order)
    head, gates = roots[0], tuple(roots[1:])
    steps: list[tuple[str, str, tuple[PatternNode, ...]]] = []
    node, axis = head, _SELF
    while True:
        if node.label == DESCENDANT:
            axis = _ANYWHERE if axis == _SELF else _DESCENDANT
            node = node.children[0]
            continue
        kids = sorted(node.children, key=order)
        steps.append((axis, node.label, tuple(kids[1:])))
        if not kids:
            return steps, gates
        node, axis = kids[0], _CHILD


class _BranchNode:
    """One hash-consed pattern subtree (branch / gate constraint)."""

    __slots__ = ("label", "children", "key", "mask", "node_id", "refs")

    def __init__(
        self,
        label: str,
        children: tuple["_BranchNode", ...],
        key: tuple,
        mask: int,
        node_id: int,
    ) -> None:
        self.label = label
        self.children = children
        self.key = key
        #: The tag bits of every tag the subtree names: a document missing
        #: one of them cannot satisfy it.
        self.mask = mask
        self.node_id = node_id
        self.refs = 0


# Iteration rank of a spine step: exact child/self steps, then wildcard
# steps, then descendant/anywhere relocations.
def _step_rank(axis: str, label: str) -> int:
    rank = 2 if axis in (_ANYWHERE, _DESCENDANT) else 0
    if label == WILDCARD:
        rank += 1
    return rank


#: A run of sibling spine nodes sharing one (axis, label) step, with the
#: AND of their ``req_mask`` values — the tags every member requires —
#: and whether every member requires exactly that (then the group's AND
#: decides each member's liveness too).
_Group = tuple[str, str, int, tuple["_SpineNode", ...], bool]

#: A spine node's cached visit plan: its children cut into groups, the
#: set of its children's distinct ``req_mask`` values, and their number.
_Plan = tuple[tuple[_Group, ...], frozenset[int], int]


def _plan_of(node: _SpineNode) -> _Plan:
    """Cut a degree-sorted ``child_order`` into its (axis, label) runs."""
    groups: list[_Group] = []
    for (axis, label), run in groupby(node.child_order, key=_STEP):
        members = tuple(run)
        shared: int = reduce(and_, map(_REQ_MASK, members))
        uniform = all(member.req_mask == shared for member in members)
        groups.append((axis, label, shared, members, uniform))
    return (
        tuple(groups),
        frozenset(map(_REQ_MASK, node.child_order)),
        len(node.child_order),
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
        "plan",
        "accepts",
        "refs",
        "own_mask",
        "req_mask",
    )

    def __init__(
        self,
        axis: str,
        label: str,
        branches: tuple[_BranchNode, ...],
        child_key: tuple,
        parent: "_SpineNode | None",
        own_mask: int,
    ) -> None:
        self.axis = axis
        self.label = label
        self.branches = branches
        self.child_key = child_key
        self.order_key = (_step_rank(axis, label), child_key)
        self.parent = parent
        self.children: dict[tuple, _SpineNode] = {}
        self.child_order: list[_SpineNode] = []
        #: The visit plan (:func:`_plan_of`); None until the next match
        #: after a child is linked or unlinked or a child's ``req_mask``
        #: changes.
        self.plan: _Plan | None = None
        self.accepts: dict[tuple, _Entry] = {}
        self.refs = 0
        #: Tag bits this step itself demands of any matching document:
        #: its label and its branch constraints.
        self.own_mask = own_mask
        #: Tag bits *every* pattern in this subtrie demands: ``own_mask``
        #: plus the AND of what each accepting entry's gates and each
        #: child subtrie require.  A document missing one of them cannot
        #: match anything below, so the whole subtrie is killed for one
        #: operation.  Maintained by :meth:`PatternTrie._set_req` on
        #: every add / discard.
        self.req_mask = own_mask


class _Entry:
    """One canonical pattern's accepting record: what a match reports
    when the pattern matches.  ``destinations`` is the set of
    destinations the pattern is active for."""

    __slots__ = (
        "pattern",
        "node",
        "gate_key",
        "gates",
        "gate_mask",
        "destinations",
        "members",
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
        self.gate_mask: int = reduce(or_, map(_MASK, gates), 0)
        self.destinations = destinations
        #: Left to the trie's owner, which the trie never reads: the
        #: routing table keeps the member ids of the entry's deliver
        #: destinations here (None while it has none).
        self.members: Any = None


#: Per document tag set: its missing-tag mask, its constraint aliveness
#: memo (constraint id → alive) and the spine requirements already
#: tested against it.
_TagSetMemo = tuple[int, dict[int, bool], set[int]]


class _BatchMemo:
    """The shared evaluation pool of one batch (or one ``match`` call).

    Everything keyed here is a pure function of *document structure*
    (skeleton keys, tag sets) and *trie constraints* (hash-consed node
    ids, requirement masks), so entries are sound across every document
    of the batch.  ``stride`` is the trie's node-id horizon at pool
    creation; combined with the densely interned skeleton keys it packs
    every branch/gate memo key into one int.  A pool must not outlive a
    trie mutation — the matching entry points create one per call, so
    they never do.
    """

    __slots__ = (
        "stride",
        "tag_bits",
        "all_tags",
        "shapes",
        "borrowed",
        "memo",
        "gate_cache",
        "by_tags",
        "results",
        "hits",
        "misses",
    )

    def __init__(self, stride: int, tag_bits: dict[str, int]) -> None:
        self.stride = stride
        self.tag_bits = tag_bits
        self.all_tags = (1 << len(tag_bits)) - 1
        #: Skeleton interner: dedup-canonical ``(label, child skeleton
        #: keys)`` → dense skeleton key.  None until the first document,
        #: whose own cached interning the pool adopts (``borrowed``) and
        #: copies only when a second document must intern into it.
        self.shapes: dict[tuple, int] | None = None
        self.borrowed = False
        #: ``skeleton_key * stride + constraint id`` → branch satisfied.
        self.memo: dict[int, bool] = {}
        #: ``root skeleton key * stride + gate id`` → gate satisfied.
        self.gate_cache: dict[int, bool] = {}
        #: Document tag set → its :data:`_TagSetMemo`.
        self.by_tags: dict[frozenset, _TagSetMemo] = {}
        #: Root skeleton key → the whole document's accepted entries.
        self.results: dict[int, list[_Entry]] = {}
        self.hits = 0
        self.misses = 0


class _MatchState:
    """Per-document evaluation state over a shared :class:`_BatchMemo`.

    Holds what is genuinely per document — the tree, its cached
    :class:`~repro.xmltree.tree.TreeIndex`, its skeleton keys, the
    memos of its tag set and the op counter — while every memo table
    lives in the pool and is shared across the batch.
    """

    __slots__ = (
        "tree",
        "index",
        "pool",
        "skel",
        "root_key",
        "missing",
        "alive",
        "seen",
        "ops",
    )

    def __init__(self, tree: XMLTree, pool: _BatchMemo) -> None:
        self.tree = tree
        self.index = tree.index
        self.pool = pool
        tag_set = tree.tag_set
        memos = pool.by_tags.get(tag_set)
        if memos is None:
            # Distinct tags own distinct bits, so their sum is their OR.
            bits = pool.tag_bits
            present = sum(map(bits.__getitem__, bits.keys() & tag_set))
            memos = pool.by_tags[tag_set] = (pool.all_tags ^ present, {}, set())
        self.missing, self.alive, self.seen = memos
        # Skeleton keys are document bookkeeping (like the tree index),
        # not trie work: they are deliberately not counted as trie
        # operations.  A fresh pool's interning of its first document
        # equals the document's own, so it adopts the cached one.
        if pool.shapes is None:
            skel, pool.shapes = tree.skeleton_keys
            pool.borrowed = True
        else:
            if pool.borrowed:
                pool.shapes = dict(pool.shapes)
                pool.borrowed = False
            skel = intern_skeleton_keys(tree, pool.shapes)
        self.skel = skel
        self.root_key = skel[tree.root]
        self.ops = 0

    def is_alive(self, node: _BranchNode) -> bool:
        """Does the document hold every tag *node* requires?  One memo
        entry per (constraint, document tag set) across the batch."""
        alive = self.alive.get(node.node_id)
        if alive is None:
            self.pool.misses += 1
            self.ops += 1
            alive = self.alive[node.node_id] = not node.mask & self.missing
        else:
            self.pool.hits += 1
        return alive


@dataclass
class TrieMatch:
    """Result of one trie traversal over one document: the union of the
    accepted entries' destination sets, their patterns and the
    operations spent."""

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


@dataclass
class EntryBatch:
    """:meth:`PatternTrie.match_entries`' result: per document of a
    batch, in order, its accepted entries (the handles
    :meth:`PatternTrie.add` returned) and its attributed operations,
    plus the pool's memo hits and misses — the traversal and counts of
    :meth:`PatternTrie.match_batch`, without building sets."""

    accepted: list[list[_Entry]]
    operations: list[int]
    memo_hits: int
    memo_misses: int


class PatternTrie:
    """All of a broker's patterns merged into one matching structure."""

    def __init__(self) -> None:
        self._root = _SpineNode(_SELF, "", (), (), None, 0)
        self._entries: dict[TreePattern, _Entry] = {}
        self._interned: dict[tuple, _BranchNode] = {}
        self._next_node_id = 0
        self._spine_count = 0
        #: Tag → its one-bit mask, allocated as tags first appear.
        self._tag_bits: dict[str, int] = {}

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def add(self, pattern: TreePattern, destination: Destination) -> _Entry:
        """Register *pattern* as active for *destination*; returns the
        pattern's entry, the handle :meth:`match_entries` reports it by."""
        entry = self._entries.get(pattern)
        if entry is not None:
            entry.destinations.add(destination)
            return entry
        orders = _subtree_orders(pattern)
        steps, gate_nodes = _decompose(pattern, orders)
        node = self._root
        path: list[_SpineNode] = []
        for axis, label, branches in steps:
            node = self._step_child(node, axis, label, branches, orders)
            path.append(node)
        gates = tuple(self._intern(g, orders) for g in gate_nodes)
        for gate in gates:
            gate.refs += 1
        gate_key = tuple(gate.key for gate in gates)
        entry = _Entry(pattern, node, gate_key, gates, {destination})
        node.accepts[gate_key] = entry
        for spine_node in path:
            spine_node.refs += 1
        self._entries[pattern] = entry
        # Bottom-up, each node gains one part (the entry's gates, or its
        # path child's new requirement *part*), and a child's requirement
        # only narrows, so the AND of its parts narrows to ``below &
        # part`` — and ``own | (req & part)`` is exactly ``own | (below &
        # part)``.  A node this add created (one ref) has that part alone.
        part = entry.gate_mask
        for spine_node in reversed(path):
            own = spine_node.own_mask
            if spine_node.refs == 1:
                req = own | part
            else:
                req = own | (spine_node.req_mask & part)
            self._set_req(spine_node, req)
            part = req
        return entry

    def discard(self, pattern: TreePattern, destination: Destination) -> _Entry:
        """Retire *pattern*'s active registration for *destination*;
        returns the pattern's entry, dropped if that was its last."""
        entry = self._entries[pattern]
        entry.destinations.remove(destination)
        if not entry.destinations:
            self._drop_entry(entry)
        return entry

    def _drop_entry(self, entry: _Entry) -> None:
        """Unlink an entry left without destinations, and every spine
        node and interned constraint only it kept alive."""
        del self._entries[entry.pattern]
        del entry.node.accepts[entry.gate_key]
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
                parent.plan = None
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
    ) -> list[_Entry]:
        """Re-key *old* to *new* in the entries of *patterns* (the active
        patterns of that destination) and return those entries; trie
        shape is untouched."""
        entries = [self._entries[pattern] for pattern in patterns]
        for entry in entries:
            entry.destinations.remove(old)
            entry.destinations.add(new)
        return entries

    def clear(self) -> None:
        """Forget every entry and every shared node."""
        self._root = _SpineNode(_SELF, "", (), (), None, 0)
        self._entries.clear()
        self._interned.clear()
        self._spine_count = 0
        self._tag_bits.clear()

    # -- spine and constraints -----------------------------------------

    def _tag_bit(self, label: str) -> int:
        """The one-bit mask of a tag label (0 for ``*`` / ``//``),
        allocating the next bit to a tag seen for the first time."""
        if not is_tag(label):
            return 0
        bit = self._tag_bits.get(label)
        if bit is None:
            bit = self._tag_bits[label] = 1 << len(self._tag_bits)
        return bit

    def _step_child(
        self,
        parent: _SpineNode,
        axis: str,
        label: str,
        branches: tuple[PatternNode, ...],
        orders: dict[PatternNode, _Order],
    ) -> _SpineNode:
        branch_keys = tuple(branch.canonical_key for branch in branches)
        child_key = (axis, label, branch_keys)
        child = parent.children.get(child_key)
        if child is None:
            interned = tuple(self._intern(branch, orders) for branch in branches)
            for branch in interned:
                branch.refs += 1
            own: int = reduce(or_, map(_MASK, interned), self._tag_bit(label))
            child = _SpineNode(axis, label, interned, child_key, parent, own)
            parent.children[child_key] = child
            insort(parent.child_order, child, key=lambda n: n.order_key)
            parent.plan = None
            self._spine_count += 1
        return child

    @staticmethod
    def _req_of(node: _SpineNode) -> int:
        """The requirement mask *node* should carry right now: its own
        tags, plus the tags its every entry and child subtrie require."""
        below: int = reduce(
            and_,
            map(_REQ_MASK, node.child_order),
            reduce(and_, map(attrgetter("gate_mask"), node.accepts.values()), -1),
        )
        return node.own_mask | below if below != -1 else node.own_mask

    @staticmethod
    def _set_req(node: _SpineNode, req: int) -> bool:
        """Store *req* on *node*; a change drops the parent's plan, which
        caches its children's masks.  Returns whether it changed."""
        if req == node.req_mask:
            return False
        node.req_mask = req
        assert node.parent is not None
        node.parent.plan = None
        return True

    def _recompute_req(self, node: _SpineNode | None) -> None:
        """Re-derive ``req_mask`` from *node* upward, stopping at the
        first ancestor whose requirement is unchanged.  Only valid when
        every ancestor was consistent beforehand (discard path)."""
        while node is not None and node is not self._root:
            if not self._set_req(node, self._req_of(node)):
                return
            node = node.parent

    def _intern(
        self, pnode: PatternNode, orders: dict[PatternNode, _Order]
    ) -> _BranchNode:
        key = pnode.canonical_key
        node = self._interned.get(key)
        if node is not None:
            return node
        kids = sorted(pnode.children, key=orders.__getitem__)
        children = tuple(self._intern(kid, orders) for kid in kids)
        for child in children:
            child.refs += 1
        mask: int = reduce(or_, map(_MASK, children), self._tag_bit(pnode.label))
        node = _BranchNode(pnode.label, children, key, mask, self._next_node_id)
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
        batch = self.match_entries(trees)
        results = [
            TrieMatch(
                set().union(*map(_DESTINATIONS, accepted)),
                {entry.pattern for entry in accepted},
                operations,
            )
            for accepted, operations in zip(
                batch.accepted, batch.operations, strict=True
            )
        ]
        return BatchMatch(
            results, sum(batch.operations), batch.memo_hits, batch.memo_misses
        )

    def match_entries(self, trees: Iterable[XMLTree]) -> EntryBatch:
        """The matching kernel behind every entry point: per document,
        in order, its accepted entries and the operations attributed to
        it, and the pool's memo hits and misses.

        A document whose root skeleton key repeats within the batch
        reuses the first one's entries for zero operations.
        """
        if not self._entries:
            trees = list(trees)
            return EntryBatch([[] for _ in trees], [0] * len(trees), 0, 0)
        pool = _BatchMemo(max(1, self._next_node_id), self._tag_bits)
        accepted_lists: list[list[_Entry]] = []
        operations: list[int] = []
        for tree in trees:
            state = _MatchState(tree, pool)
            cached = pool.results.get(state.root_key)
            if cached is not None:
                pool.hits += 1
                accepted_lists.append(cached)
                operations.append(0)
                continue
            pool.misses += 1
            accepted: list[_Entry] = []
            self._walk(state, accepted)
            pool.results[state.root_key] = accepted
            accepted_lists.append(accepted)
            operations.append(state.ops)
        return EntryBatch(accepted_lists, operations, pool.hits, pool.misses)

    def _walk(self, state: _MatchState, accepted: list[_Entry]) -> None:
        """Traverse the spine for one document, appending every accepted
        entry to *accepted* and counting operations into *state*.

        An explicit stack of (spine node, anchors) visits replaces the
        recursion; the counts cannot depend on the visit order because
        every memo key is computed once (see the module docstring).
        """
        missing = state.missing
        seen = state.seen
        tree_children = state.tree.children
        children_by_label = state.index.children_by_label
        branch_sat = self._branch_sat
        gate_sat = self._gate_sat
        # Aliveness lookups and their misses, and the child steps'
        # candidate operations, settled once per walk.
        lookups = misses = ops = 0
        stack: list[tuple[_SpineNode, Sequence[int]]] = [(self._root, ())]
        while stack:
            parent, anchors = stack.pop()
            plan = parent.plan
            if plan is None:
                plan = parent.plan = _plan_of(parent)
            groups, child_masks, width = plan
            # Every child's requirement is looked up once per visit; the
            # ones this tag set has not met yet in the pool are misses,
            # one operation each.
            lookups += width
            before = len(seen)
            seen |= child_masks
            misses += len(seen) - before
            # The descendant scope of these anchors, shared by every
            # descendant group of this visit.
            scope: set[int] | None = None
            for axis, label, shared, members, uniform in groups:
                # One AND kills a group whose shared tags are missing.
                if shared & missing:
                    continue
                live = (
                    members
                    if uniform
                    else [m for m in members if not m.req_mask & missing]
                )
                if not live:
                    continue
                candidates: Sequence[int]
                if axis == _CHILD:
                    # One op per anchor looked up, one per candidate
                    # surfaced — the (label, parent) index is shared by
                    # the whole table.
                    if label == WILDCARD:
                        candidates = [
                            kid for anchor in anchors for kid in tree_children[anchor]
                        ]
                    else:
                        by_parent = children_by_label.get(label)
                        candidates = (
                            [
                                kid
                                for anchor in anchors
                                for kid in by_parent.get(anchor, ())
                            ]
                            if by_parent is not None
                            else []
                        )
                    ops += len(anchors) + len(candidates)
                elif axis == _DESCENDANT:
                    if scope is None:
                        scope = state.index.scope(anchors)
                    candidates = self._descendants(label, scope, state)
                else:
                    candidates = self._root_candidates(axis, label, state)
                if not candidates:
                    continue
                for member in live:
                    member_anchors: Sequence[int] = candidates
                    branches = member.branches
                    if branches:
                        kept: list[int] = []
                        for anchor in candidates:
                            for branch in branches:
                                if not branch_sat(branch, anchor, state):
                                    break
                            else:
                                kept.append(anchor)
                        if not kept:
                            continue
                        member_anchors = kept
                    for entry in member.accepts.values():
                        for gate in entry.gates:
                            if not gate_sat(gate, state):
                                break
                        else:
                            accepted.append(entry)
                    if member.child_order:
                        stack.append((member, member_anchors))
        pool = state.pool
        pool.hits += lookups - misses
        pool.misses += misses
        state.ops += misses + ops

    @staticmethod
    def _root_candidates(
        axis: str, label: str, state: _MatchState
    ) -> Sequence[int]:
        """Document nodes a top-level (_SELF or _ANYWHERE) step can
        anchor at, one op per node examined."""
        tree = state.tree
        if axis == _SELF:
            state.ops += 1
            root = tree.root
            if label != WILDCARD and tree.labels[root] != label:
                return ()
            return (root,)
        if label == WILDCARD:
            candidates: Sequence[int] = range(len(tree.labels))
        else:
            candidates = state.index.positions.get(label, ())
        state.ops += len(candidates)
        return candidates

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
        subtree in the batch.  A ``//`` constraint descends the document
        in :meth:`_descend`, without one Python frame per level."""
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
        label = node.label
        if label == DESCENDANT:
            return self._descend(node, t, key, state)
        kids = node.children
        tree = state.tree
        doc_labels = tree.labels
        wildcard = label == WILDCARD
        result = False
        for kid in tree.children[t]:
            if wildcard or doc_labels[kid] == label:
                for ku in kids:
                    if not self._branch_sat(ku, kid, state):
                        break
                else:
                    result = True
                    break
        memo[key] = result
        return result

    def _descend(
        self, node: _BranchNode, t: int, key: int, state: _MatchState
    ) -> bool:
        """A ``//`` constraint at *t*, whose memo miss *key* is counted:
        its child holds at *t*, or the constraint holds at some child of
        *t* — the recursion ``sat(//, t) = sat(ku, t) or any(sat(//, kid))``
        walked with an explicit stack of (position key, children left).

        It looks up the same memo keys in the same order as the
        recursion, stops at the first satisfied child and counts the
        same hits, misses and operations (a fresh position costs the
        recursion's aliveness hit, memo miss and operation).  Placeholder
        False entries keep it cycle-safe under key sharing, because a
        strict document descendant has a strictly smaller dedup-canonical
        height than its ancestor, so the two never share a skeleton key.
        """
        pool = state.pool
        memo = pool.memo
        stride = pool.stride
        skel = state.skel
        children = state.tree.children
        node_id = node.node_id
        kids = node.children
        frames: list[tuple[int, Iterator[int]]] = []
        position = t
        while True:
            memo[key] = False  # cycle-safe placeholder
            for ku in kids:
                if not self._branch_sat(ku, position, state):
                    break
            else:
                # Satisfied here, and so is every frame waiting on it.
                memo[key] = True
                for waiting, _ in reversed(frames):
                    memo[waiting] = True
                return True
            frames.append((key, iter(children[position])))
            # Find the next position to enter, closing exhausted frames
            # (their placeholder False is their result).
            while frames:
                for kid in frames[-1][1]:
                    kid_key = skel[kid] * stride + node_id
                    cached = memo.get(kid_key)
                    # A memo hit, or the aliveness hit of a fresh position.
                    pool.hits += 1
                    if cached is None:
                        pool.misses += 1
                        state.ops += 1
                        position, key = kid, kid_key
                        break
                    if cached:
                        for waiting, _ in reversed(frames):
                            memo[waiting] = True
                        return True
                else:
                    frames.pop()
                    continue
                break
            else:
                return False

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
        result = False
        if label == DESCENDANT:
            target = gate.children[0]
            positions: Sequence[int]
            if target.label == WILDCARD:
                positions = range(len(tree.labels))
            else:
                positions = state.index.positions.get(target.label, ())
            for position in positions:
                state.ops += 1
                for ku in target.children:
                    if not self._branch_sat(ku, position, state):
                        break
                else:
                    result = True
                    break
        else:
            root = tree.root
            if label == WILDCARD or tree.labels[root] == label:
                result = True
                for ku in gate.children:
                    if not self._branch_sat(ku, root, state):
                        result = False
                        break
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
        AssertionError on any inconsistency (test support).

        Every mask — spine ``own_mask`` / ``req_mask``, constraint and
        gate masks, each cached plan's group ANDs and child-mask set —
        is recomputed from the patterns alone and compared.
        """
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
            for key, child in node.children.items():
                assert child.child_key == key and child.parent is node
                stack.append(child)
        assert len(reachable) == self._spine_count, "spine count drifted"

        spine_refs: dict[_SpineNode, int] = {}
        entries_seen: dict[TreePattern, _Entry] = {}
        for node in reachable + [self._root]:
            for gate_key, entry in node.accepts.items():
                assert entry.node is node and entry.gate_key == gate_key
                assert entry.destinations, "entry with no destinations"
                assert entry.pattern not in entries_seen
                entries_seen[entry.pattern] = entry
                walk: _SpineNode | None = node
                while walk is not None and walk is not self._root:
                    spine_refs[walk] = spine_refs.get(walk, 0) + 1
                    walk = walk.parent
        assert entries_seen == self._entries, "entry index out of sync"
        for node in reachable:
            assert node.refs == spine_refs.get(node, 0), "spine refcount drifted"
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

        # Tag masks, recomputed from each entry's pattern: the spine
        # steps' own tags, every constraint and gate subtree's tags.
        bits = self._tag_bits
        assert sorted(bits.values()) == [1 << i for i in range(len(bits))], (
            "tag bits are not distinct one-bit masks"
        )

        def mask_of(tags: frozenset[str]) -> int:
            assert tags <= bits.keys(), "tag without a bit"
            return sum(bits[tag] for tag in tags)

        def audit_constraint(
            top: _BranchNode,
            pnode: PatternNode,
            orders: dict[PatternNode, _Order],
        ) -> frozenset[str]:
            pairs = [(top, pnode)]
            while pairs:
                interned, subtree = pairs.pop()
                assert interned.key == subtree.canonical_key
                assert interned.mask == mask_of(subtree.tags()), (
                    "constraint mask drifted"
                )
                kids = sorted(subtree.children, key=orders.__getitem__)
                assert len(kids) == len(interned.children)
                pairs.extend(zip(interned.children, kids, strict=True))
            return pnode.tags()

        own_tags: dict[_SpineNode, frozenset[str]] = {}
        gate_tags: dict[TreePattern, frozenset[str]] = {}
        for entry in self._entries.values():
            orders = _subtree_orders(entry.pattern)
            steps, gate_nodes = _decompose(entry.pattern, orders)
            path: list[_SpineNode] = []
            walk = entry.node
            while walk is not None and walk is not self._root:
                path.append(walk)
                walk = walk.parent
            path.reverse()
            assert len(path) == len(steps), "spine path drifted"
            for spine_node, (axis, label, branches) in zip(path, steps, strict=True):
                assert (spine_node.axis, spine_node.label) == (axis, label)
                assert len(spine_node.branches) == len(branches)
                own = frozenset([label]) if is_tag(label) else frozenset()
                for interned, branch in zip(
                    spine_node.branches, branches, strict=True
                ):
                    own |= audit_constraint(interned, branch, orders)
                assert spine_node.own_mask == mask_of(own), "own_mask drifted"
                own_tags[spine_node] = own
            assert len(entry.gates) == len(gate_nodes)
            tags: frozenset[str] = frozenset()
            for gate, gate_node in zip(entry.gates, gate_nodes, strict=True):
                tags |= audit_constraint(gate, gate_node, orders)
            assert entry.gate_mask == mask_of(tags), "gate_mask drifted"
            gate_tags[entry.pattern] = tags

        # Requirements bottom-up from those tag sets; once every
        # ``req_mask`` is audited, a cached plan (group ANDs, child-mask
        # set) is current iff a rebuild from them equals it.
        required: dict[_SpineNode, frozenset[str]] = {}
        for node in reversed(reachable):
            parts = [gate_tags[entry.pattern] for entry in node.accepts.values()]
            parts.extend(required[child] for child in node.child_order)
            below = frozenset.intersection(*parts) if parts else frozenset()
            required[node] = own_tags[node] | below
            assert node.req_mask == mask_of(required[node]), "req_mask drifted"
        for node in reachable + [self._root]:
            assert node.plan is None or node.plan == _plan_of(node), (
                "cached plan stale"
            )

    def __repr__(self) -> str:
        return (
            f"PatternTrie(patterns={len(self._entries)}, "
            f"nodes={self._spine_count}, interned={len(self._interned)})"
        )
