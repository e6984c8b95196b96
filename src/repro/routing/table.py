"""Broker routing tables with containment-based covering.

A content-based router keeps, per destination (a neighbouring broker or a
local delivery group), the set of tree patterns whose matching documents
must be sent there.  The table applies the classic *covering* optimisation
using :mod:`repro.core.containment`:

* an inserted pattern already contained in an existing same-destination
  entry is dropped — any document it matches is routed there anyway;
* conversely, existing same-destination entries contained in the new
  pattern are evicted, so the table keeps only the maximal patterns;
* of two distinct but equivalent patterns (each contains the other) the
  one whose canonical key sorts first keeps the active slot, whichever
  arrived first — so the active set does not depend on insertion order,
  and an overlay updated by churn holds the same entries as one rebuilt
  from scratch.

Because the homomorphism containment test is sound but not complete, a
missed covering relation only costs table space, never correctness.

Covering is *reversible*: every advertisement a covering entry absorbed
(a dropped insert or an evicted entry) is remembered in that entry's
*cover record*, so :meth:`RoutingTable.remove_pattern` can retire one
advertisement instance at a time — removing a duplicate silently, and
resurrecting the absorbed advertisements when the last covering
instance leaves.  The restored entries are returned to the caller,
which is exactly what a broker's unadvertise protocol needs to
re-announce them downstream.

Retiring an absorbed instance costs O(1) in the number of instances a
destination holds: each cover record keeps its instances under numbers
that are never reused, so one leaves without disturbing the others'
order, and carries a *retirement index* from pattern hash to instance
numbers, so the instance to retire is looked up, not scanned for with
pattern equality.  A record's index is built by the first retirement
that looks in it, one hash per instance, rather than while a deployment
advertises; covered inserts keep it current, and being part of the
record it moves with a rename and leaves when the cover leaves or is
evicted.  A duplicate of an active entry is looked up in that entry's
record alone; any other instance is looked up in each cover's record in
turn, one lookup per cover.  Retiring an *active* entry still costs
what re-admitting its absorbed instances costs.

The same instance bookkeeping powers *topology surgery*: when the broker
tree itself changes, :meth:`RoutingTable.rename_destination` re-keys a
link's state to its new next hop, :meth:`RoutingTable.export_destination`
hands the full instance multiset (with flood flags) to a merge target,
and :meth:`RoutingTable.seed` re-installs instances whose downstream
state already exists — so broker join/leave never re-floods what the
overlay already knows (see ``BrokerOverlay.add_broker`` /
``remove_broker``).

Matching goes through a merged :class:`~repro.routing.trie.PatternTrie`
by default: all active entries share one structure, one traversal returns
every matching destination, and the *trie operations* spent (anchor tests
plus shared-subtree satisfactions computed — see :mod:`repro.routing.trie`)
are the filtering-cost unit reported by the overlay layer.  The
per-pattern fallback (``matching="linear"``) evaluates entries destination
by destination, short-circuiting within a destination on the first hit,
and counts one match operation per pattern-vs-document evaluation; it is
retained as the oracle the trie is pinned against.  The trie is maintained
incrementally at every admission, eviction, restoration and surgery step —
never rebuilt from scratch.

A trie match is its accepted entries, and each document's match is the
broker step, set when the match is made: a :class:`TableMatch` holds
the member collections of every matched deliver group, not yet united,
the links of the matched ``(FORWARD, link)`` destinations in table
order and the operations spent.  One call matches one document or a
batch (:class:`TableBatchMatch`, one step per document), through one
body per matching mode, a single document being a batch of one.  The
overlay's ``process_at`` / ``process_batch_at`` return these steps as
they are, and its ``route`` and the delivery engine apply them.  The
table
keeps, in each trie entry's ``members`` slot, the member ids of the
entry's active ``(DELIVER, members)`` destinations — the one
destination's own member tuple, or, once a second arrives, each
member's count of the destinations naming it — and updates them beside
the trie wherever an entry gains or loses a deliver destination.  A
step may hold the collection it read, so an update never mutates one:
the entry gets an updated copy of its count dict, at a cost that
follows the entry's member count.  A trie match keeps its accepted
entries' members, and tests each of the table's few forward
destinations against the accepted entries' destination sets; the
linear scan keeps the member tuples of the deliver destinations it
found and the forward ones' links.  Both modes build the same result,
at a cost that follows what matched and the broker's links rather than
how many deliver destinations the table holds.  Whoever reads a match
unites its members once: ``deliveries`` on first read, or a walk into
the delivered set it already keeps.  Excluded destinations take part
in neither half: when ``exclude`` names a deliver destination (an
overlay step never does), the matched deliver destinations other than
it give their member tuples, as the linear scan's do.

Table order is the key order of the per-destination entry lists:
first-advertised first, and a renamed destination goes last.  The
linear scan walks that order; the trie gives none, so each destination
is given the next position when its list is created, and the
table-order ``destinations`` list of a trie match is decoded on first
read by sorting the matched destinations by position, at a cost that
follows what matched.  That decode reads the table as it is, so every
activation, deactivation, rename and ``clear`` moves the table's
change counter, and decoding a match after it moved raises
:class:`ValueError` instead of naming the wrong destinations.  The
step halves were set when the match was made and stay valid.

The destination encoding of an overlay broker lives here, as its only
definition: ``(FORWARD, neighbour broker id)`` sends a copy over a link
and ``(DELIVER, member subscriber ids)`` delivers to a local group.
Any other hashable is a valid destination too; it simply takes no part
in a broker step.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from itertools import count, repeat
from operator import attrgetter
from operator import contains as _holds
from typing import (
    Any,
    Callable,
    Collection,
    Hashable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
)

from repro.core.containment import contains
from repro.core.pattern import TreePattern
from repro.routing.trie import PatternTrie, _Entry
from repro.xmltree.matcher import CompiledPattern, PatternMatcher
from repro.xmltree.tree import XMLTree

__all__ = [
    "DELIVER",
    "FORWARD",
    "TableEntry",
    "RoutingTable",
    "TableMatch",
    "TableBatchMatch",
]

Destination = Hashable

#: Destination kind of a link: ``(FORWARD, neighbour broker id)``.
FORWARD = "forward"
#: Destination kind of a local group: ``(DELIVER, member subscriber ids)``.
DELIVER = "deliver"

_MEMBERS = attrgetter("members")
_DESTINATIONS = attrgetter("destinations")

#: A match's table-order destination list, decoded when first called.
_Decode = Callable[[], list[Destination]]

#: A broker step's deliveries before they are united: the member
#: collections of what it matched — deliver groups' member tuples, or
#: trie entries' member -> count dicts, which are never mutated once
#: made (see :func:`_add_members`).
Members = tuple[Collection[int], ...]


def _parts(destination: Destination) -> tuple[Any, Any]:
    """A ``(kind, payload)`` destination's two parts; ``(None, None)``
    for any other destination."""
    if isinstance(destination, tuple) and len(destination) == 2:
        return destination[0], destination[1]
    return None, None


def _group(destination: Destination) -> Optional[tuple[int, ...]]:
    """The member ids of a ``(DELIVER, members)`` destination; None for
    any other destination."""
    if (
        isinstance(destination, tuple)
        and len(destination) == 2
        and destination[0] == DELIVER
    ):
        return tuple(destination[1])
    return None


def _groups(destinations: Iterable[Destination]) -> Members:
    """The member tuples of the deliver destinations among
    *destinations*."""
    return tuple(filter(None, map(_group, destinations)))


def _matched(
    accepted: list[_Entry], skip: tuple[Destination, ...]
) -> set[Destination]:
    """The destinations the *accepted* trie entries hold, less *skip*'s."""
    return set().union(*map(_DESTINATIONS, accepted)).difference(skip)


def _add_members(entry: _Entry, group: tuple[int, ...]) -> None:
    """Count the ids of *group*, a deliver destination *entry* just
    gained, into *entry*'s members: the group's own tuple while it is
    the entry's only one, else member -> number of the entry's deliver
    destinations naming it.

    A step made earlier may hold the members it read, so they are never
    mutated: the entry gets an updated copy, O(k) for k members."""
    held = entry.members
    if held is None:
        entry.members = group
        return
    if isinstance(held, tuple):
        counts: dict[int, int] = {}
        for member in held:
            counts[member] = counts.get(member, 0) + 1
    else:
        counts = held.copy()
    for member in group:
        counts[member] = counts.get(member, 0) + 1
    entry.members = counts


def _remove_members(entry: _Entry, group: tuple[int, ...]) -> None:
    """Count the ids of *group*, a deliver destination *entry* just
    lost, out of *entry*'s members (None once none is left), into an
    updated copy, as :func:`_add_members` does."""
    held = entry.members
    if isinstance(held, tuple):
        # Held as a tuple, *group* was the entry's one destination.
        entry.members = None
        return
    counts: dict[int, int] = held.copy()
    for member in group:
        left = counts[member] - 1
        if left:
            counts[member] = left
        else:
            del counts[member]
    entry.members = counts or None


@dataclass(frozen=True)
class TableEntry:
    """One routing-table row: forward documents matching *pattern* to
    *destination*."""

    pattern: TreePattern
    destination: Destination


class TableMatch:
    """One document's match against a table: the broker step, set when
    the match is made.

    ``members`` holds the member collections of what matched (see
    :data:`Members`), whose union ``deliveries`` — the member ids of
    every matched ``(DELIVER, members)`` destination — is built on first
    read; ``forwards`` the links of the matched ``(FORWARD, link)``
    destinations in table order; ``operations`` the filtering work spent
    deciding (trie operations, or pattern-vs-document evaluations in
    linear mode), the input of a service-time model.  Excluded
    destinations take part in neither.  The collections are never
    mutated, so both halves stay as the match made them across later
    routing-state changes.  The table-order ``destinations`` list of a
    trie match is decoded on first read, and only while the table is
    unchanged since the match: after a change a first read raises
    :class:`ValueError`.  A linear scan finds the list in table order
    when it matches, so it has nothing left to decode.
    """

    __slots__ = (
        "members",
        "forwards",
        "operations",
        "_decode",
        "_deliveries",
        "_destinations",
    )

    def __init__(
        self,
        members: Members,
        forwards: tuple[int, ...],
        operations: int,
        decode: _Decode,
    ) -> None:
        self.members = members
        self.forwards = forwards
        self.operations = operations
        self._decode = decode
        self._deliveries: Optional[frozenset[int]] = None
        self._destinations: Optional[list[Destination]] = None

    @property
    def deliveries(self) -> frozenset[int]:
        """The matched member ids, united on first read."""
        if self._deliveries is None:
            self._deliveries = frozenset().union(*self.members)
        return self._deliveries

    @property
    def destinations(self) -> list[Destination]:
        """The matched destinations in table order, decoded on first
        read."""
        if self._destinations is None:
            self._destinations = self._decode()
        return self._destinations


@dataclass(frozen=True)
class TableBatchMatch:
    """Outcome of one :meth:`RoutingTable.destinations_for_batch` call.

    ``steps`` holds one :class:`TableMatch` per input document, in
    order, each with the operations attributed to it.  ``memo_hits`` /
    ``memo_misses`` report the shared trie pool's amortisation (both
    zero in linear mode, which has no cross-document sharing).
    """

    steps: list[TableMatch]
    memo_hits: int = 0
    memo_misses: int = 0

    @property
    def total_operations(self) -> int:
        """Match operations summed over all documents."""
        return sum(step.operations for step in self.steps)

    @property
    def hit_rate(self) -> float:
        """Fraction of trie-pool lookups answered without recomputation."""
        lookups = self.memo_hits + self.memo_misses
        return self.memo_hits / lookups if lookups else 0.0


def _checked_mode(matching: str) -> str:
    """*matching*, once it names a matching mode: ``"trie"`` or
    ``"linear"``."""
    if matching not in ("trie", "linear"):
        raise ValueError(f"unknown matching mode: {matching!r}")
    return matching


def _supersedes(pattern: TreePattern, existing: TreePattern) -> bool:
    """Whether *pattern* takes the active slot of an *existing* entry
    that contains it: *pattern* sorts strictly first (so the two are
    distinct) and contains *existing* too."""
    return pattern.sorts_before(existing) and contains(pattern, existing)


class _CoverRecord(dict[int, tuple[TreePattern, bool]]):
    """The advertisement instances one active entry absorbed, in
    absorption order, as ``instance number -> (pattern, resume_flood)``.

    ``index`` is the record's retirement index: each absorbed pattern's
    hash -> the numbers of its instances, in record order.  Keyed by
    hash, so building it compares no patterns; a lookup compares only
    the instances it picks.  None until the first retirement that looks
    in the record builds it; covered inserts keep it current after that.
    """

    index: Optional[dict[int, list[int]]] = None


class RoutingTable:
    """Covering-aware pattern → destination table of one broker.

    ``matching`` selects the filtering engine: ``"trie"`` (the default)
    routes through the incrementally maintained merged
    :class:`~repro.routing.trie.PatternTrie`, ``"linear"`` through the
    per-pattern scan.  Both are always kept consistent, so either can be
    queried per call via ``destinations_for(..., matching=...)`` — the
    linear scan is the oracle the trie is property-tested against.
    """

    def __init__(self, matching: str = "trie") -> None:
        self.matching = _checked_mode(matching)
        self._by_destination: dict[Destination, list[TreePattern]] = {}
        #: Per destination: active entry -> its :class:`_CoverRecord`, the
        #: advertisement instances it absorbed (duplicates kept; a number
        #: is never reused in this table, so one instance leaves in O(1)
        #: and the rest keep their order) with their retirement index.
        #: ``resume_flood`` is decided once, when the instance is first
        #: absorbed: True for a covered *insert* (its flood died in this
        #: table, so downstream brokers never heard of it and a later
        #: restoration must re-advertise it), False for an *evicted*
        #: active entry (its flood had already passed through, so
        #: downstream state exists and restoring it is purely local).  The
        #: flag and the number travel with the instance through any number
        #: of re-absorptions.
        self._absorbed: dict[Destination, dict[TreePattern, _CoverRecord]] = {}
        self._numbers = count()
        self._matchers: dict[TreePattern, PatternMatcher] = {}
        #: The merged matching structure over every *active* entry.  It
        #: holds a pattern exactly while some destination holds it active.
        self._trie = PatternTrie()
        #: Each destination holding entries -> its table position, which
        #: ascends in table order (see the module docstring).
        self._positions: dict[Destination, int] = {}
        self._next_position = count()
        #: Each ``(FORWARD, link)`` destination holding entries -> its
        #: link, in table order.
        self._links: dict[Destination, int] = {}
        #: Moved by every change to the active entries; a match decodes
        #: its destinations only while it has not moved.
        self._version = 0

    # ------------------------------------------------------------------
    # active-set bookkeeping
    # ------------------------------------------------------------------
    #
    # Every mutation of the active entry sets goes through this pair, so
    # neither the merged trie nor the entries' deliver members can drift
    # from ``_by_destination``; and every new or dropped entry list goes
    # through ``_place`` / ``_unplace``, so positions and links cannot.

    def _activate(self, pattern: TreePattern, destination: Destination) -> None:
        entry = self._trie.add(pattern, destination)
        group = _group(destination)
        if group:
            _add_members(entry, group)
        self._version += 1

    def _deactivate(
        self, pattern: TreePattern, destination: Destination
    ) -> None:
        entry = self._trie.discard(pattern, destination)
        group = _group(destination)
        if group:
            _remove_members(entry, group)
        self._version += 1
        self._prune_matcher(pattern)

    def _place(self, destination: Destination) -> None:
        """Put *destination*, whose entry list was just created, last in
        table order."""
        self._positions[destination] = next(self._next_position)
        kind, link = _parts(destination)
        if kind == FORWARD:
            self._links[destination] = link

    def _unplace(self, destination: Destination) -> None:
        """Forget the position (and link) of a dropped entry list."""
        self._positions.pop(destination, None)
        self._links.pop(destination, None)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def add(self, pattern: TreePattern, destination: Destination) -> bool:
        """Insert an advertisement; returns False when covering dropped it.

        Covering is evaluated per destination only: two destinations never
        absorb each other's entries, because a document must reach every
        interested next hop independently.  Absorbed advertisements (the
        dropped insert, or the evicted entries together with everything
        *they* had absorbed) are remembered under the covering entry for
        :meth:`remove_pattern` to resurrect.
        """
        return self._admit(pattern, destination, resume_flood=True)

    def _admit(
        self, pattern: TreePattern, destination: Destination, resume_flood: bool
    ) -> bool:
        """Insert one advertisement instance carrying its flood flag.

        ``resume_flood`` is the flag recorded if covering absorbs the
        instance: True for a fresh advertisement (public :meth:`add`),
        or the instance's original flag when a restoration re-admits it.
        """
        patterns = self._by_destination.get(destination)
        if patterns is None:
            patterns = self._by_destination[destination] = []
            self._place(destination)
        for existing in patterns:
            if contains(existing, pattern) and not _supersedes(pattern, existing):
                number = next(self._numbers)
                record = self._absorbed.setdefault(destination, {}).setdefault(
                    existing, _CoverRecord()
                )
                record[number] = (pattern, resume_flood)
                if record.index is not None:
                    # reprolint: disable=RL003 -- in-process index key; outcomes never depend on its value
                    record.index.setdefault(hash(pattern), []).append(number)
                return False
        survivors: list[TreePattern] = []
        evicted_active: list[TreePattern] = []
        absorbed_here = _CoverRecord()
        dest_absorbed = self._absorbed.get(destination, {})
        for existing in patterns:
            if contains(pattern, existing):
                evicted_active.append(existing)
                absorbed_here[next(self._numbers)] = (existing, False)
                absorbed_here.update(dest_absorbed.pop(existing, {}))
            else:
                survivors.append(existing)
        survivors.append(pattern)
        self._by_destination[destination] = survivors
        self._activate(pattern, destination)
        for evicted in evicted_active:
            self._deactivate(evicted, destination)
        if absorbed_here:
            # *pattern* was not active here, so it has no record yet; the
            # evicted covers' records, indexes included, are gone.
            self._absorbed.setdefault(destination, {})[pattern] = absorbed_here
        return True

    @staticmethod
    def _restore_order(
        candidates: list[tuple[TreePattern, bool]],
    ) -> list[tuple[TreePattern, bool]]:
        """Maximal-first re-admission order for absorbed instances.

        Inserting containers before containees guarantees a restoration
        never *evicts* a just-restored entry (which would scramble the
        flood flags); of two distinct equivalent patterns the one that
        sorts first is a container in this sense.  Among equal patterns
        the evicted-active instance (False) goes first so it, not a
        duplicate, claims the active slot.

        The strict-containment relation over the candidates is computed
        once — ``contains`` runs on each ordered pair of *distinct*
        patterns, at most k·(k−1) invocations — and the order is emitted
        topologically (lowest surviving position first, so ties resolve
        exactly as the rescan the relation replaces did).  A deep
        absorbed chain therefore restores in O(k²) position work instead
        of O(k³) containment tests.
        """
        stable = sorted(candidates, key=lambda item: item[1])
        total = len(stable)
        if total <= 1:
            return stable
        distinct: list[TreePattern] = []
        index_of: dict[TreePattern, int] = {}
        slots: list[int] = []
        for pattern, _ in stable:
            slot = index_of.get(pattern)
            if slot is None:
                slot = len(distinct)
                index_of[pattern] = slot
                distinct.append(pattern)
            slots.append(slot)
        width = len(distinct)
        held = [
            [a != b and contains(distinct[a], distinct[b]) for b in range(width)]
            for a in range(width)
        ]
        # a goes before b: a strictly contains b, or the two are distinct
        # equivalents and a sorts first (the one that keeps the active
        # slot).  Equal patterns never block; the relation is acyclic, so
        # a zero-indegree position always exists.
        strict = [
            [
                held[a][b]
                and (not held[b][a] or distinct[a].sorts_before(distinct[b]))
                for b in range(width)
            ]
            for a in range(width)
        ]
        indegree = [0] * total
        for position in range(total):
            row = slots[position]
            indegree[position] = sum(
                1
                for other in range(total)
                if other != position and strict[slots[other]][row]
            )
        ready = [
            position for position in range(total) if indegree[position] == 0
        ]
        heapq.heapify(ready)
        emitted = [False] * total
        ordered: list[tuple[TreePattern, bool]] = []
        while ready:
            position = heapq.heappop(ready)
            emitted[position] = True
            ordered.append(stable[position])
            container = slots[position]
            for other in range(total):
                if not emitted[other] and strict[container][slots[other]]:
                    indegree[other] -= 1
                    if indegree[other] == 0:
                        heapq.heappush(ready, other)
        if len(ordered) < total:  # unreachable unless ``contains`` cycles
            ordered.extend(
                item
                for position, item in enumerate(stable)
                if not emitted[position]
            )
        return ordered

    def _retire_instance(
        self,
        pattern: TreePattern,
        destination: Destination,
        cover: Optional[TreePattern],
    ) -> Optional[bool]:
        """Retire the first absorbed instance of *pattern* for
        *destination* and return its flood flag (None when there is
        none).

        "First" is the instance a scan of the destination's cover
        records, in record order, would meet first: under *cover* alone
        when one is given, else under the first cover holding one.  No
        record is scanned: each record's retirement index names the
        numbers of its instances whose pattern hashes like *pattern*,
        and only those are compared with it.  Without *cover* that is
        one index lookup per cover, in record order.
        """
        dest_absorbed = self._absorbed.get(destination)
        if not dest_absorbed:
            return None
        if cover is None:
            holders: Iterable[tuple[TreePattern, _CoverRecord]] = (
                dest_absorbed.items()
            )
        else:
            own = dest_absorbed.get(cover)
            if own is None:
                return None
            holders = ((cover, own),)
        # Which instance is retired depends on record order and pattern
        # equality alone: a hash only narrows the candidates.
        # reprolint: disable=RL003 -- in-process index key; outcomes never depend on its value
        key = hash(pattern)
        for holder, record in holders:
            index = record.index
            if index is None:
                index = record.index = {}
                for number, (absorbed, _) in record.items():
                    # reprolint: disable=RL003 -- in-process index key; outcomes never depend on its value
                    index.setdefault(hash(absorbed), []).append(number)
            numbers = index.get(key)
            if numbers is None:
                continue
            for position, number in enumerate(numbers):
                instance = record[number]
                if instance[0] == pattern:
                    del numbers[position]
                    if not numbers:
                        del index[key]
                    del record[number]
                    if not record:
                        del dest_absorbed[holder]
                    return instance[1]
        return None

    def remove_pattern(
        self, pattern: TreePattern, destination: Destination
    ) -> tuple[bool, list[TreePattern]]:
        """Retire one advertisement instance of *pattern* for *destination*.

        Returns ``(removed, restored)``.  ``removed`` answers "had this
        advertisement instance propagated beyond this table?" — it is the
        caller's signal to keep walking an unadvertise outward:

        * ``(True, restored)`` — the *active* entry left the table (its
          absorbed advertisements were re-admitted, and ``restored`` lists
          those that became active *and* whose flood had died here, i.e.
          exactly the ones the caller must re-advertise onward), or an
          *evicted* instance was retired (its flood had passed through
          before the eviction, so the walk continues; nothing to restore).
        * ``(False, [])`` — a covered duplicate instance was discarded
          without touching the active set (its flood died here, nothing
          propagated), or no such advertisement is known.

        An absorbed instance is found through the covers' retirement
        indexes (see :meth:`_retire_instance`), so once they are built,
        retiring one costs O(1) in the number of absorbed instances (one
        lookup per cover when no active entry equals *pattern*); only
        removing an active entry re-admits what it had absorbed.
        """
        patterns = self._by_destination.get(destination)
        if not patterns:
            return False, []
        active = next((p for p in patterns if p == pattern), None)
        # A duplicate advertisement of an active entry dies first and the
        # active entry survives on the remaining instances.  Without an
        # active entry the instance was absorbed here: retiring a covered
        # insert is purely local (its flood died here), while retiring an
        # evicted active must keep the unadvertise walking, because its
        # flood passed through before the eviction.
        resume_flood = self._retire_instance(pattern, destination, active)
        if resume_flood is not None:
            return resume_flood is False, []
        if active is None:
            return False, []
        patterns.remove(active)
        resurrected = self._absorbed.get(destination, {}).pop(active, {})
        restored: list[TreePattern] = []
        for candidate, resume_flood in self._restore_order(
            list(resurrected.values())
        ):
            if self._admit(candidate, destination, resume_flood) and resume_flood:
                restored.append(candidate)
        self._deactivate(active, destination)
        if not self._by_destination.get(destination):
            self._by_destination.pop(destination, None)
            self._absorbed.pop(destination, None)
            self._unplace(destination)
        return True, restored

    def remove_destination(self, destination: Destination) -> list[TreePattern]:
        """Drop every entry routed to *destination*.

        Returns the removed *active* (maximal) patterns so callers can
        re-advertise them; absorbed duplicates they covered are discarded
        with them, since the active set already subsumes those.  All
        per-destination bookkeeping — the absorbed-instance records and
        the matcher cache entries of every pattern that only this
        destination kept alive — is retired with the entries, so a
        destination removed during topology surgery leaves no residue
        behind (``remove_broker`` relies on this when it drops the link
        to a retiring neighbour).
        """
        self._absorbed.pop(destination, None)
        self._unplace(destination)
        removed = list(self._by_destination.pop(destination, ()))
        for pattern in removed:
            self._deactivate(pattern, destination)
        return removed

    def rename_destination(
        self, old: Destination, new: Destination
    ) -> bool:
        """Re-key every entry (and its absorbed bookkeeping) of *old* to
        *new*.

        The topology-surgery primitive behind broker leave: when a
        retiring neighbour's subtree is re-homed, the link's routing
        state is still valid — only the next hop changed — so the whole
        per-destination record moves without touching covering state or
        spending advertisement traffic.  Returns False when *old* has no
        entries.  *new* must not already hold entries: merging two
        destinations would need covering re-evaluation, which is the
        caller's job (:meth:`seed` entry by entry).
        """
        if old not in self._by_destination:
            return False
        if new in self._by_destination:
            raise ValueError(
                f"cannot rename destination onto existing entries: {new!r}"
            )
        # The pop + reinsert moves the entries to the end of table order.
        self._by_destination[new] = self._by_destination.pop(old)
        if old in self._absorbed:
            self._absorbed[new] = self._absorbed.pop(old)
        self._unplace(old)
        self._place(new)
        entries = self._trie.rename_destination(
            old, new, self._by_destination[new]
        )
        left, joined = _group(old), _group(new)
        for entry in entries:
            if left:
                _remove_members(entry, left)
            if joined:
                _add_members(entry, joined)
        self._version += 1
        return True

    def seed(
        self,
        pattern: TreePattern,
        destination: Destination,
        resume_flood: bool = False,
    ) -> bool:
        """Install one advertisement instance without fresh-flood semantics.

        Topology surgery re-creates routing state that *already exists*
        downstream (a grafted broker inherits its parent's forwarded
        advertisements; a merge target inherits a retiring neighbour's
        link state).  Unlike :meth:`add`, an instance absorbed here
        records ``resume_flood`` as given — False (the default) marks
        "downstream brokers already hold this advertisement", so a later
        resurrection stays local instead of re-flooding duplicates.
        Returns False when covering absorbed the instance.
        """
        return self._admit(pattern, destination, resume_flood=resume_flood)

    def export_destination(
        self, destination: Destination
    ) -> list[tuple[TreePattern, bool]]:
        """The full advertisement-instance multiset of one destination.

        Replay-ordered for transplanting into another table with
        :meth:`seed`: active entries first (mutually non-covering, each
        tagged ``resume_flood=False`` — an active instance has always
        been propagated onward, whether at admission or by the
        resurrection protocol), then every absorbed instance with its
        recorded flood flag.  Re-seeding the list in order reproduces
        the same active set and the same per-instance flags, which is
        what ``remove_broker`` needs to move a retiring broker's link
        state to the merge target without losing reversible-covering
        knowledge.
        """
        exported: list[tuple[TreePattern, bool]] = [
            (pattern, False)
            for pattern in self._by_destination.get(destination, ())
        ]
        for instances in self._absorbed.get(destination, {}).values():
            exported.extend(instances.values())
        return exported

    def covers(self, pattern: TreePattern, destination: Destination) -> bool:
        """Whether an active entry for *destination* contains *pattern*.

        The pre-insertion probe topology surgery uses to decide an
        instance's flood flag before :meth:`seed` records it: covering
        is evaluated exactly like :meth:`add` would.
        """
        return any(
            contains(existing, pattern) and not _supersedes(pattern, existing)
            for existing in self._by_destination.get(destination, ())
        )

    def forwarded_instances(
        self, exclude: Iterable[Destination] = ()
    ) -> list[TreePattern]:
        """Every advertisement instance this table has propagated onward.

        Per destination (minus *exclude*): the active entries plus the
        absorbed instances whose flood had already passed through before
        covering absorbed them (``resume_flood`` False) — exactly the
        advertisements any neighbour of this broker has been told about.
        Covered inserts whose flood died in this table are *not*
        included.  Deliver destinations contribute the broker's own
        advertised patterns, so the result is the seed set a newly
        grafted neighbour must be handed to route like the rest of the
        overlay.
        """
        skip = set(exclude)
        forwarded: list[TreePattern] = []
        for destination, patterns in self._by_destination.items():
            if destination in skip:
                continue
            forwarded.extend(patterns)
            for instances in self._absorbed.get(destination, {}).values():
                forwarded.extend(
                    pattern
                    for pattern, resume_flood in instances.values()
                    if not resume_flood
                )
        return forwarded

    def _prune_matcher(self, pattern: TreePattern) -> None:
        """Drop the compiled matcher of a pattern with no active entry left.

        Matchers are a pure cache keyed by pattern; without this, a
        long-running churn workload would accumulate one compiled matcher
        per pattern ever routed.  The trie holds a pattern exactly while
        some destination holds it active, so the liveness probe is one
        lookup — no scan over the destination lists.  A resurrected
        pattern simply recompiles.
        """
        if pattern not in self._trie:
            self._matchers.pop(pattern, None)

    def clear(self) -> None:
        """Drop all entries and their bookkeeping."""
        self._by_destination.clear()
        self._absorbed.clear()
        self._matchers.clear()
        self._trie.clear()
        self._positions.clear()
        self._links.clear()
        self._version += 1

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------

    def _trie_step(
        self, accepted: list[_Entry], operations: int, exclude: Iterable[Destination]
    ) -> TableMatch:
        """The broker step of a trie match that accepted *accepted* and
        spent *operations*.

        The members its accepted entries hold — or, when *exclude* names
        a deliver destination, the member tuples of the matched deliver
        destinations other than *exclude*'s, as the linear scan keeps
        the ones it finds — and the link of each forward destination not
        excluded that some accepted entry holds, in table order.
        """
        skip = tuple(exclude)
        forwards = tuple(
            [
                link
                for destination, link in self._links.items()
                if destination not in skip
                and any(
                    map(_holds, map(_DESTINATIONS, accepted), repeat(destination))
                )
            ]
        )
        if any(map(_group, skip)):
            members = _groups(_matched(accepted, skip))
        else:
            members = tuple(filter(None, map(_MEMBERS, accepted)))
        decode = partial(self._decode, self._version, accepted, skip)
        return TableMatch(members, forwards, operations, decode)

    def _decode(
        self, version: int, accepted: list[_Entry], skip: tuple[Destination, ...]
    ) -> list[Destination]:
        """The destinations a trie match made at *version* names: those
        its *accepted* entries hold, less *skip*'s, in table order."""
        if version != self._version:
            raise ValueError(
                "stale match: the table changed after it was computed, so "
                "its destinations no longer decode"
            )
        return sorted(_matched(accepted, skip), key=self._positions.__getitem__)

    def _matcher(self, pattern: TreePattern) -> PatternMatcher:
        matcher = self._matchers.get(pattern)
        if matcher is None:
            matcher = PatternMatcher(CompiledPattern(pattern))
            self._matchers[pattern] = matcher
        return matcher

    def _trie_batch(
        self, documents: list[XMLTree], skips: list[Iterable[Destination]]
    ) -> TableBatchMatch:
        """Match *documents* through one merged-trie memo pool."""
        batch = self._trie.match_entries(documents)
        return TableBatchMatch(
            [
                self._trie_step(accepted, operations, skip)
                for accepted, operations, skip in zip(
                    batch.accepted, batch.operations, skips, strict=True
                )
            ],
            batch.memo_hits,
            batch.memo_misses,
        )

    def _linear_batch(
        self, documents: list[XMLTree], skips: list[Iterable[Destination]]
    ) -> TableBatchMatch:
        """Match *documents* one by one, destination by destination in
        table order, each destination decided by its first matching
        pattern."""
        links = self._links
        steps = []
        for document, exclude in zip(documents, skips, strict=True):
            skip = set(exclude)
            found = []
            operations = 0
            for destination, patterns in self._by_destination.items():
                if destination in skip:
                    continue
                for pattern in patterns:
                    operations += 1
                    if self._matcher(pattern).matches(document):
                        found.append(destination)
                        break
            forwards = tuple([links[d] for d in found if d in links])
            steps.append(TableMatch(_groups(found), forwards, operations, found.copy))
        return TableBatchMatch(steps)

    def _match(
        self,
        documents: list[XMLTree],
        skips: list[Iterable[Destination]],
        matching: Optional[str],
    ) -> TableBatchMatch:
        """Match *documents*, each less its *skips* entry, in the table's
        mode or in *matching*."""
        mode = self.matching if matching is None else _checked_mode(matching)
        if mode == "trie":
            return self._trie_batch(documents, skips)
        return self._linear_batch(documents, skips)

    def destinations_for(
        self,
        document: XMLTree,
        exclude: Iterable[Destination] = (),
        matching: Optional[str] = None,
    ) -> TableMatch:
        """Destinations *document* must be sent to, plus the filtering
        operations spent deciding, as a :class:`TableMatch`: a batch of
        one (see :meth:`destinations_for_batch`).

        In trie mode (the default) one merged-trie traversal answers all
        destinations at once and the count is *trie operations*; in
        linear mode every pattern is evaluated per destination (first
        hit short-circuits) and the count is per-pattern match
        operations.  ``matching`` overrides the table's mode for this
        call — both structures are always maintained, which is how the
        property suite pins ``trie == per-pattern`` on the same table —
        and an unknown mode raises :class:`ValueError`, as the
        constructor does.

        The result is the broker step — the member ids the matched
        deliver destinations name and the matched forward links — which
        both modes build (linear mode from the destinations its scan
        finds, trie mode from the accepted entries), and its
        ``destinations`` list decodes in table order (first-advertised
        first).  Both orders are deterministic across runs — unlike a
        set of destinations, whose iteration order follows the
        per-process string hash seed.  The event engine relies on this
        to replay identical schedules under a fixed seed.

        ``exclude`` destinations are skipped entirely (a broker never
        forwards a document back over the link it arrived on).
        """
        return self._match([document], [exclude], matching).steps[0]

    def destinations_for_batch(
        self,
        documents: Sequence[XMLTree],
        excludes: Optional[Sequence[Iterable[Destination]]] = None,
        matching: Optional[str] = None,
    ) -> TableBatchMatch:
        """Destinations per document of a batch, filtered in one pass.

        In trie mode the whole batch shares one
        :meth:`~repro.routing.trie.PatternTrie.match_entries` memo pool, so
        constraint satisfactions, aliveness tests and whole-document
        outcomes repeated across the batch are paid once — the batch's
        total operations are always ≤ the sum of per-document
        :meth:`destinations_for` costs.  Linear mode evaluates document
        by document (the oracle has no cross-document sharing).  Both
        keep every per-document contract of :meth:`destinations_for`:
        table-order determinism and per-document ``excludes`` (one
        iterable per document — jobs drained from one queue may have
        arrived over different links).
        """
        documents = list(documents)
        if excludes is None:
            skips: list[Iterable[Destination]] = [()] * len(documents)
        else:
            skips = list(excludes)
            if len(skips) != len(documents):
                raise ValueError(
                    f"{len(documents)} documents but {len(skips)} excludes"
                )
        return self._match(documents, skips, matching)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(patterns) for patterns in self._by_destination.values())

    def __contains__(self, pattern: object) -> bool:
        """True when *pattern* is an active entry for any destination.

        Covered advertisements absorbed into a broader entry are not
        reported: they do not take part in matching.  The trie holds a
        pattern exactly while some destination holds it active.
        """
        return pattern in self._trie

    def __iter__(self) -> Iterator[TableEntry]:
        for destination, patterns in self._by_destination.items():
            for pattern in patterns:
                yield TableEntry(pattern=pattern, destination=destination)

    def destinations(self) -> list[Destination]:
        """All destinations with at least one entry."""
        return list(self._by_destination)

    def patterns_for(self, destination: Destination) -> list[TreePattern]:
        """The (maximal) patterns currently routed to *destination*."""
        return list(self._by_destination.get(destination, ()))

    def __repr__(self) -> str:
        return (
            f"RoutingTable(entries={len(self)}, "
            f"destinations={len(self._by_destination)})"
        )
