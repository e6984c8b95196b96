"""Multi-broker overlay routing (the paper's target deployment).

The scalability argument of Section 1 is about a *network* of brokers,
each holding a routing table whose size and filtering cost grow with the
subscription population.  This module builds that network (a one-broker
overlay measures filtering cost at a single node):

* :class:`BrokerNode` — one broker: neighbours, a covering-aware
  :class:`~repro.routing.table.RoutingTable`, and the subscriptions homed
  on it;
* :class:`BrokerOverlay` — a tree of brokers (chain, star or random tree)
  that propagates subscription advertisements hop-by-hop (pruned by
  containment covering), routes document streams end-to-end by
  reverse-path forwarding, and reports per-broker match operations, table
  sizes and delivery precision/recall.

The advertisement regime is a first-class
:class:`~repro.routing.policy.AdvertisementPolicy` object consumed by
:meth:`BrokerOverlay.advertise` — the paper's trade-off is the choice of
policy:

* :class:`~repro.routing.policy.PerSubscriptionPolicy` — every
  subscription is advertised through the overlay: exact delivery, maximal
  routing state (the baseline);
* :class:`~repro.routing.policy.CommunityPolicy` — each broker first
  clusters its local subscriptions into semantic communities with a live
  :class:`~repro.core.similarity.SimilarityIndex` and advertises one
  pattern per community: routing state shrinks to one entry per community,
  delivery quality is governed by community coherence — i.e. by the
  similarity metric;
* :class:`~repro.routing.policy.HybridPolicy` — per-subscription precision
  at lightly loaded brokers, aggregation where state actually accumulates.

Every policy is maintained **incrementally under churn** through the
subscription lifecycle: :meth:`BrokerOverlay.subscribe` returns a
:class:`SubscriptionId` and immediately advertises the arrival;
:meth:`BrokerOverlay.unsubscribe` retires it again with hop-by-hop
unadvertise propagation, resurrecting and re-advertising the entries its
advertisement had covered.
:meth:`BrokerOverlay.subscribe_many` /
:meth:`BrokerOverlay.unsubscribe_many` coalesce a churn burst into one
re-aggregation and one advertisement diff per touched broker, under
every policy, as does topology surgery; a broker's share of one member
is that member's single event.  The bulk path
(:meth:`BrokerOverlay.attach` followed by one :meth:`advertise` call)
and the event path converge to the same routing state.

**Churn cost.**  What one event costs at its home broker, by policy;
the last column names the ``tests/test_churn_cost.py`` case that pins
it by call counts at 300 and 3,000 subscribers per broker, and
``TestChurnCost`` in ``tests/test_churn_clustering_properties.py``
counts the ``leader_clustering`` calls of each event.  Away from
the home broker, each hop of a flood pays one covering test per active
entry of the link, and each hop of an unadvertise finds the instance it
retires through the table's retirement index.

=============  ============  =====================================  ==========================================================
event          policy        cost at the home broker                pinned by
=============  ============  =====================================  ==========================================================
subscribe,     per           the policy names the one               ``test_resubscribe_pair_cost_does_not_grow_with_the_broker``,
unsubscribe    subscription  ``(pattern, (member,))`` entry,        ``test_resubscribe_pair_updates_one_member_set_each_way``
                             installed or withdrawn without an
                             aggregation built or diffed, and one
                             trie entry's member counts gain or
                             lose the member in a copy of the
                             entry's count dict: O(1), but O(k)
                             for an entry k subscribers share
subscribe      community     one lookup in the broker's leader      ``test_community_pair_pays_for_its_community_only``,
                             index, then a first-fit placement      ``test_lsh_community_pair_asks_the_leader_index_once``
                             against the leaders it returns
                             (every leader, ungated), at most one
                             similarity lookup each; a joiner is
                             compared by selectivity with its
                             community's elected member, and that
                             community's aggregate alone is
                             rebuilt and replaced
unsubscribe,   community     no similarity lookup; its community,   ``test_community_pair_pays_for_its_community_only``,
non-leader                   found by a lookup in the broker's      ``test_retiring_the_elected_member_reelects_its_community_alone``
                             clustering record, is elected again
                             only if it was the elected member,
                             and its aggregate alone is rebuilt
                             and replaced
unsubscribe,   community     a local repair: the leader leaves      ``test_leader_departure_pays_for_the_members_it_moves``
leader                       the leader index, its followers are
                             placed again, one leader-index
                             lookup each, and a leader founded on
                             the way joins the index and tests
                             each later member with the gate's
                             ``is_candidate``; only communities
                             whose membership changed are elected
                             again, and only the aggregates of the
                             communities dissolved, founded or
                             changed are withdrawn or installed;
                             a community founded ahead of the last
                             one re-sorts the aggregation record
any single     hybrid        while the broker stays above the       ``test_hybrid_pair_above_the_cutoff_takes_the_community_rows``
event                        cutoff, the community rows; an event
                             at or under the cutoff, or across
                             it, builds and diffs the aggregation
                             in full, with one
                             ``leader_clustering`` of the broker
                             when it crosses above
burst,         every         one aggregation and one diff; under    ``test_a_burst_still_takes_the_full_path``
topology       policy        the community policy, one
surgery                      ``leader_clustering`` of the broker,
                             which fills its leader index once,
                             and an election of every community
burst of one   every         the row of its single event            ``test_a_burst_of_one_member_per_broker_is_a_single_event``
member per     policy
broker
=============  ============  =====================================  ==========================================================

None of the per-subscription and community rows builds or diffs an
aggregation of the broker.  The full path does: the policy aggregates
the broker's whole advertised record and the overlay diffs that against
the live aggregation, entry by entry under each leader, with no pattern
hashed.  It serves a hybrid broker at, under or across its cutoff, a
broker left stale by :meth:`BrokerOverlay.detach`, bursts and topology
surgery.

The *topology* is dynamic too: :meth:`BrokerOverlay.add_broker` grafts a
new broker (as a leaf, or splitting an existing edge) and seeds it with
exactly the advertisement state its neighbours have already forwarded —
nothing re-floods elsewhere — while :meth:`BrokerOverlay.remove_broker`
retires a broker by withdrawing its own advertisements, re-homing its
subscriptions and child subtrees onto a merge target, and transplanting
its per-link advertisement-instance records so reversible covering keeps
working across the splice.  The headline guarantee, property-tested in
``tests/test_topology_properties.py``: after any interleaving of
join/leave and subscription churn, under any policy, every routing table
equals a from-scratch rebuild of the final topology.

Routing is a walk of broker steps, and a broker's step is its table's
match (:class:`~repro.routing.table.TableMatch`), set when the match is
made: the table keeps each trie entry's deliver members, and the step
holds those of the entries the trie accepted, so a step costs what it
delivers, not the broker's count of deliver groups; each of the
broker's few ``(FORWARD, link)`` destinations is tested against the
accepted entries' destination sets, in table order.  The synchronous
:meth:`BrokerOverlay.route` walk and the delivery engine apply the same
steps, so they deliver to identical subscriber sets by construction and
differ only in *when* each step runs; both read ``members``,
``forwards`` and ``operations`` off the step and add the members
straight into the document's delivered set, so each delivery enters a
set once.  No list of destination tuples is built on the way.  The
destination encoding itself is defined in :mod:`repro.routing.table`.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping, Optional, Sequence, Union

from repro.core.pattern import TreePattern
from repro.core.similarity import SelectivityProvider, SimilarityIndex
from repro.routing.community import LeaderClusters
from repro.routing.policy import AdvertisementPolicy
from repro.routing.table import DELIVER, FORWARD, RoutingTable, TableMatch
from repro.xmltree.corpus import DocumentCorpus
from repro.xmltree.tree import XMLTree

__all__ = [
    "BrokerId",
    "BrokerNode",
    "BrokerOverlay",
    "OverlayStats",
    "SubscriptionId",
    "TOPOLOGIES",
]

TOPOLOGIES = ("chain", "star", "random_tree")


class BrokerId(int):
    """Handle returned by :meth:`BrokerOverlay.add_broker`.

    It *is* the broker id (an int), so neighbour lists, routing-table
    destinations and stats dictionaries keep working unchanged; the
    subclass merely marks values minted by the topology lifecycle.
    Broker ids are never reused across removals.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"BrokerId({int(self)})"


class SubscriptionId(int):
    """Handle returned by :meth:`BrokerOverlay.subscribe`.

    It *is* the global subscriber id (an int), so delivery sets, interest
    bookkeeping and deliver-destination payloads keep working unchanged;
    the subclass merely marks values that :meth:`BrokerOverlay.unsubscribe`
    accepts.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"SubscriptionId({int(self)})"


#: One aggregate: ``(advertised_pattern, member subscriber ids)``.
_Community = tuple[TreePattern, tuple[int, ...]]


@dataclass
class BrokerNode:
    """One broker of the overlay."""

    broker_id: int
    neighbors: list[int] = field(default_factory=list)
    table: RoutingTable = field(default_factory=RoutingTable)
    #: Global subscriber ids homed on this broker, in ascending order.
    local_subscribers: list[int] = field(default_factory=list)
    #: The subscriptions the live policy aggregates here: subscriber id
    #: -> pattern, in home order (ascending id).  Members that merely
    #: :meth:`BrokerOverlay.attach`\ -ed after the bulk advertisement
    #: stay out until it is rebuilt.
    advertised: dict[int, TreePattern] = field(default_factory=dict)
    #: The live aggregation keyed by leader, each group's first member:
    #: ``leader -> (advertised_pattern, member subscriber ids)``, in the
    #: policy's order, which is ascending leader under every policy, so
    #: that a single event replaces a changed aggregate in its own slot
    #: and adds or removes one in O(1).  :attr:`communities` reads it as
    #: a list.
    aggregation: dict[int, _Community] = field(default_factory=dict)
    #: Set when :meth:`BrokerOverlay.detach` left an advertised
    #: subscriber's entry installed: until the next full re-aggregation
    #: withdraws it, :attr:`aggregation` is not the policy's aggregation
    #: of the advertised subscriptions, so no single-event change applies.
    stale: bool = False
    #: Live pairwise-similarity engine the policy scores the advertised
    #: subscriptions with (similarity-based policies only; made by
    #: :meth:`BrokerOverlay.advertise` and :meth:`BrokerOverlay.add_broker`).
    index: Optional[SimilarityIndex] = None
    #: The last leader clustering of the advertised subscriptions,
    #: each community's elected member and, under a candidate gate, the
    #: index of its leaders, which
    #: :class:`~repro.routing.policy.CommunityPolicy` updates in place
    #: under churn at the costs of the module docstring's churn table.
    clusters: LeaderClusters = field(default_factory=LeaderClusters)

    @property
    def communities(self) -> list[_Community]:
        """Communities advertised in the live aggregation, as
        ``(advertised_pattern, member subscriber ids)`` in the policy's
        order."""
        return list(self.aggregation.values())

    def degree(self) -> int:
        """Number of overlay neighbours."""
        return len(self.neighbors)

    def __repr__(self) -> str:
        return (
            f"BrokerNode(id={self.broker_id}, neighbors={self.neighbors}, "
            f"subscribers={len(self.local_subscribers)}, "
            f"table={len(self.table)})"
        )


def _arrival(origin: Optional[int]) -> tuple[tuple[str, int], ...]:
    """What a step excludes for a document that arrived from *origin*:
    the link back to it, or nothing for a local publish."""
    return () if origin is None else ((FORWARD, origin),)


def _aggregation_diff(
    old: dict[int, _Community],
    fresh: dict[int, _Community],
) -> tuple[list[_Community], list[_Community]]:
    """The entries of *old* that *fresh* lacks (departed) and those of
    *fresh* that *old* lacks (unmatched), each in its record's order.

    Both records key each entry by its leader, and neither repeats one,
    so an entry is in the other record exactly when that record holds it
    under its leader: this is the multiset diff of the two aggregations,
    element for element and in order, without hashing a pattern.
    """
    departed = [
        entry for group, entry in old.items() if fresh.get(group) != entry
    ]
    unmatched = [
        entry for group, entry in fresh.items() if old.get(group) != entry
    ]
    return departed, unmatched


def _aggregation_record(
    aggregation: list[_Community],
) -> dict[int, _Community]:
    """A policy's aggregation as a :attr:`BrokerNode.aggregation` record.

    Each subscriber belongs to one aggregate, so every leader keys
    exactly one entry; a policy that repeats one is rejected before the
    broker's routing state changes.
    """
    record = {aggregate[1][0]: aggregate for aggregate in aggregation}
    if len(record) != len(aggregation):
        raise ValueError("the policy led two member groups with one member")
    return record


def _edited_record(
    record: dict[int, _Community],
    edit: Mapping[int, Optional[_Community]],
) -> tuple[dict[int, _Community], list[_Community], list[_Community]]:
    """*record* after a policy's single-event *edit*, applied in place,
    with the entries that left it (departed) and those that arrived
    (unmatched).

    The record ascends by leader before the event and after it, the
    edit lists its leaders in ascending order, and every leader the edit
    leaves out keeps its entry, so visiting the edit in its order lists
    both kinds exactly as :func:`_aggregation_diff` of the two whole
    records would.  A changed entry keeps its slot and a dropped one
    leaves; only an entry that arrives ahead of the last one forces the
    record to be re-ordered, into a new dict.
    """
    departed: list[_Community] = []
    unmatched: list[_Community] = []
    ordered = True
    for leader, new in edit.items():
        old = record.get(leader)
        if old == new:
            continue
        if old is not None:
            departed.append(old)
        if new is None:
            del record[leader]
            continue
        unmatched.append(new)
        if old is None and record and leader < next(reversed(record)):
            ordered = False
        record[leader] = new
    if not ordered:
        record = dict(sorted(record.items()))
    return record, departed, unmatched


@dataclass(frozen=True)
class OverlayStats:
    """Outcome of routing one document stream through the overlay."""

    mode: str
    brokers: int
    documents: int
    subscribers: int
    deliveries: int
    true_deliveries: int
    false_positives: int
    false_negatives: int
    match_operations: int
    forwards: int
    advertisement_messages: int
    table_sizes: dict[int, int]
    match_operations_by_broker: dict[int, int]

    @property
    def precision(self) -> float:
        """Fraction of deliveries that were wanted."""
        if self.deliveries == 0:
            return 1.0
        return self.true_deliveries / self.deliveries

    @property
    def recall(self) -> float:
        """Fraction of wanted deliveries that happened."""
        wanted = self.true_deliveries + self.false_negatives
        if wanted == 0:
            return 1.0
        return self.true_deliveries / wanted

    @property
    def total_table_entries(self) -> int:
        """Routing state across the whole overlay."""
        return sum(self.table_sizes.values())

    @property
    def matches_per_document(self) -> float:
        """Network-wide filtering cost per routed document."""
        if self.documents == 0:
            return 0.0
        return self.match_operations / self.documents

    @property
    def forwards_per_document(self) -> float:
        """Inter-broker transmissions per routed document."""
        if self.documents == 0:
            return 0.0
        return self.forwards / self.documents


class BrokerOverlay:
    """A tree-shaped broker network with content-based routing."""

    def __init__(
        self,
        n_brokers: int,
        edges: list[tuple[int, int]],
        matching: str = "trie",
    ) -> None:
        if n_brokers < 1:
            raise ValueError("need at least one broker")
        #: Matching mode every broker table uses: ``"trie"`` (merged
        #: pattern trie, the default) or ``"linear"`` (per-pattern oracle).
        self.matching = matching
        self.brokers: dict[int, BrokerNode] = {
            broker_id: BrokerNode(
                broker_id, table=RoutingTable(matching=matching)
            )
            for broker_id in range(n_brokers)
        }
        for a, b in edges:
            if a == b or a not in self.brokers or b not in self.brokers:
                raise ValueError(f"invalid overlay edge ({a}, {b})")
            self.brokers[a].neighbors.append(b)
            self.brokers[b].neighbors.append(a)
        for node in self.brokers.values():
            node.neighbors.sort()
        self._check_tree(n_brokers, edges)
        #: Next broker id :meth:`add_broker` mints; never reused, so a
        #: broker id stays unambiguous across topology churn.
        self._next_broker = n_brokers
        #: subscriber id -> (home broker id, pattern); insertion-ordered,
        #: ids are never reused across unsubscribes.
        self.subscriptions: dict[int, tuple[int, TreePattern]] = {}
        self._next_subscriber = 0
        self.advertisement_messages = 0
        self.mode: Optional[str] = None
        #: The live advertisement policy (None before :meth:`advertise`);
        #: churn events keep re-aggregating through it.
        self.policy: Optional[AdvertisementPolicy] = None
        #: The selectivity provider backing similarity-based policies.
        self.provider: Optional[SelectivityProvider] = None

    @staticmethod
    def _check_tree(n_brokers: int, edges: list[tuple[int, int]]) -> None:
        if len(edges) != n_brokers - 1:
            raise ValueError(
                f"an overlay tree over {n_brokers} brokers needs exactly "
                f"{n_brokers - 1} edges, got {len(edges)}"
            )
        seen = {0}
        frontier = [0]
        adjacency: dict[int, list[int]] = {i: [] for i in range(n_brokers)}
        for a, b in edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        while frontier:
            node = frontier.pop()
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        if len(seen) != n_brokers:
            raise ValueError("overlay edges do not connect all brokers")

    # ------------------------------------------------------------------
    # topology factories
    # ------------------------------------------------------------------

    @classmethod
    def chain(cls, n_brokers: int, matching: str = "trie") -> "BrokerOverlay":
        """``0 — 1 — 2 — ... — n-1`` (maximal diameter)."""
        return cls(
            n_brokers,
            [(i, i + 1) for i in range(n_brokers - 1)],
            matching=matching,
        )

    @classmethod
    def star(cls, n_brokers: int, matching: str = "trie") -> "BrokerOverlay":
        """Broker 0 as hub, all others leaves (minimal diameter)."""
        return cls(
            n_brokers,
            [(0, i) for i in range(1, n_brokers)],
            matching=matching,
        )

    @classmethod
    def random_tree(
        cls, n_brokers: int, seed: int = 0, matching: str = "trie"
    ) -> "BrokerOverlay":
        """A uniformly random recursive tree: broker *i* attaches to a
        random earlier broker."""
        rng = random.Random(seed)
        edges = [
            (rng.randrange(i), i) for i in range(1, n_brokers)
        ]
        return cls(n_brokers, edges, matching=matching)

    @classmethod
    def build(
        cls,
        topology: str,
        n_brokers: int,
        seed: int = 0,
        matching: str = "trie",
    ) -> "BrokerOverlay":
        """Factory dispatching on a topology name from :data:`TOPOLOGIES`."""
        if topology == "chain":
            return cls.chain(n_brokers, matching=matching)
        if topology == "star":
            return cls.star(n_brokers, matching=matching)
        if topology == "random_tree":
            return cls.random_tree(n_brokers, seed=seed, matching=matching)
        raise ValueError(
            f"unknown topology {topology!r}; choose from {TOPOLOGIES}"
        )

    # ------------------------------------------------------------------
    # subscription membership (state only, no advertisement traffic)
    # ------------------------------------------------------------------

    def attach(self, broker_id: int, pattern: TreePattern) -> SubscriptionId:
        """Home a new subscriber with *pattern* on *broker_id*; returns its
        global subscriber id.

        Membership only: no advertisement is sent, even when a routing
        regime is live — the bulk-load path, followed by one
        :meth:`advertise` call.  Use :meth:`subscribe` for the event-driven
        path that keeps live routing state fresh.
        """
        if broker_id not in self.brokers:
            raise ValueError(f"no broker {broker_id}")
        subscriber_id = SubscriptionId(self._next_subscriber)
        self._next_subscriber += 1
        self.subscriptions[subscriber_id] = (broker_id, pattern)
        self.brokers[broker_id].local_subscribers.append(subscriber_id)
        return subscriber_id

    def attach_round_robin(self, patterns: list[TreePattern]) -> list[int]:
        """Spread *patterns* over brokers in round-robin order.

        Rotates over the brokers in id order — after topology churn the
        id space may be sparse, so position, not id, picks the home.
        """
        order = sorted(self.brokers)
        return [
            self.attach(order[index % len(order)], pattern)
            for index, pattern in enumerate(patterns)
        ]

    def detach(self, subscription_id: int) -> TreePattern:
        """Forget a subscriber without withdrawing its advertisements.

        The membership-only inverse of :meth:`attach`: routing tables keep
        whatever state the subscriber's advertisements installed (useful
        for modelling stale tables).  Broker-internal bookkeeping that is
        not routing state — the live policy's advertised record — is
        still retired, so churn through ``detach`` does not grow it
        without bound.  Use :meth:`unsubscribe` for the event-driven
        path.  Returns the forgotten pattern.
        """
        home_id, pattern, advertised = self._forget(subscription_id)
        if advertised:
            # Its entry stays installed; the home broker's next
            # re-aggregation diffs the full aggregation and withdraws it.
            self.brokers[home_id].stale = True
        return pattern

    def _forget(self, subscription_id: int) -> tuple[int, TreePattern, bool]:
        """Drop a subscriber from its home's membership and from the live
        policy's advertised record.

        Returns its home broker id, its pattern and whether the live
        policy had advertised it.  :attr:`BrokerNode.local_subscribers`
        ascends (:meth:`attach` appends the next id, :meth:`remove_broker`
        sorts the merge), so the id's slot is found by bisection.
        """
        try:
            home_id, pattern = self.subscriptions.pop(subscription_id)
        except KeyError:
            raise ValueError(
                f"unknown subscription id {subscription_id}"
            ) from None
        node = self.brokers[home_id]
        subscribers = node.local_subscribers
        slot = bisect_left(subscribers, subscription_id)
        if subscribers[slot : slot + 1] != [subscription_id]:
            raise RuntimeError(
                f"broker {home_id} does not list subscriber "
                f"{subscription_id} in ascending id order"
            )
        del subscribers[slot]
        advertised = node.advertised.pop(subscription_id, None) is not None
        return home_id, pattern, advertised

    def reset_routing(self) -> None:
        """Drop all routing state (tables, communities, ad counters)."""
        for node in self.brokers.values():
            node.table.clear()
            node.advertised = {}
            node.aggregation = {}
            node.stale = False
            node.index = None
            node.clusters = LeaderClusters()
        self.advertisement_messages = 0
        self.mode = None
        self.policy = None
        self.provider = None

    # ------------------------------------------------------------------
    # subscription lifecycle (event-driven)
    # ------------------------------------------------------------------

    def _register(
        self, node: BrokerNode, subscription_id: int, pattern: TreePattern
    ) -> None:
        """Admit one subscription into the live policy's advertised
        record."""
        node.advertised[subscription_id] = pattern

    def subscribe(
        self, broker_id: int, pattern: TreePattern
    ) -> SubscriptionId:
        """Home a new subscriber and advertise it through the live policy.

        * no policy yet (``mode is None``) — membership only, exactly like
          :meth:`attach`;
        * otherwise the arrival joins the home broker's advertised record,
          the broker re-aggregates, and only the advertisement *diff*
          travels the overlay.

        Its cost at the home broker, by policy, is the churn cost table
        in this module's docstring.
        """
        subscription_id = self.attach(broker_id, pattern)
        if self.policy is None:
            return subscription_id
        self._register(self.brokers[broker_id], subscription_id, pattern)
        self._reaggregate(broker_id, (subscription_id, True))
        return subscription_id

    def unsubscribe(self, subscription_id: int) -> TreePattern:
        """Retire a subscription and withdraw its advertisements.

        The inverse of :meth:`subscribe`: the home broker drops the
        subscription from its advertised record, re-aggregates,
        and the advertisement diff walks the reverse advertisement paths
        — under a per-subscription policy that unadvertises exactly the
        departing pattern, resurrecting (and re-advertising) entries it
        had covered; under an aggregating policy only the touched
        communities are re-advertised.  A subscription that was never
        advertised under the live policy (it :meth:`attach`\\ -ed after
        the bulk :meth:`advertise` call) has nothing to withdraw and is
        simply detached.  Returns the retired pattern.

        Its cost at the home broker, by policy, is the churn cost table
        in this module's docstring.
        """
        home_id, pattern, advertised = self._forget(subscription_id)
        if self.policy is not None and advertised:
            self._reaggregate(home_id, (subscription_id, False))
        return pattern

    def subscribe_many(
        self, broker_id: int, patterns: Iterable[TreePattern]
    ) -> list[SubscriptionId]:
        """Home a burst of subscribers on one broker in a single batch.

        The batch equivalent of looping :meth:`subscribe`: all arrivals
        join the broker's membership (and advertised record) first, then the
        broker re-aggregates **once** and advertises one diff — so a
        burst costs one re-clustering and never floods the transient
        community shapes the per-event loop would have announced and
        withdrawn between arrivals.  A burst of one is the single event
        :meth:`subscribe` makes.  Returns the new subscription ids in
        argument order.
        """
        subscription_ids = [
            self.attach(broker_id, pattern) for pattern in patterns
        ]
        if self.policy is None or not subscription_ids:
            return subscription_ids
        node = self.brokers[broker_id]
        for subscription_id in subscription_ids:
            self._register(
                node, subscription_id, self.subscriptions[subscription_id][1]
            )
        single = (subscription_ids[0], True) if len(subscription_ids) == 1 else None
        self._reaggregate(broker_id, single)
        return subscription_ids

    def unsubscribe_many(
        self, subscription_ids: Iterable[int]
    ) -> list[TreePattern]:
        """Retire a burst of subscriptions in a single batch.

        The batch equivalent of looping :meth:`unsubscribe`: every
        departure is detached first, then each touched broker
        re-aggregates **once** and advertises one diff.  The ids may span
        brokers; each broker still pays exactly one re-aggregation, and a
        broker that loses exactly one advertised member takes the single
        event :meth:`unsubscribe` makes.  Returns the retired patterns in
        argument order.
        """
        subscription_ids = list(subscription_ids)
        missing = [
            subscription_id
            for subscription_id in subscription_ids
            if subscription_id not in self.subscriptions
        ]
        if missing:
            raise ValueError(f"unknown subscription ids {missing}")
        if len(set(subscription_ids)) != len(subscription_ids):
            duplicated = sorted(
                subscription_id
                for subscription_id, count in Counter(
                    subscription_ids
                ).items()
                if count > 1
            )
            raise ValueError(
                f"subscription ids repeated in one batch: {duplicated}"
            )
        departed: dict[int, list[int]] = {}
        patterns: list[TreePattern] = []
        for subscription_id in subscription_ids:
            home_id, pattern, advertised = self._forget(subscription_id)
            if advertised:
                departed.setdefault(home_id, []).append(subscription_id)
            patterns.append(pattern)
        if self.policy is not None:
            for home_id, members in sorted(departed.items()):
                single = (members[0], False) if len(members) == 1 else None
                self._reaggregate(home_id, single)
        return patterns

    # ------------------------------------------------------------------
    # topology lifecycle (broker join/leave)
    # ------------------------------------------------------------------

    def _seed_link(self, source: BrokerNode, node: BrokerNode) -> None:
        """Hand a newly attached *node* the advertisement state it needs
        to route like the rest of the overlay.

        *source* (an existing neighbour of *node*) replays every
        advertisement instance it has forwarded onward — its active
        entries, the absorbed instances whose flood had passed through,
        and its own advertised communities — over the new link.  The
        instances are installed with :meth:`RoutingTable.seed`, i.e.
        *without* fresh-flood semantics: nothing propagates beyond the
        new broker, because everything being seeded already lives in the
        rest of the overlay.  Each seeded instance costs one
        advertisement message (the state crosses the new link once).
        """
        for pattern in source.table.forwarded_instances(
            exclude=((FORWARD, node.broker_id),)
        ):
            self.advertisement_messages += 1
            node.table.seed(pattern, (FORWARD, source.broker_id))

    def add_broker(
        self, parent: int, *, split: Optional[int] = None
    ) -> BrokerId:
        """Graft a new broker onto the overlay and return its id.

        With ``split=None`` the new broker joins as a leaf under
        *parent*; with ``split=child`` it splits the existing edge
        ``parent — child`` and sits between the two.  The overlay stays
        a tree either way, and broker ids are never reused.

        When a routing regime is live the join is incremental: the new
        broker receives each neighbour's forwarded advertisement state
        over its new link(s) (one message per instance, nothing
        re-floods elsewhere), gets a fresh similarity index under
        similarity-based policies, and starts with no subscriptions —
        later :meth:`subscribe` calls advertise from it exactly like
        from any seed broker.  Splitting an edge additionally re-keys
        both endpoints' link state onto the newcomer
        (:meth:`RoutingTable.rename_destination`), which costs no
        advertisement traffic at all.
        """
        if parent not in self.brokers:
            raise ValueError(f"no broker {parent}")
        parent_node = self.brokers[parent]
        if split is not None and split not in parent_node.neighbors:
            raise ValueError(
                f"({parent}, {split}) is not an overlay edge; "
                "split must name a current neighbour of parent"
            )
        broker_id = BrokerId(self._next_broker)
        self._next_broker += 1
        node = BrokerNode(
            broker_id, table=RoutingTable(matching=self.matching)
        )
        self.brokers[broker_id] = node
        if split is None:
            parent_node.neighbors.append(broker_id)
            parent_node.neighbors.sort()
            node.neighbors = [parent]
        else:
            split_node = self.brokers[split]
            parent_node.neighbors.remove(split)
            parent_node.neighbors.append(broker_id)
            parent_node.neighbors.sort()
            split_node.neighbors.remove(parent)
            split_node.neighbors.append(broker_id)
            split_node.neighbors.sort()
            node.neighbors = sorted((parent, split))
        if self.policy is None:
            return broker_id
        if self.policy.uses_similarity:
            node.index = self.policy.make_index(self.provider)
        if split is not None:
            split_node = self.brokers[split]
            parent_node.table.rename_destination(
                (FORWARD, split), (FORWARD, broker_id)
            )
            split_node.table.rename_destination(
                (FORWARD, parent), (FORWARD, broker_id)
            )
            self._seed_link(parent_node, node)
            self._seed_link(split_node, node)
        else:
            self._seed_link(parent_node, node)
        return broker_id

    @staticmethod
    def _take_flag(flags: list[bool], prefer: bool) -> bool:
        """Consume one inherited flood flag, preferring *prefer*.

        An empty record means the instance's passage left no trace at
        the merge target (it can only happen on protocols that bypassed
        the overlay's own bookkeeping); False — downstream state exists
        — is the conservative answer that never floods duplicates.
        """
        if not flags:
            return False
        choice = prefer if prefer in flags else flags[0]
        flags.remove(choice)
        return choice

    def _transplant(
        self, node: BrokerNode, target: BrokerNode, orphans: list[int]
    ) -> None:
        """Move a retiring broker's per-link advertisement state into the
        merge target.

        The retiring *node* held, per re-attached subtree, an instance
        multiset with reversible-covering flags; the *target* held the
        merged multiset of everything the retiring broker ever forwarded
        it, with its own flags.  Both records matter:

        * an instance whose flood **died at the retiring broker**
          (absorbed there with the resume-flood flag) exists nowhere
          downstream — it is re-seeded absorbed with the pending-flood
          flag, so a later resurrection still re-advertises it;
        * an instance that reached the target inherits the flag the
          target had recorded for it — False when it travelled onward
          (downstream state exists), True when it died at the target.
          Cross-subtree covering cannot be represented in the split
          per-link destinations, so an inherited-True instance that
          comes out *active* in its new destination is flooded beyond
          the target right away — exactly the advertisement a fresh
          rebuild of the new topology would have propagated.  The flood
          skips every orphan: each already holds the instance through
          the retiring broker, whose link to it was only renamed.

        Each transplanted instance costs one advertisement message (the
        state crosses the spliced link once); the extra floods are
        counted by :meth:`_propagate` as usual.
        """
        inherited: dict[TreePattern, list[bool]] = {}
        for pattern, resume_flood in target.table.export_destination(
            (FORWARD, node.broker_id)
        ):
            inherited.setdefault(pattern, []).append(resume_flood)
        target.table.remove_destination((FORWARD, node.broker_id))
        # Advertisements from the target's side whose flood died at the
        # retiring broker: no orphan subtree has heard of them, and the
        # covering knowledge ("resurrect when the cover leaves") would
        # die with the broker.  Re-home it into each orphan's re-keyed
        # link destination with the pending-flood flag.
        pending = [
            pattern
            for pattern, died_at_node in node.table.export_destination(
                (FORWARD, target.broker_id)
            )
            if died_at_node
        ]
        for neighbor_id in orphans:
            orphan_table = self.brokers[neighbor_id].table
            for pattern in pending:
                self.advertisement_messages += 1
                if orphan_table.seed(
                    pattern, (FORWARD, target.broker_id), True
                ):
                    # Nothing in the orphan's own record covers it after
                    # all: the pending flood resumes into that subtree
                    # immediately, as a rebuild would have advertised it.
                    self._propagate(
                        neighbor_id, pattern, skip=(target.broker_id,)
                    )
        for neighbor_id in orphans:
            destination = (FORWARD, neighbor_id)
            for pattern, died_at_node in node.table.export_destination(
                destination
            ):
                self.advertisement_messages += 1
                if died_at_node:
                    target.table.seed(pattern, destination, True)
                    continue
                absorbs = target.table.covers(pattern, destination)
                flag = self._take_flag(
                    inherited.get(pattern, []), prefer=absorbs
                )
                became_active = target.table.seed(
                    pattern, destination, flag
                )
                if became_active and flag:
                    self._propagate(target.broker_id, pattern, skip=orphans)

    def remove_broker(
        self, broker_id: int, *, merge_into: Optional[int] = None
    ) -> BrokerId:
        """Retire a broker, merging its state into a neighbour.

        ``merge_into`` names the neighbour that absorbs the retiring
        broker (default: its lowest-id neighbour).  The surgery, in
        order:

        * the retiring broker's own advertisements are withdrawn
          overlay-wide through the normal hop-by-hop unadvertise
          protocol (resurrecting whatever they covered);
        * every other neighbour re-attaches to the merge target, and —
          because only the next hop changed — re-keys its link state
          with zero advertisement traffic;
        * the merge target drops its link to the retiring broker and
          adopts, per re-attached subtree, the retiring broker's full
          advertisement-instance record for that link
          (:meth:`RoutingTable.export_destination` →
          :meth:`RoutingTable.seed`, one message per instance) — so
          reversible covering keeps working across the splice;
        * the retiring broker's subscriptions are re-homed onto the
          target (advertised ones join its advertised record) and
          **one** re-aggregation folds them into the target's
          advertisements, flooding only the resulting diff.

        Every policy stays incremental: after the merge, every routing
        table equals a from-scratch rebuild of the new topology (the
        property suite's headline guarantee).  Returns the merge
        target's id.
        """
        if broker_id not in self.brokers:
            raise ValueError(f"no broker {broker_id}")
        if len(self.brokers) == 1:
            raise ValueError("cannot remove the only broker")
        node = self.brokers[broker_id]
        if merge_into is None:
            merge_into = node.neighbors[0]
        elif merge_into not in node.neighbors:
            raise ValueError(
                f"merge target {merge_into} is not a neighbour of "
                f"broker {broker_id}"
            )
        target = self.brokers[merge_into]
        live = self.policy is not None
        if live:
            for advertised, members in node.communities:
                node.table.remove_destination((DELIVER, members))
                self._unadvertise(broker_id, advertised)
            node.aggregation = {}
        orphans = [
            neighbor for neighbor in node.neighbors if neighbor != merge_into
        ]
        for neighbor_id in orphans:
            neighbor = self.brokers[neighbor_id]
            neighbor.neighbors.remove(broker_id)
            neighbor.neighbors.append(merge_into)
            neighbor.neighbors.sort()
            if live:
                neighbor.table.rename_destination(
                    (FORWARD, broker_id), (FORWARD, merge_into)
                )
        target.neighbors.remove(broker_id)
        target.neighbors.extend(orphans)
        target.neighbors.sort()
        if live:
            self._transplant(node, target, orphans)
        for subscription_id in node.local_subscribers:
            _, pattern = self.subscriptions[subscription_id]
            self.subscriptions[subscription_id] = (merge_into, pattern)
        target.local_subscribers = sorted(
            target.local_subscribers + node.local_subscribers
        )
        adopted = node.advertised
        target.advertised = dict(
            sorted({**target.advertised, **adopted}.items())
        )
        del self.brokers[broker_id]
        if live and adopted:
            self._reaggregate(merge_into)
        return BrokerId(merge_into)

    def topology_signature(self) -> dict[int, frozenset]:
        """Routing state with broker and subscriber ids relabelled by
        rank.

        The comparator behind the zero-decay guarantee: a lived-in
        overlay mints fresh ids on every join and subscribe (they are
        never reused), so its tables can only be compared with a
        from-scratch rebuild after mapping broker ids — dictionary keys
        and forward payloads — and deliver-payload subscriber ids onto
        their rank among the survivors.  Two overlays route identically
        iff their signatures are equal.
        """
        broker_rank = {
            broker_id: rank
            for rank, broker_id in enumerate(sorted(self.brokers))
        }
        sub_rank = {
            subscriber_id: rank
            for rank, subscriber_id in enumerate(sorted(self.subscriptions))
        }
        signature = {}
        for broker_id, node in self.brokers.items():
            entries = set()
            for entry in node.table:
                kind, payload = entry.destination
                if kind == DELIVER:
                    payload = tuple(
                        sorted(sub_rank[member] for member in payload)
                    )
                else:
                    payload = broker_rank[payload]
                entries.add((entry.pattern, kind, payload))
            signature[broker_rank[broker_id]] = frozenset(entries)
        return signature

    def rebuilt(
        self,
        policy: Optional[AdvertisementPolicy] = None,
        provider: Optional[SelectivityProvider] = None,
    ) -> "BrokerOverlay":
        """A from-scratch overlay over this one's topology and
        membership.

        Brokers and subscriptions are re-created in rank order, in this
        overlay's matching mode, and the live policy and provider (or
        explicit overrides) advertise from nothing — the oracle every incremental-lifecycle guarantee is
        checked against: after any churn,
        ``overlay.topology_signature() ==
        overlay.rebuilt().topology_signature()``.  With no routing
        regime live (and no override), the copy is membership-only.
        """
        ids = sorted(self.brokers)
        broker_rank = {broker_id: rank for rank, broker_id in enumerate(ids)}
        edges = sorted(
            {
                (broker_rank[min(a, b)], broker_rank[max(a, b)])
                for a in self.brokers
                for b in self.brokers[a].neighbors
            }
        )
        fresh = BrokerOverlay(len(ids), edges, matching=self.matching)
        for home_id, pattern in self.subscriptions.values():
            fresh.attach(broker_rank[home_id], pattern)
        if policy is None:
            policy = self.policy
        if provider is None:
            provider = self.provider
        if policy is not None:
            fresh.advertise(policy, provider)
        return fresh

    # ------------------------------------------------------------------
    # advertisement
    # ------------------------------------------------------------------

    def _propagate(
        self,
        origin_id: int,
        pattern: TreePattern,
        skip: Collection[int] = (),
    ) -> None:
        """Flood one advertisement away from *origin_id*.

        Each receiving broker installs ``pattern → (forward, sender)`` —
        reverse-path routing state — and re-advertises to its remaining
        neighbours only when covering did *not* absorb the entry: if an
        existing entry for the same link contains the pattern, every broker
        further out already routes the pattern's documents this way.

        ``skip`` suppresses the flood towards those neighbours of the
        origin — used when a resurrected advertisement resumes a flood
        mid-overlay and must not travel back towards its home, or when a
        merge target re-floods an instance its re-attached subtrees
        already hold.
        """
        frontier = [
            (neighbor, origin_id)
            for neighbor in self.brokers[origin_id].neighbors
            if neighbor not in skip
        ]
        while frontier:
            broker_id, sender = frontier.pop(0)
            self.advertisement_messages += 1
            node = self.brokers[broker_id]
            if node.table.add(pattern, (FORWARD, sender)):
                frontier.extend(
                    (neighbor, broker_id)
                    for neighbor in node.neighbors
                    if neighbor != sender
                )

    def _unadvertise(
        self, origin_id: int, pattern: TreePattern, skip: Optional[int] = None
    ) -> None:
        """Withdraw one advertisement instance along its flood paths.

        Mirrors :meth:`_propagate`: the unadvertise walks away from
        *origin_id* and, per broker, retires one instance of *pattern* from
        the reverse-path entry of the arrival link.  The walk continues
        outward only where the *active* entry actually left the table (a
        covered duplicate never travelled further in the first place), and
        every entry whose covering advertisement just left is resurrected
        and re-advertised from that broker onward — resuming the flood that
        covering had pruned.
        """
        frontier = [
            (neighbor, origin_id)
            for neighbor in self.brokers[origin_id].neighbors
            if neighbor != skip
        ]
        readvertise: list[tuple[int, int, TreePattern]] = []
        while frontier:
            broker_id, sender = frontier.pop(0)
            self.advertisement_messages += 1
            node = self.brokers[broker_id]
            removed, restored = node.table.remove_pattern(
                pattern, (FORWARD, sender)
            )
            if removed:
                frontier.extend(
                    (neighbor, broker_id)
                    for neighbor in node.neighbors
                    if neighbor != sender
                )
                readvertise.extend(
                    (broker_id, sender, entry) for entry in restored
                )
        for broker_id, sender, entry in readvertise:
            self._propagate(broker_id, entry, skip=(sender,))

    def _aggregate_node(
        self, node: BrokerNode
    ) -> list[tuple[TreePattern, tuple[int, ...]]]:
        """One broker's target advertisement state under the live policy.

        Hands the policy the broker's :attr:`BrokerNode.advertised`
        record in home order, with its live index and its
        :class:`~repro.routing.community.LeaderClusters` record for a
        similarity-based policy to update in place.  Members that merely
        :meth:`attach`\\ -ed after the bulk advertisement are not in the
        record, whatever the policy.
        """
        assert self.policy is not None
        return self.policy.aggregate(node.advertised, node.index, node.clusters)

    def _reaggregate(
        self,
        broker_id: int,
        change: Optional[tuple[int, bool]] = None,
    ) -> None:
        """Refresh one broker's advertisements after churn.

        *change* names a single event, ``(member, arrived)``, when the
        caller made exactly one, a burst of one included; larger bursts
        and topology surgery pass none.
        For a single event the policy may name the aggregates it changes
        (its ``single_change``), and only those are installed or
        withdrawn (:func:`_edited_record`): the same calls, in the same
        order, as the full diff below would make, at the cost of the
        change instead of O(broker).  A record left stale by
        :meth:`detach` always takes the full path.

        Otherwise the broker re-aggregates through the live policy (what
        that costs is the churn cost table in this module's docstring)
        and diffs the fresh record against the live one under each leader
        (:func:`_aggregation_diff`).  The change is applied at two
        levels:

        * local delivery entries follow the full ``(pattern, members)``
          communities — a membership change swaps the home broker's
          deliver entry in place;
        * overlay-wide advertisement traffic follows the *advertised
          pattern multiset* only — a subscriber joining or leaving an
          existing community whose advertised pattern survives costs zero
          unadvertise/re-flood messages, because the rest of the overlay
          routes on the pattern, not on the membership.
        """
        assert self.policy is not None
        node = self.brokers[broker_id]
        if change is not None and not node.stale:
            member, arrived = change
            edit = self.policy.single_change(
                member, arrived, node.advertised, node.index, node.clusters
            )
            if edit is not None:
                node.aggregation, departed, unmatched = _edited_record(
                    node.aggregation, edit
                )
                self._apply_change(broker_id, departed, unmatched)
                return
        fresh = _aggregation_record(self._aggregate_node(node))
        departed, unmatched = _aggregation_diff(node.aggregation, fresh)
        self._apply_change(broker_id, departed, unmatched)
        node.aggregation = fresh
        node.stale = False

    def _apply_change(
        self,
        broker_id: int,
        departed: Sequence[_Community],
        unmatched: Sequence[_Community],
    ) -> None:
        """Install one change of a broker's aggregation: drop the deliver
        entries of *departed* and add those of *unmatched*, flood each
        advertised pattern that is new and withdraw each one that is
        gone."""
        table = self.brokers[broker_id].table
        withdrawn = [advertised for advertised, _ in departed]
        for _advertised, members in departed:
            table.remove_destination((DELIVER, members))
        for advertised, members in unmatched:
            table.add(advertised, (DELIVER, members))
            if advertised in withdrawn:
                # Same advertised pattern, new membership: the overlay-wide
                # state is already in place.
                withdrawn.remove(advertised)
            else:
                self._propagate(broker_id, advertised)
        for advertised in withdrawn:
            self._unadvertise(broker_id, advertised)

    def advertise(
        self,
        policy: AdvertisementPolicy,
        provider: Optional[SelectivityProvider] = None,
    ) -> None:
        """Install routing state for the whole overlay under *policy*.

        Similarity-based policies additionally need *provider*, the
        :class:`~repro.core.similarity.SelectivityProvider` each broker's
        live index scores patterns with.

        Every broker aggregates its local subscriptions through the
        policy and floods the resulting advertisements hop-by-hop with
        covering pruning.  The policy, provider and per-broker indexes
        stay live afterwards, so :meth:`subscribe` / :meth:`unsubscribe`
        (and their batch variants) maintain the advertisement state
        incrementally instead of rebuilding it.
        """
        if policy.uses_similarity and provider is None:
            raise ValueError(
                f"{type(policy).__name__} clusters over pattern similarity "
                "and needs a selectivity provider"
            )
        self.reset_routing()
        self.policy = policy
        self.provider = provider if policy.uses_similarity else None
        self.mode = policy.mode_label()
        for node in self.brokers.values():
            node.advertised = {
                subscriber_id: self.subscriptions[subscriber_id][1]
                for subscriber_id in node.local_subscribers
            }
            if policy.uses_similarity:
                node.index = policy.make_index(provider)
            node.aggregation = _aggregation_record(self._aggregate_node(node))
            for advertised, members in node.communities:
                node.table.add(advertised, (DELIVER, members))
                self._propagate(node.broker_id, advertised)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def process_at(
        self,
        broker_id: int,
        document: XMLTree,
        arrived_from: Optional[int] = None,
    ) -> TableMatch:
        """One broker-local filtering step: match *document* against
        *broker_id*'s routing table, whose match is the step.

        ``arrived_from`` is the neighbour the document came in over (None
        for a locally published document); its link is excluded so the
        document never travels back the way it arrived.  The step is pure
        with respect to delivery semantics — it reads routing state and
        counts match operations, but schedules nothing — which is what
        lets the synchronous walk and the event engine share it.
        """
        if broker_id not in self.brokers:
            raise ValueError(f"no broker {broker_id}")
        return self.brokers[broker_id].table.destinations_for(
            document, exclude=_arrival(arrived_from)
        )

    def process_batch_at(
        self,
        broker_id: int,
        documents: Sequence[XMLTree],
        arrived_from: Optional[Sequence[Optional[int]]] = None,
    ) -> list[TableMatch]:
        """One broker-local filtering pass over a whole queue drain.

        The batched counterpart of :meth:`process_at`: every document of
        the drain is matched through one shared trie memo pool (see
        :meth:`RoutingTable.destinations_for_batch`), so structure
        repeated across the batch is filtered once, and each document
        still gets its own step — per-document deliveries, table-order
        forwards and *attributed* match operations — equal to what
        :meth:`process_at` would have produced.  ``arrived_from``
        carries one origin link per document (the documents of one drain
        may have arrived over different links); ``None`` means every
        document was published locally.
        """
        if broker_id not in self.brokers:
            raise ValueError(f"no broker {broker_id}")
        excludes = None if arrived_from is None else list(map(_arrival, arrived_from))
        table = self.brokers[broker_id].table
        return table.destinations_for_batch(documents, excludes).steps

    def route(
        self, document: XMLTree, publish_at: int = 0
    ) -> tuple[set[int], dict[int, int], int]:
        """Route one document published at *publish_at*, synchronously.

        Applies :meth:`process_at` broker by broker in breadth-first
        order.  Returns ``(delivered subscriber ids, match operations per
        visited broker, inter-broker forwards)``.
        """
        if publish_at not in self.brokers:
            raise ValueError(f"no broker {publish_at}")
        delivered: set[int] = set()
        operations: dict[int, int] = {}
        forwards = 0
        frontier: list[tuple[int, Optional[int]]] = [(publish_at, None)]
        while frontier:
            broker_id, origin = frontier.pop(0)
            step = self.process_at(broker_id, document, origin)
            operations[broker_id] = (
                operations.get(broker_id, 0) + step.operations
            )
            delivered.update(*step.members)
            forwards += len(step.forwards)
            frontier.extend(
                (neighbor, broker_id) for neighbor in step.forwards
            )
        return delivered, operations, forwards

    def route_corpus(
        self,
        corpus: DocumentCorpus,
        publish_at: Union[int, str] = "round_robin",
    ) -> OverlayStats:
        """Route every corpus document and score delivery quality.

        ``publish_at`` is a fixed broker id or ``"round_robin"`` to spread
        publishers over the overlay.  Ground truth comes from the corpus'
        exact match sets; a delivery to an uninterested subscriber is a
        false positive, a missed interested subscriber a false negative.
        """
        if self.mode is None:
            raise ValueError("no routing state: call advertise() first")
        interest = {
            subscriber_id: corpus.match_set(pattern)
            for subscriber_id, (_, pattern) in self.subscriptions.items()
        }
        deliveries = 0
        true_deliveries = 0
        false_positives = 0
        false_negatives = 0
        total_operations = 0
        total_forwards = 0
        by_broker: dict[int, int] = {
            broker_id: 0 for broker_id in self.brokers
        }
        order = sorted(self.brokers)
        for index, document in enumerate(corpus.documents):
            if publish_at == "round_robin":
                source = order[index % len(order)]
            else:
                source = int(publish_at)
            delivered, operations, forwards = self.route(document, source)
            total_forwards += forwards
            for broker_id, ops in operations.items():
                by_broker[broker_id] += ops
                total_operations += ops
            doc_id = document.doc_id
            wanted = {
                subscriber_id
                for subscriber_id, match_set in interest.items()
                if doc_id in match_set
            }
            deliveries += len(delivered)
            true_deliveries += len(delivered & wanted)
            false_positives += len(delivered - wanted)
            false_negatives += len(wanted - delivered)
        return OverlayStats(
            mode=self.mode,
            brokers=len(self.brokers),
            documents=len(corpus),
            subscribers=len(self.subscriptions),
            deliveries=deliveries,
            true_deliveries=true_deliveries,
            false_positives=false_positives,
            false_negatives=false_negatives,
            match_operations=total_operations,
            forwards=total_forwards,
            advertisement_messages=self.advertisement_messages,
            table_sizes={
                broker_id: len(node.table)
                for broker_id, node in self.brokers.items()
            },
            match_operations_by_broker=by_broker,
        )

    def flooding_stats(self, corpus: DocumentCorpus) -> OverlayStats:
        """The no-filtering baseline: every document visits every broker
        and is delivered to every subscriber."""
        interest = [
            corpus.match_set(pattern)
            for _, pattern in self.subscriptions.values()
        ]
        total = len(corpus) * len(self.subscriptions)
        wanted = sum(len(match_set) for match_set in interest)
        return OverlayStats(
            mode="flooding",
            brokers=len(self.brokers),
            documents=len(corpus),
            subscribers=len(self.subscriptions),
            deliveries=total,
            true_deliveries=wanted,
            false_positives=total - wanted,
            false_negatives=0,
            match_operations=0,
            forwards=len(corpus) * (len(self.brokers) - 1),
            advertisement_messages=0,
            table_sizes={broker_id: 0 for broker_id in self.brokers},
            match_operations_by_broker={
                broker_id: 0 for broker_id in self.brokers
            },
        )

    def __repr__(self) -> str:
        return (
            f"BrokerOverlay(brokers={len(self.brokers)}, "
            f"subscribers={len(self.subscriptions)}, mode={self.mode!r})"
        )
