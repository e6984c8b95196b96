"""First-class routing policies: advertisement aggregation and scheduling.

The overlay's two behavioural axes — the advertisement regime of
:class:`~repro.routing.overlay.BrokerOverlay` and the queueing discipline
of :class:`~repro.routing.engine.DeliveryEngine` — are composable
strategy objects, so a deployment picks its point on the paper's
precision-vs-state trade-off (and its fairness-vs-tail-latency trade-off
under load) by *passing a policy*.

Advertisement policies (consumed by ``BrokerOverlay.advertise``):

* :class:`PerSubscriptionPolicy` — every subscription advertised on its
  own: exact delivery, maximal routing state (the baseline);
* :class:`CommunityPolicy` — each broker clusters its local subscriptions
  into semantic communities by greedy leader clustering over a live
  :class:`~repro.core.similarity.SimilarityIndex`, keeps the clustering
  in place under churn, and advertises one pattern per community;
* :class:`HybridPolicy` — per-subscription precision at lightly loaded
  brokers, community aggregation only where it pays: a broker aggregates
  once its live subscription count exceeds ``aggregate_above``.

Scheduling policies (consumed by ``DeliveryEngine``):

* :class:`FifoScheduling` — first come, first served (the baseline);
* :class:`PriorityScheduling` — strict priority by subscriber-class
  weight, FIFO within a class, with optional *aging* (``aging=``) so a
  queued low class's effective weight grows with its wait and starvation
  under sustained overload stays bounded;
* :class:`DeadlineScheduling` — earliest deadline first;
* :class:`WeightedFairScheduling` — long-run class throughput shares
  proportional to configured weights: each selection serves the backlogged
  class furthest below its weighted fair share of the broker's service
  history (which the engine supplies to :meth:`SchedulingPolicy.select_shares`).

Queue admission is a third axis, orthogonal to service order:
:class:`QueuePolicy` bounds each broker's service queue (``capacity=``)
and picks the overflow behaviour — silently drop the arriving document
(``"drop-new"``), evict the oldest queued one (``"drop-oldest"``), or
reject the arrival with a NACK back-pressure signal to its publisher
(``"nack"``).  ``capacity=None`` (the default) is the historical
unbounded queue, byte-identical in replay.

>>> # overlay.advertise(CommunityPolicy(threshold=0.5), provider=corpus)
>>> # overlay.advertise(PerSubscriptionPolicy())
>>> # DeliveryEngine(overlay, scheduling=PriorityScheduling({2: 10.0}))
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import islice, takewhile
from operator import itemgetter
from typing import ClassVar, Iterable, Mapping, Optional, Protocol, Sequence

from repro.core.candidates import CandidateGenerator
from repro.core.pattern import TreePattern
from repro.core.similarity import METRICS, SelectivityProvider, SimilarityIndex
from repro.routing.community import leader_clustering

__all__ = [
    "AdvertisementPolicy",
    "PerSubscriptionPolicy",
    "CommunityPolicy",
    "HybridPolicy",
    "LeaderClusters",
    "SchedulingPolicy",
    "FifoScheduling",
    "PriorityScheduling",
    "DeadlineScheduling",
    "WeightedFairScheduling",
    "QueuedJob",
    "QueuePolicy",
    "OVERFLOW_MODES",
]

#: One aggregated advertisement: the pattern a broker announces and the
#: local subscriber ids it delivers for.
Aggregate = tuple[TreePattern, tuple[int, ...]]

#: What one churn event changes in a broker's aggregation: each member
#: that led an aggregate before the event or leads one after it, and
#: whose aggregate the event may have changed, in ascending order,
#: mapped to its aggregate after the event, or to None where it no
#: longer leads one.  An aggregate's leader is its first member.
Edit = dict[int, Optional[Aggregate]]

#: The communities one event touched: each leader, mapped to its
#: community's member list after the event, or to None where its
#: community dissolved.
_Touched = dict[int, Optional[list[int]]]

_leader = itemgetter(0)


@dataclass
class LeaderClusters:
    """One broker's last leader clustering, kept across churn.

    ``communities`` holds its communities in creation order, each as
    member subscriber ids with the leader first and joiners in placement
    order.  Placement follows the broker's home order, ascending
    subscriber id, so a member's id is its position: each community
    ascends, and the communities ascend by leader.  ``leader_of`` maps
    each member, in placement order, to its community's leader, so one
    departure finds its community by bisection.  ``elected`` maps a
    community's leader to the member it advertises under
    ``elect_by_selectivity``: the first member, in placement order, with
    the highest selectivity.  A community without an entry is elected
    when its aggregate is next built.  The overlay keeps one record per
    broker beside its similarity index and hands it to
    :meth:`AdvertisementPolicy.single_change` and
    :meth:`AdvertisementPolicy.aggregate`; :class:`CommunityPolicy`
    brings it up to date in place, at the costs of the churn table in
    :mod:`repro.routing.overlay`.  Policies never own one: they are
    frozen and shared across brokers.
    """

    communities: list[list[int]] = field(default_factory=list)
    leader_of: dict[int, int] = field(default_factory=dict)
    elected: dict[int, int] = field(default_factory=dict)


def _departure(old: list[int], new: list[int]) -> Optional[int]:
    """The member *new* lacks, when it is *old* with exactly one removed."""
    if len(new) != len(old) - 1:
        return None
    position = next(
        (i for i, (was, kept) in enumerate(zip(old, new)) if was != kept),
        len(new),
    )
    return old[position] if old[position + 1 :] == new[position:] else None


class AdvertisementPolicy:
    """Strategy deciding how a broker advertises its local subscriptions.

    The overlay hands every policy the same inputs — the broker's
    advertised subscriber ids, their patterns, and (for similarity-based
    policies) the broker's live index — and installs whatever
    ``(advertised pattern, member ids)`` entries :meth:`aggregate`
    returns.  Because the overlay diffs successive aggregations, a policy
    is automatically incremental under churn: it only describes the
    *target* state, never the advertisement traffic to reach it.  That
    covers *topology* churn too — when ``BrokerOverlay.remove_broker``
    re-homes a retiring broker's subscriptions onto its merge target,
    the target re-aggregates through the same diff lifecycle (under
    :class:`HybridPolicy`, crossing the cutoff flips its regime
    automatically), and ``add_broker`` seeds a newcomer without any
    policy involvement at all.
    """

    #: Whether the overlay must equip each broker with a live
    #: :class:`~repro.core.similarity.SimilarityIndex` (and therefore
    #: requires a :class:`~repro.core.similarity.SelectivityProvider`).
    uses_similarity = False

    def mode_label(self) -> str:
        """The ``BrokerOverlay.mode`` string advertised state reports."""
        raise NotImplementedError

    def make_index(self, provider: SelectivityProvider) -> Optional[SimilarityIndex]:
        """A fresh per-broker similarity index, or None if unused."""
        return None

    def aggregate(
        self,
        members: Sequence[int],
        patterns: Sequence[TreePattern],
        index: Optional[SimilarityIndex],
        clusters: Optional[LeaderClusters] = None,
    ) -> list[Aggregate]:
        """Turn one broker's advertised subscriptions into advertisements.

        ``members[i]`` subscribes with ``patterns[i]``; both follow the
        broker's home order.  Returns the full target advertisement state
        for the broker — the overlay applies the diff.  *clusters* is the
        broker's clustering record, which a clustering policy may read
        and update in place; without one, it clusters from scratch.

        Each member may lead (come first in) at most one aggregate: the
        overlay records a broker's aggregation keyed by leader and
        raises :class:`ValueError` for a list that repeats one, before it
        changes that broker's routing state.
        """
        raise NotImplementedError

    def single_change(
        self,
        member: int,
        arrived: bool,
        advertised: Mapping[int, TreePattern],
        index: Optional[SimilarityIndex],
        clusters: LeaderClusters,
    ) -> Optional[Edit]:
        """What a single arrival or departure changes, or None.

        *member* has just joined (*arrived*) or left *advertised*, the
        broker's live member -> pattern record in home order, which
        already includes or lacks it, as does *index*, the broker's live
        similarity index; *clusters*, the broker's clustering record, is
        up to date for everything but the event.  A policy whose
        :meth:`aggregate` lists its aggregates in ascending leader order
        may bring its own state up to date and return the :data:`Edit`
        from the aggregation before the event to the one after it: the
        overlay installs and withdraws those aggregates with exactly the
        calls the diff of the two full aggregations would make, and
        never builds either.  ``None`` (the default) asks for that full
        aggregate-and-diff.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@dataclass(frozen=True)
class PerSubscriptionPolicy(AdvertisementPolicy):
    """Advertise every subscription individually (the exact baseline).

    A single subscribe or unsubscribe changes exactly one aggregate, so
    :meth:`single_change` hands it over and the event costs O(1) here.
    """

    def mode_label(self) -> str:
        """The ``BrokerOverlay.mode`` string advertised state reports."""
        return "per_subscription"

    def single_change(
        self,
        member: int,
        arrived: bool,
        advertised: Mapping[int, TreePattern],
        index: Optional[SimilarityIndex],
        clusters: LeaderClusters,
    ) -> Edit:
        """Always the member's own entry, arriving or leaving."""
        return {member: (advertised[member], (member,)) if arrived else None}

    def aggregate(
        self,
        members: Sequence[int],
        patterns: Sequence[TreePattern],
        index: Optional[SimilarityIndex],
        clusters: Optional[LeaderClusters] = None,
    ) -> list[Aggregate]:
        """One advertisement per subscription, in home order."""
        return [
            (pattern, (member,))
            for member, pattern in zip(members, patterns, strict=True)
        ]


@dataclass(frozen=True)
class CommunityPolicy(AdvertisementPolicy):
    """Advertise one pattern per semantic community.

    Each broker clusters its local subscriptions over its live similarity
    index and announces a single representative pattern per community —
    routing state shrinks to one entry per community, delivery quality is
    governed by community coherence (i.e. by the similarity metric).

    Communities are formed by
    :func:`~repro.routing.community.leader_clustering`, the one-pass
    greedy threshold clustering an online broker can afford: a
    subscription joins the first community whose leader's similarity to
    it reaches *threshold* under *metric*, one of the paper's ``M1``,
    ``M2`` and ``M3`` (any other name raises :class:`ValueError` here).
    With ``elect_by_selectivity`` the advertised pattern is the
    community member with the highest selectivity (recall over
    precision); otherwise the clustering's own leader is advertised.

    ``ratio_prefilter`` hands *threshold* to each broker's index as its
    selectivity-ratio bound: pairs whose metric provably cannot reach
    the clustering threshold skip the joint-selectivity call.  Synopsis
    estimators whose joint estimates may break the ``min(P(p), P(q))``
    bound should pass ``ratio_prefilter=False``.

    ``candidates`` restricts which pattern pairs are evaluated at all,
    and this policy is the one place that applies it: a clustering pass
    asks a leaders-only spawn of the
    :class:`~repro.core.candidates.CandidateGenerator` template for each
    pattern's candidate leaders, and placing one arrival against a
    broker's current leaders asks the template's pairwise
    ``is_candidate`` per leader.  The broker's similarity index is asked
    only about the pairs that pass, so LSH-backed community formation
    stays sublinear in the broker's subscription count.  ``None`` keeps
    the historical all-pairs behaviour.  Each broker's index also keeps
    a spawn populated with the broker's subscriptions, which no policy
    queries.

    Churn is incremental: the broker's :class:`LeaderClusters` record,
    elected members included, is updated in place, exactly as a
    from-scratch clustering and election over the new member sequence
    would come out.  One arrival is placed first-fit against the current
    leaders, one departing non-leader leaves its community, and one
    departing leader's community is repaired locally (:meth:`_repair`);
    :meth:`single_change` then elects and aggregates only the
    communities the event touched.  Any other change to the member
    sequence (bursts, topology surgery, a :class:`HybridPolicy` regime
    flip) re-clusters and re-elects the whole broker.  What each event
    costs is the churn table in :mod:`repro.routing.overlay`.
    """

    uses_similarity = True

    threshold: float
    metric: str = "M3"
    elect_by_selectivity: bool = True
    ratio_prefilter: bool = True
    candidates: Optional[CandidateGenerator] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if self.metric not in METRICS:
            raise ValueError(
                f"unknown metric {self.metric!r}; choose from {sorted(METRICS)}"
            )

    def mode_label(self) -> str:
        """The ``BrokerOverlay.mode`` string advertised state reports."""
        return self._label("community", [])

    def _label(self, prefix: str, extra: list[str]) -> str:
        """*prefix*, then the threshold, *extra* and every other field
        off its default, in parentheses."""
        parts = [f"threshold={self.threshold}", *extra]
        if self.metric != "M3":
            parts.append(f"metric={self.metric}")
        if not self.elect_by_selectivity:
            parts.append("elect_by_selectivity=False")
        if not self.ratio_prefilter:
            parts.append("ratio_prefilter=False")
        if self.candidates is not None:
            parts.append(f"candidates={self.candidates.describe()}")
        return f"{prefix}({', '.join(parts)})"

    def make_index(self, provider: SelectivityProvider) -> SimilarityIndex:
        """A fresh per-broker similarity index under this policy's knobs."""
        return SimilarityIndex(
            provider,
            metric=self.metric,
            prune_below=self.threshold if self.ratio_prefilter else None,
            candidates=(
                self.candidates.spawn() if self.candidates is not None else None
            ),
        )

    def _leader_groups(
        self,
        members: Sequence[int],
        pattern_of: Mapping[int, TreePattern],
        index: SimilarityIndex,
    ) -> list[list[int]]:
        """:func:`leader_clustering` of *members*, as member-id lists."""
        return [
            [members[i] for i in community.members]
            for community in leader_clustering(
                [pattern_of[member] for member in members],
                index,
                self.threshold,
                candidates=self.candidates,
            )
        ]

    def _first_fit(
        self,
        pattern: TreePattern,
        groups: Iterable[list[int]],
        pattern_of: Mapping[int, TreePattern],
        index: SimilarityIndex,
    ) -> Optional[list[int]]:
        """The first of *groups* whose leader *pattern* joins.

        The placement step of :func:`leader_clustering`, candidate gate
        included: a leader the generator rules out is never compared,
        even where the threshold is 0.
        """
        generator = self.candidates
        for group in groups:
            leader = pattern_of[group[0]]
            if generator is not None and not generator.is_candidate(leader, pattern):
                continue
            if index(leader, pattern) >= self.threshold:
                return group
        return None

    def _place(
        self,
        member: int,
        pattern_of: Mapping[int, TreePattern],
        index: SimilarityIndex,
        clusters: LeaderClusters,
    ) -> _Touched:
        """First-fit placement of one arrival against the current leaders.

        A joiner takes over its community's election only with a
        strictly higher selectivity: it is the last member, and ``max``
        keeps the first of equals.  Returns the community it joined or
        founded.
        """
        pattern = pattern_of[member]
        group = self._first_fit(pattern, clusters.communities, pattern_of, index)
        if group is None:
            group = [member]
            clusters.communities.append(group)
        else:
            group.append(member)
            elected = clusters.elected.get(group[0])
            if elected is not None:
                standing = index.selectivity(pattern_of[elected])
                if index.selectivity(pattern) > standing:
                    clusters.elected[group[0]] = member
        clusters.leader_of[member] = group[0]
        return {group[0]: group}

    def _depart(
        self,
        member: int,
        pattern_of: Mapping[int, TreePattern],
        index: SimilarityIndex,
        clusters: LeaderClusters,
    ) -> _Touched:
        """Retire one member from the clustering it was part of.

        A non-leader just leaves its community, which loses its election
        only if it was the elected member.  A departing leader's
        community dissolves, with its election, and :meth:`_repair`
        places its followers again.  Returns the communities touched.
        """
        communities = clusters.communities
        elected = clusters.elected
        leader = clusters.leader_of.pop(member)
        at = bisect_left(communities, leader, key=_leader)
        group = communities[at]
        if leader != member:
            group.remove(member)
            if elected.get(leader) == member:
                del elected[leader]
            return {leader: group}
        del communities[at]
        elected.pop(member, None)
        return self._repair(group, pattern_of, index, clusters)

    def _repair(
        self,
        orphaned: list[int],
        pattern_of: Mapping[int, TreePattern],
        index: SimilarityIndex,
        clusters: LeaderClusters,
    ) -> _Touched:
        """Bring *clusters* to the clustering without *orphaned*'s leader.

        Leader clustering is first-fit in creation order and each
        decision depends only on the pair compared, so without that
        leader a member's placement can change in two cases only:

        * it is *lost*: its leader no longer leads, being the departed
          one or captured.  It is placed first-fit again against the
          leaders ahead of it, skipping the old leaders ahead of its old
          one, which failed it before and still do; if none fits, it
          founds a community;
        * a leader founded here, ahead of its own leader, fits it: it is
          *captured*, and a captured leader's followers are lost.

        A worklist visits those members in placement order (ascending
        id), so every earlier placement is final when one is decided.
        *orphaned*'s followers seed it, and each new leader adds the
        later members that the candidate gate admits and whose community
        was founded after it.  A moved member joins its group in
        placement order, and every community whose membership changed is
        elected again.  Returns the communities touched: the dissolved
        ones, the founded ones and those whose membership changed.
        """
        communities = clusters.communities
        elected = clusters.elected
        leader_of = clusters.leader_of
        generator = self.candidates

        def first_fit(
            member: int, groups: Iterable[list[int]], stop: int
        ) -> Optional[list[int]]:
            """The first of *groups* led ahead of *stop* that *member*
            joins."""
            ahead = takewhile(lambda group: group[0] < stop, groups)
            return self._first_fit(pattern_of[member], ahead, pattern_of, index)

        worklist: list[tuple[int, list[int]]] = []
        queued: set[int] = set()
        dissolved = {orphaned[0]}
        founded: list[list[int]] = []
        touched: _Touched = {}

        def enqueue(member: int, group: list[int]) -> None:
            """Queue *member*, which sits in *group*, once."""
            if member not in queued:
                queued.add(member)
                heappush(worklist, (member, group))

        def found(member: int) -> None:
            """Make *member* a leader and queue the later members the gate
            admits for it."""
            later = bisect_right(communities, member, key=_leader)
            communities.insert(later, [member])
            founded.append(communities[later])
            touched[member] = communities[later]
            leader_of[member] = member
            pattern = pattern_of[member]
            for group in communities[later + 1 :]:
                for candidate in group:
                    other = pattern_of[candidate]
                    if generator is None or generator.is_candidate(pattern, other):
                        enqueue(candidate, group)

        for follower in orphaned[1:]:
            enqueue(follower, orphaned)
        while worklist:
            member, group = heappop(worklist)
            leader = group[0]
            target = first_fit(member, founded, leader)
            if leader not in dissolved:
                if target is None:
                    continue
                if leader == member:
                    del communities[bisect_left(communities, member, key=_leader)]
                    dissolved.add(member)
                    for follower in group[1:]:
                        enqueue(follower, group)
                else:
                    group.remove(member)
                    touched[leader] = group
                elected.pop(leader, None)
            elif target is None:
                resume = bisect_right(communities, leader, key=_leader)
                target = first_fit(member, islice(communities, resume, None), member)
                if target is None:
                    found(member)
                    continue
            insort(target, member)
            leader_of[member] = target[0]
            touched[target[0]] = target
            elected.pop(target[0], None)
        touched.update(dict.fromkeys(dissolved))
        return touched

    def _recluster(
        self,
        members: list[int],
        pattern_of: Mapping[int, TreePattern],
        index: SimilarityIndex,
        clusters: LeaderClusters,
    ) -> None:
        """Bring *clusters* to the leader clustering of *members*.

        One arrival at the end of the recorded sequence or one departure
        from it is applied in place; any other difference re-clusters
        from scratch and drops every election.
        """
        old = list(clusters.leader_of)
        if len(members) == len(old) + 1 and members[:-1] == old:
            self._place(members[-1], pattern_of, index, clusters)
        elif (departed := _departure(old, members)) is not None:
            self._depart(departed, pattern_of, index, clusters)
        elif members != old:
            communities = self._leader_groups(members, pattern_of, index)
            leader_of = dict.fromkeys(members, 0)
            for group in communities:
                leader_of.update(dict.fromkeys(group, group[0]))
            clusters.communities = communities
            clusters.leader_of = leader_of
            clusters.elected = {}

    def _elect(
        self,
        group: Sequence[int],
        pattern_of: Mapping[int, TreePattern],
        index: SimilarityIndex,
    ) -> int:
        """The first member of *group* with the highest selectivity."""
        return max(group, key=lambda member: index.selectivity(pattern_of[member]))

    def _aggregate(
        self,
        leader: int,
        group: list[int],
        pattern_of: Mapping[int, TreePattern],
        index: SimilarityIndex,
        elected: dict[int, int],
    ) -> Aggregate:
        """*group*'s advertisement: its elected member's pattern, elected
        now if *elected* holds none for *leader*, or else its leader's."""
        chosen = leader
        if self.elect_by_selectivity:
            if leader not in elected:
                elected[leader] = self._elect(group, pattern_of, index)
            chosen = elected[leader]
        return pattern_of[chosen], tuple(group)

    def single_change(
        self,
        member: int,
        arrived: bool,
        advertised: Mapping[int, TreePattern],
        index: Optional[SimilarityIndex],
        clusters: LeaderClusters,
    ) -> Optional[Edit]:
        """The aggregates of the communities one event touched.

        The broker's *clusters* record is brought up to date in place
        (:meth:`_place`, :meth:`_depart`), and only the communities the
        event touched are elected, if they lack an election, and
        aggregated.
        """
        assert index is not None, "community aggregation needs a live index"
        event = self._place if arrived else self._depart
        touched = event(member, advertised, index, clusters)
        edit: Edit = dict.fromkeys(sorted(touched))
        for leader, group in touched.items():
            if group is not None:
                edit[leader] = self._aggregate(
                    leader, group, advertised, index, clusters.elected
                )
        return edit

    def aggregate(
        self,
        members: Sequence[int],
        patterns: Sequence[TreePattern],
        index: Optional[SimilarityIndex],
        clusters: Optional[LeaderClusters] = None,
    ) -> list[Aggregate]:
        """One advertisement per community over the broker's live index.

        The broker's *clusters* record is brought up to date in place,
        and only communities without an election on record are elected;
        the churn table in :mod:`repro.routing.overlay` states what each
        event costs.
        """
        assert index is not None, "community aggregation needs a live index"
        pattern_of = dict(zip(members, patterns, strict=True))
        if clusters is None:
            clusters = LeaderClusters()
        self._recluster(list(members), pattern_of, index, clusters)
        return [
            self._aggregate(group[0], group, pattern_of, index, clusters.elected)
            for group in clusters.communities
        ]


@dataclass(frozen=True)
class HybridPolicy(CommunityPolicy):
    """Aggregate only where aggregation pays.

    Community aggregation trades delivery precision for routing state;
    at a broker holding a handful of subscriptions there is no state to
    save and the precision loss is pure cost.  This policy keeps
    per-subscription advertisement at brokers whose live subscription
    count is at most ``aggregate_above`` and switches to community
    aggregation beyond it — per-broker, re-evaluated on every churn
    event, so a broker crossing the cutoff in either direction flips
    regime automatically (the overlay's diff turns the flip into the
    minimal advertisement traffic).

    Frozen like its base: policies are held across sweeps and replays.
    ``aggregate_above`` is keyword-only in practice — it sits after the
    inherited defaulted fields.
    """

    aggregate_above: int = 8

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.aggregate_above < 0:
            raise ValueError("aggregate_above must be >= 0")

    def mode_label(self) -> str:
        """The ``BrokerOverlay.mode`` string advertised state reports."""
        return self._label("hybrid", [f"aggregate_above={self.aggregate_above}"])

    def single_change(
        self,
        member: int,
        arrived: bool,
        advertised: Mapping[int, TreePattern],
        index: Optional[SimilarityIndex],
        clusters: LeaderClusters,
    ) -> Optional[Edit]:
        """Always None: an event may carry the broker across its cutoff,
        and under it the broker keeps no clustering to edit."""
        return None

    def aggregate(
        self,
        members: Sequence[int],
        patterns: Sequence[TreePattern],
        index: Optional[SimilarityIndex],
        clusters: Optional[LeaderClusters] = None,
    ) -> list[Aggregate]:
        """Per-subscription under the cutoff, community aggregation above."""
        if len(members) <= self.aggregate_above:
            return [
                (pattern, (member,))
                for member, pattern in zip(members, patterns, strict=True)
            ]
        return super().aggregate(members, patterns, index, clusters)


# ----------------------------------------------------------------------
# scheduling
# ----------------------------------------------------------------------


class QueuedJob(Protocol):
    """What a scheduling policy may read about a queued document.

    The engine's queue entries satisfy this protocol; policies never see
    (or mutate) anything else of the engine.
    """

    doc_index: int
    published_at: float
    arrived_at: float
    priority_class: int
    deadline: Optional[float]


class SchedulingPolicy:
    """Strategy picking the next document a busy broker services.

    :meth:`select` receives the broker's queue (oldest arrival first)
    and the current simulated time, and returns the *queue position* of
    the job to service next.  Policies must be pure functions of their
    arguments — the engine's bit-for-bit replay determinism rests on it.

    Fair-share disciplines additionally need to know how much service
    each class has already received at this broker; a policy that sets
    ``uses_service_shares`` is called through :meth:`select_shares`
    instead, with the engine supplying that history as a read-only
    mapping.  History is engine-owned and reset per run, so the policy
    object itself stays stateless (and frozen) — replays are unaffected.
    """

    #: Whether the engine should call :meth:`select_shares` (passing the
    #: broker's per-class serviced-document counts) instead of
    #: :meth:`select`.
    uses_service_shares: ClassVar[bool] = False

    def select(self, queue: Sequence[QueuedJob], now: float) -> int:
        """The index (into *queue*) of the job to service next."""
        raise NotImplementedError

    def select_shares(
        self,
        queue: Sequence[QueuedJob],
        now: float,
        shares: Mapping[int, int],
    ) -> int:
        """Like :meth:`select`, with the broker's service history.

        ``shares`` maps ``priority_class`` to the number of documents of
        that class this broker has already started servicing.  The
        default delegates to :meth:`select`, so history-blind policies
        never see it.
        """
        return self.select(queue, now)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@dataclass(frozen=True)
class FifoScheduling(SchedulingPolicy):
    """First come, first served — the engine's historical discipline."""

    def select(self, queue: Sequence[QueuedJob], now: float) -> int:
        """Always the head of the queue (oldest arrival)."""
        return 0


@dataclass(frozen=True)
class PriorityScheduling(SchedulingPolicy):
    """Strict priority by subscriber-class weight, FIFO within a class.

    ``weights`` maps a job's ``priority_class`` to its scheduling weight;
    higher weight is served first.  A class without an explicit weight
    uses its own numeric value, so with no weights at all a higher class
    number simply outranks a lower one.  Ties keep arrival order, which
    makes the policy a drop-in FIFO when every job carries one class.

    ``aging`` bounds starvation: a queued job's effective weight is
    ``weight(class) + aging * (now - arrived_at)``, so a low class's
    claim grows linearly with its wait and any job is eventually served
    no matter how heavy the high-class stream — strict priority is the
    ``aging=0`` (default) limit.  Within equal effective weights the
    earliest queue position wins, and queue order is arrival order,
    i.e. the engine's deterministic ``(time, seq)`` order.
    """

    weights: Optional[dict[int, float]] = None
    #: Effective-weight growth per simulated time unit of queue wait;
    #: 0.0 (the default) is historical strict priority, byte-identical.
    aging: float = 0.0

    def __post_init__(self) -> None:
        if self.aging < 0.0:
            raise ValueError("aging rate must be >= 0")
        object.__setattr__(self, "weights", dict(self.weights or {}))

    def weight(self, priority_class: int) -> float:
        """The scheduling weight of one subscriber class."""
        assert self.weights is not None  # normalised in __post_init__
        return self.weights.get(priority_class, float(priority_class))

    def effective_weight(self, job: QueuedJob, now: float) -> float:
        """The class weight plus the job's accumulated aging credit."""
        if self.aging == 0.0:
            return self.weight(job.priority_class)
        return self.weight(job.priority_class) + self.aging * max(
            0.0, now - job.arrived_at
        )

    def select(self, queue: Sequence[QueuedJob], now: float) -> int:
        """The queue position carrying the highest effective weight."""
        # enumerate, not indexing: the engine queues are deques, where
        # positional access is O(position).
        best = 0
        best_weight: Optional[float] = None
        for position, job in enumerate(queue):
            weight = self.effective_weight(job, now)
            if best_weight is None or weight > best_weight:
                best = position
                best_weight = weight
        return best

    def __repr__(self) -> str:
        if self.aging:
            return (
                f"{type(self).__name__}(weights={self.weights}, "
                f"aging={self.aging})"
            )
        return f"{type(self).__name__}(weights={self.weights})"


@dataclass(frozen=True)
class DeadlineScheduling(SchedulingPolicy):
    """Earliest deadline first.

    Jobs published without a deadline fall back to ``published_at +
    default_slack``; with the default infinite slack they yield to every
    deadline-carrying job and keep arrival order among themselves.
    """

    default_slack: float = float("inf")

    def __post_init__(self) -> None:
        if self.default_slack < 0.0:
            raise ValueError("default_slack must be >= 0")

    def _deadline(self, job: QueuedJob) -> float:
        if job.deadline is not None:
            return job.deadline
        return job.published_at + self.default_slack

    def select(self, queue: Sequence[QueuedJob], now: float) -> int:
        """The queue position with the earliest effective deadline."""
        best = 0
        best_deadline: Optional[float] = None
        for position, job in enumerate(queue):
            deadline = self._deadline(job)
            if best_deadline is None or deadline < best_deadline:
                best = position
                best_deadline = deadline
        return best

    def __repr__(self) -> str:
        return f"{type(self).__name__}(default_slack={self.default_slack})"


@dataclass(frozen=True)
class WeightedFairScheduling(SchedulingPolicy):
    """Weighted-fair service: class shares converge to configured weights.

    Each selection serves the backlogged class with the smallest
    *normalised share* — the broker's serviced-document count for the
    class divided by the class's weight — FIFO within the class.  When
    every class stays backlogged this is deficit-round-robin in spirit:
    long-run per-class service counts converge to the weight proportions,
    so under sustained overload the low class keeps a guaranteed fraction
    of the broker instead of starving (the failure mode of strict
    :class:`PriorityScheduling`).

    ``weights`` maps ``priority_class`` to its fair share weight (> 0);
    classes not listed use ``default_weight``.  Service history is
    engine-owned and passed per call (``uses_service_shares``), so the
    policy object itself stays stateless and replays stay bit-identical.
    Ties — equal normalised shares — serve the earliest queue position,
    which is arrival order, i.e. ``(time, seq)`` order.
    """

    weights: Optional[dict[int, float]] = None
    default_weight: float = 1.0

    uses_service_shares: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.default_weight <= 0.0:
            raise ValueError("default_weight must be positive")
        normalised = dict(self.weights or {})
        for priority_class, weight in normalised.items():
            if weight <= 0.0:
                raise ValueError(
                    f"fair-share weight of class {priority_class} must be "
                    "positive"
                )
        object.__setattr__(self, "weights", normalised)

    def weight(self, priority_class: int) -> float:
        """The fair-share weight of one subscriber class."""
        assert self.weights is not None  # normalised in __post_init__
        return self.weights.get(priority_class, self.default_weight)

    def select(self, queue: Sequence[QueuedJob], now: float) -> int:
        """History-blind fallback: fair selection over an empty history.

        Every queued class then has normalised share 0, so the head of
        the queue (earliest arrival) is served — FIFO.  Engines that
        track shares call :meth:`select_shares` instead.
        """
        return self.select_shares(queue, now, {})

    def select_shares(
        self,
        queue: Sequence[QueuedJob],
        now: float,
        shares: Mapping[int, int],
    ) -> int:
        """The earliest job of the most under-served class."""
        best = 0
        best_share: Optional[float] = None
        seen: dict[int, float] = {}
        for position, job in enumerate(queue):
            if job.priority_class in seen:
                # FIFO within a class: only its earliest position counts.
                continue
            share = shares.get(job.priority_class, 0) / self.weight(
                job.priority_class
            )
            seen[job.priority_class] = share
            if best_share is None or share < best_share:
                best = position
                best_share = share
        return best

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(weights={self.weights}, "
            f"default_weight={self.default_weight})"
        )


# ----------------------------------------------------------------------
# queue admission
# ----------------------------------------------------------------------


#: Accepted :attr:`QueuePolicy.overflow` behaviours.
OVERFLOW_MODES = ("drop-new", "drop-oldest", "nack")


@dataclass(frozen=True)
class QueuePolicy:
    """Admission control for a broker's service queue.

    ``capacity`` bounds how many documents may *wait* at a broker (the
    one in service is not counted; ``capacity=0`` is a pure loss system
    with no waiting room).  ``None`` — the default — is the historical
    unbounded queue: the engine's schedule is then byte-identical to the
    pre-queue-policy engine, which the overload property suite pins.

    ``overflow`` picks what happens to an arrival at a full queue:

    * ``"drop-new"`` — the arriving document copy is discarded;
    * ``"drop-oldest"`` — the oldest *queued* copy is evicted to make
      room (the arrival is admitted), so the queue favours fresh data —
      the streaming/telemetry trade;
    * ``"nack"`` — the arrival is rejected and a NACK back-pressure
      signal is scheduled to its publishing source (if it has one; see
      :class:`~repro.routing.engine.ClosedLoopSource`), which is what a
      window-based publisher reacts to.

    Every dropped or nacked copy is accounted per class and per broker in
    :class:`~repro.routing.broker.LatencyStats`, preserving the
    conservation invariant ``offered == completed + dropped + nacked +
    in-flight`` at every drain point.
    """

    capacity: Optional[int] = None
    overflow: str = "drop-new"

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 0:
            raise ValueError("queue capacity must be >= 0 (or None)")
        if self.overflow not in OVERFLOW_MODES:
            raise ValueError(
                f"unknown overflow behaviour {self.overflow!r}; choose "
                f"from {OVERFLOW_MODES}"
            )

    @property
    def bounded(self) -> bool:
        """Whether this policy can ever reject or evict a document."""
        return self.capacity is not None

    def admits(self, queued: int) -> bool:
        """Whether a queue currently holding *queued* documents admits
        one more without overflow handling."""
        return self.capacity is None or queued < self.capacity

    def __repr__(self) -> str:
        if self.capacity is None:
            return f"{type(self).__name__}(capacity=None)"
        return (
            f"{type(self).__name__}(capacity={self.capacity}, "
            f"overflow={self.overflow!r})"
        )
