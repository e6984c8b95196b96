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
  history (which the engine supplies to every :meth:`SchedulingPolicy.select`).

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

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter
from typing import Iterator, Mapping, Optional, Protocol, Sequence

from repro.core.candidates import CandidateGenerator
from repro.core.pattern import TreePattern
from repro.core.similarity import METRICS, SelectivityProvider, SimilarityIndex
from repro.routing.community import (
    LeaderClusters,
    first_fit,
    leader_clustering,
    place,
)

__all__ = [
    "AdvertisementPolicy",
    "PerSubscriptionPolicy",
    "CommunityPolicy",
    "HybridPolicy",
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


class AdvertisementPolicy:
    """Strategy deciding how a broker advertises its local subscriptions.

    The overlay hands every policy the same inputs — the broker's
    advertised subscriber ids mapped to their patterns, and (for
    similarity-based policies) the broker's live index — and installs
    whatever ``(advertised pattern, member ids)`` entries
    :meth:`aggregate` returns.  Because the overlay diffs successive
    aggregations, a policy is automatically incremental under churn: it
    only describes the *target* state, never the advertisement traffic
    to reach it.  That
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
        advertised: Mapping[int, TreePattern],
        index: Optional[SimilarityIndex],
        clusters: Optional[LeaderClusters] = None,
    ) -> list[Aggregate]:
        """Turn one broker's advertised subscriptions into advertisements.

        *advertised* maps each member to its pattern in the broker's
        home order (ascending id).  Returns the full target
        advertisement state for the broker — the overlay applies the
        diff.  *clusters* is the broker's clustering record, which a
        clustering policy may read and update in place; without one, it
        clusters from scratch.

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
        already includes or lacks it; *index* is the broker's live
        similarity index, and *clusters*, the broker's clustering record,
        is up to date for everything but the event.  A policy whose
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
        advertised: Mapping[int, TreePattern],
        index: Optional[SimilarityIndex],
        clusters: Optional[LeaderClusters] = None,
    ) -> list[Aggregate]:
        """One advertisement per subscription, in home order."""
        return [(pattern, (member,)) for member, pattern in advertised.items()]


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
    and this policy is the one place that applies it: each broker's
    clustering record keeps a leaders-only spawn of the
    :class:`~repro.core.candidates.CandidateGenerator` template
    (:attr:`~repro.routing.community.LeaderClusters.leader_index`),
    which a placement asks once for the leaders it compares.  The
    broker's similarity index is asked only about the pairs that pass,
    so LSH-backed community formation stays sublinear in the broker's
    subscription count.  ``None`` keeps the historical all-pairs
    behaviour.

    Churn is incremental: the broker's
    :class:`~repro.routing.community.LeaderClusters` record, elected
    members included, is updated in place, exactly as a from-scratch
    clustering and election over the new member sequence would come
    out.  One arrival is placed first-fit against the current leaders
    (:func:`~repro.routing.community.place`), one departing non-leader
    leaves its community, and one departing leader's community is
    repaired locally (:meth:`_repair`); :meth:`single_change` then
    elects and aggregates only the communities the event touched.  Any
    other change to the member sequence (bursts, topology surgery, a
    :class:`HybridPolicy` regime flip) re-clusters and re-elects the
    whole broker.  What each event costs is the churn table in
    :mod:`repro.routing.overlay`.
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
        )

    def _place(
        self,
        member: int,
        pattern_of: Mapping[int, TreePattern],
        index: SimilarityIndex,
        clusters: LeaderClusters,
    ) -> _Touched:
        """First-fit placement of one arrival
        (:func:`~repro.routing.community.place`).

        A joiner takes over its community's election only with a
        strictly higher selectivity: it is the last member, and ``max``
        keeps the first of equals.  Returns the community it joined or
        founded.
        """
        if clusters.leader_index is None and self.candidates is not None:
            # Only the empty record of a broker no clustering reached yet
            # lacks its leader index.
            clusters.leader_index = self.candidates.spawn()
        group = place(member, pattern_of, index, self.threshold, clusters)
        elected = clusters.elected.get(group[0])
        if elected is not None:
            standing = index.selectivity(pattern_of[elected])
            if index.selectivity(pattern_of[member]) > standing:
                clusters.elected[group[0]] = member
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
        group = clusters.group_of.pop(member)
        leader = group[0]
        if leader != member:
            group.remove(member)
            if elected.get(leader) == member:
                del elected[leader]
            return {leader: group}
        del communities[bisect_left(communities, member, key=_leader)]
        elected.pop(member, None)
        if clusters.leader_index is not None:
            clusters.leader_index.discard(member)
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
        Each asks :func:`~repro.routing.community.first_fit` about the
        leaders the record compares for it, in creation order, that it
        may move to.  *orphaned*'s followers seed the worklist, and each
        new leader adds the later members that the candidate gate admits
        and whose community was founded after it.  A moved member joins
        its group in placement order, and every community whose
        membership changed is elected again.  Returns the communities
        touched: the dissolved ones, the founded ones and those whose
        membership changed.
        """
        communities = clusters.communities
        group_of = clusters.group_of
        elected = clusters.elected
        generator = self.candidates
        leaders = clusters.leader_index
        worklist: list[tuple[int, list[int]]] = []
        queued: set[int] = set()
        dissolved = {orphaned[0]}
        founded: set[int] = set()
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
            group = [member]
            communities.insert(later, group)
            founded.add(member)
            touched[member] = group_of[member] = group
            pattern = pattern_of[member]
            if leaders is not None:
                leaders.add(member, pattern)
            for after in communities[later + 1 :]:
                for candidate in after:
                    other = pattern_of[candidate]
                    if generator is None or generator.is_candidate(pattern, other):
                        enqueue(candidate, after)

        def movable(member: int, leader: int, lost: bool) -> Iterator[int]:
            """The leaders *member*, led by *leader*, may move to, in
            creation order: those founded here ahead of *leader* and, once
            *lost*, every leader between *leader* and *member*."""
            stop = member if lost else leader
            for other in clusters.leaders_for(pattern_of[member]):
                if other >= stop:
                    return
                if other in founded or (lost and other > leader):
                    yield other

        for follower in orphaned[1:]:
            enqueue(follower, orphaned)
        while worklist:
            member, group = heappop(worklist)
            leader = group[0]
            lost = leader in dissolved
            target = first_fit(
                pattern_of[member],
                movable(member, leader, lost),
                pattern_of,
                index,
                self.threshold,
            )
            if target is None:
                if lost:
                    found(member)
                continue
            if not lost:
                if leader == member:
                    del communities[bisect_left(communities, member, key=_leader)]
                    dissolved.add(member)
                    if leaders is not None:
                        leaders.discard(member)
                    for follower in group[1:]:
                        enqueue(follower, group)
                else:
                    group.remove(member)
                    touched[leader] = group
                elected.pop(leader, None)
            joined = group_of[target]
            insort(joined, member)
            touched[target] = group_of[member] = joined
            elected.pop(target, None)
        touched.update(dict.fromkeys(dissolved))
        return touched

    def _recluster(
        self,
        pattern_of: Mapping[int, TreePattern],
        index: SimilarityIndex,
        clusters: LeaderClusters,
    ) -> None:
        """Bring *clusters* to the leader clustering of *pattern_of*.

        A record of another member sequence takes over a fresh
        :func:`leader_clustering`, leader index included, dropping every
        election; a single event is applied in place by
        :meth:`single_change` instead.
        """
        # Both ascend, so equal key sets are equal member sequences.
        if clusters.group_of.keys() == pattern_of.keys():
            return
        fresh = leader_clustering(
            pattern_of, index, self.threshold, candidates=self.candidates
        )
        vars(clusters).update(vars(fresh))

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
        group: list[int],
        pattern_of: Mapping[int, TreePattern],
        index: SimilarityIndex,
        elected: dict[int, int],
    ) -> Aggregate:
        """*group*'s advertisement: its elected member's pattern, elected
        now if *elected* holds none for its leader, or else its
        leader's."""
        chosen = leader = group[0]
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
                    group, advertised, index, clusters.elected
                )
        return edit

    def aggregate(
        self,
        advertised: Mapping[int, TreePattern],
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
        if clusters is None:
            clusters = LeaderClusters()
        self._recluster(advertised, index, clusters)
        return [
            self._aggregate(group, advertised, index, clusters.elected)
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
        if not isinstance(self.aggregate_above, int) or self.aggregate_above < 0:
            raise ValueError("aggregate_above must be an integer >= 0")

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
        """The community edit while the broker stays above its cutoff,
        else None: at or under the cutoff the broker keeps no clustering
        to edit, so an event there, or one that crosses the cutoff, takes
        the full path."""
        # The broker's size before an arrival, or after a departure.
        smaller = len(advertised) - 1 if arrived else len(advertised)
        if smaller <= self.aggregate_above:
            return None
        return super().single_change(member, arrived, advertised, index, clusters)

    def aggregate(
        self,
        advertised: Mapping[int, TreePattern],
        index: Optional[SimilarityIndex],
        clusters: Optional[LeaderClusters] = None,
    ) -> list[Aggregate]:
        """Per-subscription under the cutoff, community aggregation above.

        Under the cutoff no event brings *clusters* up to date, so it is
        emptied: it names no departed leader and holds no leader index.
        """
        if len(advertised) <= self.aggregate_above:
            if clusters is not None:
                vars(clusters).update(vars(LeaderClusters()))
            return [(pattern, (member,)) for member, pattern in advertised.items()]
        return super().aggregate(advertised, index, clusters)


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

    :meth:`select` receives the broker's queue (oldest arrival first),
    the current simulated time and the broker's service history, and
    returns the *queue position* of the job to service next.  Policies
    must be pure functions of their arguments — the engine's bit-for-bit
    replay determinism rests on it.  History is engine-owned and reset
    per run, so the policy object itself stays stateless (and frozen) —
    replays are unaffected.
    """

    def select(
        self,
        queue: Sequence[QueuedJob],
        now: float,
        shares: Mapping[int, int],
    ) -> int:
        """The index (into *queue*) of the job to service next.

        ``shares`` maps ``priority_class`` to the number of documents of
        that class this broker has already started servicing, as a
        read-only mapping; fair-share disciplines read it.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@dataclass(frozen=True)
class FifoScheduling(SchedulingPolicy):
    """First come, first served — the engine's historical discipline."""

    def select(
        self,
        queue: Sequence[QueuedJob],
        now: float,
        shares: Mapping[int, int],
    ) -> int:
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
        # NaN fails every comparison, and an infinite rate times a zero
        # wait is NaN: either would serve another order silently.
        if not 0.0 <= self.aging < math.inf:
            raise ValueError("aging rate must be finite and >= 0")
        weights = dict(self.weights or {})
        if any(map(math.isnan, weights.values())):
            raise ValueError("priority weights must not be NaN")
        object.__setattr__(self, "weights", weights)

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

    def select(
        self,
        queue: Sequence[QueuedJob],
        now: float,
        shares: Mapping[int, int],
    ) -> int:
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
        # Written so that NaN, which fails every comparison, is refused.
        if not self.default_slack >= 0.0:
            raise ValueError("default_slack must be >= 0")

    def _deadline(self, job: QueuedJob) -> float:
        if job.deadline is not None:
            return job.deadline
        return job.published_at + self.default_slack

    def select(
        self,
        queue: Sequence[QueuedJob],
        now: float,
        shares: Mapping[int, int],
    ) -> int:
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
    engine-owned and passed to every :meth:`select`, so the policy
    object itself stays stateless and replays stay bit-identical.
    Ties — equal normalised shares — serve the earliest queue position,
    which is arrival order, i.e. ``(time, seq)`` order.
    """

    weights: Optional[dict[int, float]] = None
    default_weight: float = 1.0

    def __post_init__(self) -> None:
        # Written so that NaN, which fails every comparison, is refused.
        if not self.default_weight > 0.0:
            raise ValueError("default_weight must be positive")
        normalised = dict(self.weights or {})
        for priority_class, weight in normalised.items():
            if not weight > 0.0:
                raise ValueError(
                    f"fair-share weight of class {priority_class} must be "
                    "positive"
                )
        object.__setattr__(self, "weights", normalised)

    def weight(self, priority_class: int) -> float:
        """The fair-share weight of one subscriber class."""
        assert self.weights is not None  # normalised in __post_init__
        return self.weights.get(priority_class, self.default_weight)

    def select(
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
        # NaN would refuse every arrival at a busy broker, and 2.5 admit
        # a third waiting document.
        if self.capacity is not None and (
            not isinstance(self.capacity, int) or self.capacity < 0
        ):
            raise ValueError("queue capacity must be an integer >= 0 (or None)")
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
