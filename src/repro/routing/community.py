"""Semantic communities of subscriptions.

The paper's motivation (Section 1): gather consumers with similar
subscriptions into *semantic communities* so documents can be disseminated
within a community without per-member filtering.  Containment is the wrong
tool (asymmetric, boolean, produces inclusion trees); the similarity metrics
of Section 4 are the right one.  This module provides the clustering
communities are formed by, :func:`leader_clustering`: greedy threshold
clustering in which each pattern joins the first community whose *leader*
is similar enough, else founds a new community.  One pass,
order-dependent, O(n · #communities) similarity evaluations — the shape
of algorithm an online pub/sub broker can afford.

It accepts any ``similarity(p, q)`` callable, including a live
:class:`~repro.core.similarity.SimilarityIndex`, whose memos share the
dominant joint-selectivity work across clustering runs (and with the
overlay layer).  It stays lazy on purpose: it only ever needs
O(n · #communities) of the n² pairs.

The clustering is a :class:`LeaderClusters` record, and :func:`place`,
its one placement rule, builds it member by member.  Churn-facing
brokers do not re-run the clustering per event.  Leader clustering is
first-fit in creation order and each decision depends only on the pair
compared, so :class:`~repro.routing.policy.CommunityPolicy` keeps each
broker's record, with the member each community elected to advertise,
places an arrival with the same :func:`place` and updates the rest in
place; other changes to a broker's members re-cluster it.  The churn
table in :mod:`repro.routing.overlay` states what each event costs.

A ``candidates=`` template — a
:class:`~repro.core.candidates.CandidateGenerator` such as
:class:`~repro.core.candidates.LSHCandidates` — restricts which pairs
are evaluated at all: a pattern is only compared against the community
leaders colliding with it, so the per-pattern cost drops from
O(#communities) similarity evaluations to O(bands) bucket lookups plus
the few collisions.  With :class:`~repro.core.candidates.ExactCandidates`
the result is identical to the un-gated clustering; with LSH it trades
a measured amount of recall for sublinear candidate generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import ge
from typing import Callable, Iterable, Mapping, Optional

from repro.core.candidates import CandidateGenerator
from repro.core.pattern import TreePattern

__all__ = ["LeaderClusters", "first_fit", "leader_clustering", "place"]

SimilarityFn = Callable[[TreePattern, TreePattern], float]


@dataclass
class LeaderClusters:
    """A leader clustering, kept across churn by each broker.

    ``communities`` holds its communities in creation order, each as a
    list of member keys with the leader first and joiners in placement
    order.  Members are placed in ascending key order, so each community
    ascends, and the communities ascend by leader.  ``group_of`` maps
    each member, in placement order, to its community's list, so a
    placement or a departure finds a community by lookup.  ``elected``
    maps a community's leader to the member it advertises under
    :class:`~repro.routing.policy.CommunityPolicy`'s
    ``elect_by_selectivity``: the first member, in placement order, with
    the highest selectivity; a community without an entry is elected
    when its aggregate is next built.  Under a candidate gate,
    ``leader_index`` is a spawn of the gate's
    :class:`~repro.core.candidates.CandidateGenerator` template holding
    each leader's pattern under the leader's key, exactly the leaders of
    ``communities``, so one ``candidates_of`` lookup names the leaders a
    placement compares; it is None where every leader is compared.  The
    overlay keeps one record per broker beside its similarity index and
    hands it to the advertisement policy, which brings it up to date in
    place at the costs of the churn table in
    :mod:`repro.routing.overlay`.  Policies never own one: they are
    frozen and shared across brokers.
    """

    communities: list[list[int]] = field(default_factory=list)
    group_of: dict[int, list[int]] = field(default_factory=dict)
    elected: dict[int, int] = field(default_factory=dict)
    leader_index: Optional[CandidateGenerator] = None

    def leaders_for(self, pattern: TreePattern) -> Iterable[int]:
        """The leaders a placement of *pattern* compares, in creation
        order: those the leader index returns for it, or, without one,
        every leader, read lazily so a first fit stops the walk."""
        if self.leader_index is None:
            return (group[0] for group in self.communities)
        return sorted(self.leader_index.candidates_of(pattern))


def first_fit(
    pattern: TreePattern,
    leaders: Iterable[int],
    pattern_of: Mapping[int, TreePattern],
    similarity: SimilarityFn,
    threshold: float,
) -> Optional[int]:
    """The first of *leaders* whose pattern *pattern* joins, or None."""
    for leader in leaders:
        if similarity(pattern_of[leader], pattern) >= threshold:
            return leader
    return None


def place(
    member: int,
    pattern_of: Mapping[int, TreePattern],
    similarity: SimilarityFn,
    threshold: float,
    clusters: LeaderClusters,
) -> list[int]:
    """Place *member* first-fit in *clusters*; returns the community it
    joined or founded.

    *member* follows every member of *clusters* in key order.  It joins
    the first community, among the leaders the record compares
    (:meth:`LeaderClusters.leaders_for`), whose leader's pattern has
    ``similarity >= threshold`` to its own; when none has, it founds a
    community, last in creation order, and joins the leader index.
    """
    pattern = pattern_of[member]
    leader = first_fit(
        pattern, clusters.leaders_for(pattern), pattern_of, similarity, threshold
    )
    if leader is None:
        group = [member]
        clusters.communities.append(group)
        if clusters.leader_index is not None:
            clusters.leader_index.add(member, pattern)
    else:
        group = clusters.group_of[leader]
        group.append(member)
    clusters.group_of[member] = group
    return group


def leader_clustering(
    pattern_of: Mapping[int, TreePattern],
    similarity: SimilarityFn,
    threshold: float,
    candidates: Optional[CandidateGenerator] = None,
) -> LeaderClusters:
    """Greedy threshold clustering of *pattern_of*'s patterns, by key.

    Each member is placed (:func:`place`) in key order: it is compared
    against the existing community leaders in creation order and joins
    the first community with ``similarity >= threshold``; otherwise it
    becomes the leader of a new community.  ``threshold=1.0`` therefore
    yields (near-)equivalence classes and ``threshold=0.0`` a single
    community.  The keys must ascend in mapping order, the order
    communities are created and compared in; :class:`ValueError`
    otherwise.

    With a *candidates* template, only the leaders the generator reports
    as candidates of the incoming pattern are compared — still in
    community-creation order, so
    :class:`~repro.core.candidates.ExactCandidates` (whose candidate set
    is every leader) reproduces the un-gated clustering exactly, while
    :class:`~repro.core.candidates.LSHCandidates` makes placement cost
    independent of the total community count.  The template itself is
    never mutated: a fresh spawn holds the leaders-only population and
    is the record's ``leader_index``.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    members = list(pattern_of)
    if any(map(ge, members, members[1:])):
        raise ValueError("leader clustering needs keys that ascend in order")
    clusters = LeaderClusters(
        leader_index=None if candidates is None else candidates.spawn()
    )
    for member in members:
        place(member, pattern_of, similarity, threshold, clusters)
    return clusters
