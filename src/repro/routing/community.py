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

Churn-facing brokers do not re-run the clustering per event.  Leader
clustering is first-fit in creation order and each decision depends only
on the pair compared, so
:class:`~repro.routing.policy.CommunityPolicy` keeps each broker's last
leader clustering, with the member each community elected to advertise,
and updates both in place; bursts and topology surgery re-cluster and
re-elect the whole broker.  The churn table in
:mod:`repro.routing.overlay` states what each event costs.

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
from typing import Callable, Iterable, Optional, Sequence

from repro.core.candidates import CandidateGenerator
from repro.core.pattern import TreePattern

__all__ = ["Community", "leader_clustering"]

SimilarityFn = Callable[[TreePattern, TreePattern], float]


@dataclass
class Community:
    """A group of subscription indices with a designated leader."""

    leader: int
    members: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.leader not in self.members:
            self.members.append(self.leader)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, index: int) -> bool:
        return index in self.members


def leader_clustering(
    patterns: Sequence[TreePattern],
    similarity: SimilarityFn,
    threshold: float,
    candidates: Optional[CandidateGenerator] = None,
) -> list[Community]:
    """Greedy threshold clustering of *patterns*.

    Each pattern is compared against existing community leaders in creation
    order and joins the first community with ``similarity >= threshold``;
    otherwise it becomes the leader of a new community.  ``threshold=1.0``
    therefore yields (near-)equivalence classes and ``threshold=0.0`` a
    single community.

    With a *candidates* template, only the leaders the generator reports
    as candidates of the incoming pattern are compared — still in
    community-creation order, so
    :class:`~repro.core.candidates.ExactCandidates` (whose candidate set
    is every leader) reproduces the un-gated clustering exactly, while
    :class:`~repro.core.candidates.LSHCandidates` makes placement cost
    independent of the total community count.  The template itself is
    never mutated: a fresh spawn holds the leaders-only population.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    generator = None if candidates is None else candidates.spawn()
    #: leader pattern-index -> its community, in creation order.  Keys
    #: ascend with creation, so sorting candidate leader indices
    #: reproduces the oracle's first-fit order.
    by_leader: dict[int, Community] = {}
    for index, pattern in enumerate(patterns):
        leaders: Iterable[int] = by_leader
        if generator is not None:
            leaders = sorted(generator.candidates_of(pattern))
        for leader in leaders:
            if similarity(patterns[leader], pattern) >= threshold:
                by_leader[leader].members.append(index)
                break
        else:
            by_leader[index] = Community(leader=index)
            if generator is not None:
                generator.add(index, pattern)
    return list(by_leader.values())

