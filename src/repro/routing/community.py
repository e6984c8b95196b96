"""Semantic communities of subscriptions.

The paper's motivation (Section 1): gather consumers with similar
subscriptions into *semantic communities* so documents can be disseminated
within a community without per-member filtering.  Containment is the wrong
tool (asymmetric, boolean, produces inclusion trees); the similarity metrics
of Section 4 are the right one.  This module provides two standard
clusterings over a pattern similarity function:

* :func:`leader_clustering` — greedy threshold clustering: each pattern
  joins the first community whose *leader* is similar enough, else founds a
  new community.  One pass, order-dependent, O(n · #communities) similarity
  evaluations — the shape of algorithm an online pub/sub broker can afford.
* :func:`agglomerative_clustering` — average-linkage hierarchical
  clustering down to a target community count; quadratic, but a better
  optimiser for offline re-organisation.

Both accept any ``similarity(p, q)`` callable, including a live
:class:`~repro.core.similarity.SimilarityIndex`, whose memos share the
dominant joint-selectivity work across clustering runs (and with the
overlay layer).  :func:`agglomerative_clustering` additionally detects an
index aligned with its pattern population and reads its rows through
the memo; :func:`leader_clustering` stays lazy on purpose — it only ever
needs O(n · #communities) of the n² pairs.

Churn-facing brokers do not re-run a clustering per event.  Leader
clustering is first-fit in creation order and each decision depends only
on the pair compared, so
:class:`~repro.routing.policy.CommunityPolicy` keeps each broker's last
leader clustering, with the member each community elected to advertise,
and updates both in place; bursts, topology surgery and average linkage
re-cluster and re-elect the whole broker.  The churn table in
:mod:`repro.routing.overlay` states what each event costs.

Both also accept a ``candidates=`` template — a
:class:`~repro.core.candidates.CandidateGenerator` such as
:class:`~repro.core.candidates.LSHCandidates` — restricting which pairs
are evaluated at all: leader clustering only compares a pattern against
the community leaders colliding with it (the per-pattern cost drops from
O(#communities) similarity evaluations to O(bands) bucket lookups plus
the few collisions), and agglomerative clustering only evaluates
candidate pairs, scoring the rest 0.  With
:class:`~repro.core.candidates.ExactCandidates` the results are
identical to the un-gated clusterings; with LSH they trade a measured
amount of recall for sublinear candidate generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.candidates import CandidateGenerator
from repro.core.pattern import TreePattern
from repro.core.similarity import SimilarityIndex

__all__ = ["Community", "leader_clustering", "agglomerative_clustering"]

SimilarityFn = Callable[[TreePattern, TreePattern], float]


def _pairwise_values(
    patterns: Sequence[TreePattern],
    similarity: SimilarityFn,
    candidates: Optional[CandidateGenerator] = None,
) -> list[list[float]]:
    """The full symmetric similarity matrix over *patterns*.

    An aligned :class:`SimilarityIndex` (same population, in order)
    evaluates through its memo (only never-seen pairs reach the
    provider); any other callable is evaluated once per unordered pair.
    With a candidate generator, only candidate pairs are evaluated —
    every other entry is scored 0.0 without dispatching the similarity
    callable.
    """
    if candidates is not None:
        generator = candidates.spawn()
        for index, pattern in enumerate(patterns):
            generator.add(index, pattern)
        n = len(patterns)
        sims = [[0.0] * n for _ in range(n)]
        for i in range(n):
            sims[i][i] = 1.0
        for i, j in generator.pairs():
            value = similarity(patterns[i], patterns[j])
            sims[i][j] = value
            sims[j][i] = value
        return sims
    if isinstance(similarity, SimilarityIndex) and similarity.patterns == list(
        patterns
    ):
        handles = similarity.handles()
        rows = [similarity.row(handle) for handle in handles]
        return [
            [row[other] for other in handles] for row in rows
        ]
    n = len(patterns)
    sims = [[0.0] * n for _ in range(n)]
    for i in range(n):
        sims[i][i] = 1.0
        for j in range(i + 1, n):
            value = similarity(patterns[i], patterns[j])
            sims[i][j] = value
            sims[j][i] = value
    return sims


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
    communities: list[Community] = []
    if candidates is None:
        for index, pattern in enumerate(patterns):
            placed = False
            for community in communities:
                if similarity(patterns[community.leader], pattern) >= threshold:
                    community.members.append(index)
                    placed = True
                    break
            if not placed:
                communities.append(Community(leader=index))
        return communities
    generator = candidates.spawn()
    #: leader pattern-index -> its community, in creation order.  Keys
    #: ascend with creation, so sorting candidate leader indices
    #: reproduces the oracle's first-fit order.
    by_leader: dict[int, Community] = {}
    for index, pattern in enumerate(patterns):
        placed = False
        for leader in sorted(generator.candidates_of(pattern)):
            if similarity(patterns[leader], pattern) >= threshold:
                by_leader[leader].members.append(index)
                placed = True
                break
        if not placed:
            community = Community(leader=index)
            communities.append(community)
            by_leader[index] = community
            generator.add(index, pattern)
    return communities


def agglomerative_clustering(
    patterns: Sequence[TreePattern],
    similarity: SimilarityFn,
    n_communities: int,
    min_similarity: float = 0.0,
    candidates: Optional[CandidateGenerator] = None,
) -> list[Community]:
    """Average-linkage agglomerative clustering down to *n_communities*.

    Merging stops early when the best average inter-cluster similarity
    drops below *min_similarity*.  The member most similar to the rest of
    its community becomes the leader.  With a *candidates* template,
    only candidate pairs are evaluated for the similarity matrix — the
    rest score 0, so non-candidate clusters can only merge through
    shared candidate mass.

    Average linkage is cached per cluster pair: after a merge, only the
    pairs involving the merged cluster are recomputed from the similarity
    matrix — every untouched pair keeps its cached sum.  The recomputation
    deliberately iterates members in the same order as a full rescan
    would, so results (including near-tie merge decisions) are
    bit-identical to the naive rescan-everything implementation.
    """
    if n_communities < 1:
        raise ValueError("need at least one community")
    n = len(patterns)
    if n == 0:
        return []

    sims = _pairwise_values(patterns, similarity, candidates)

    # Active cluster uids in creation order (always ascending: merges keep
    # the earlier uid, deletions preserve order); ``members[uid]`` holds
    # pattern indices, ``pair_sum[(u, v)]`` (u < v) the similarity mass
    # between two active clusters, summed over members of u then v.
    uids: list[int] = list(range(n))
    members: dict[int, list[int]] = {uid: [uid] for uid in uids}
    pair_sum: dict[tuple[int, int], float] = {
        (i, j): sims[i][j] for i in range(n) for j in range(i + 1, n)
    }

    def key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    def linkage_sum(u: int, v: int) -> float:
        first, second = (u, v) if u < v else (v, u)
        return sum(
            sims[i][j] for i in members[first] for j in members[second]
        )

    while len(uids) > n_communities:
        best_pair: Optional[tuple[int, int]] = None
        best_score = -1.0
        for a in range(len(uids)):
            for b in range(a + 1, len(uids)):
                u, v = uids[a], uids[b]
                score = pair_sum[key(u, v)] / (len(members[u]) * len(members[v]))
                if score > best_score:
                    best_score = score
                    best_pair = (a, b)
        if best_pair is None or best_score < min_similarity:
            break
        a, b = best_pair
        u, v = uids[a], uids[b]
        members[u].extend(members.pop(v))
        del uids[b]
        pair_sum.pop(key(u, v))
        for w in uids:
            if w != u:
                pair_sum.pop(key(v, w))
                pair_sum[key(u, w)] = linkage_sum(u, w)

    communities: list[Community] = []
    for uid in uids:
        group = members[uid]
        leader = max(
            group,
            key=lambda i: sum(
                1.0 if i == j else sims[i][j] for j in group
            ),
        )
        communities.append(Community(leader=leader, members=list(group)))
    return communities
