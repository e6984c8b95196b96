"""Tree-pattern proximity metrics (Section 4).

Given any provider of selectivities — a synopsis-backed
:class:`~repro.core.selectivity.SelectivityEstimator` or the exact
:class:`~repro.experiments.ground_truth.GroundTruth` — three metrics estimate
``(p ∼ q)``:

* ``M1(p, q) = P(p | q) = P(p ∧ q) / P(q)`` — asymmetric conditional;
* ``M2(p, q) = (P(p|q) + P(q|p)) / 2`` — symmetrised conditional;
* ``M3(p, q) = P(p ∧ q) / P(p ∨ q)`` — joint-to-union ratio (a Jaccard
  index over the matched document sets).

``P(p ∧ q)`` uses the root-merge construction; ``P(p ∨ q)`` follows by
inclusion-exclusion.  All metrics return values in [0, 1]; pairs whose
denominator is zero (a pattern that matches nothing) evaluate to 0.
Canonically equal patterns short-circuit: their similarity is exactly 1.0
under every metric whenever they match anything at all, without paying for
a joint-selectivity evaluation.

The metric functions in :data:`METRICS` score one pair; a broker scores
its pairs through a :class:`SimilarityIndex`, which evaluates one metric
over one provider with memoised selectivities, a root-anchor prefilter
and an optional selectivity-ratio bound, with :class:`IndexStats`
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol

from repro.core.labels import is_tag
from repro.core.pattern import TreePattern

__all__ = [
    "SelectivityProvider",
    "m1_conditional",
    "m2_mean_conditional",
    "m3_joint_over_union",
    "METRICS",
    "IndexStats",
    "SimilarityIndex",
]


class SelectivityProvider(Protocol):
    """Anything that can score patterns: estimators and ground truth alike."""

    def selectivity(self, pattern: TreePattern) -> float:
        """``P(p)`` — probability a stream document matches *pattern*."""
        ...

    def joint_selectivity(self, p: TreePattern, q: TreePattern) -> float:
        """``P(p ∧ q)`` — probability a document matches both patterns."""
        ...


def _clamp(value: float) -> float:
    return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value


def _self_similarity(provider: SelectivityProvider, p: TreePattern) -> float:
    """Similarity of a pattern with itself: 1 when it matches anything."""
    return 1.0 if provider.selectivity(p) > 0.0 else 0.0


def m1_conditional(
    provider: SelectivityProvider, p: TreePattern, q: TreePattern
) -> float:
    """``M1(p, q) = P(p ∧ q) / P(q)`` — probability of p given q."""
    if p == q:
        return _self_similarity(provider, p)
    denominator = provider.selectivity(q)
    if denominator <= 0.0:
        return 0.0
    return _clamp(provider.joint_selectivity(p, q) / denominator)


def m2_mean_conditional(
    provider: SelectivityProvider, p: TreePattern, q: TreePattern
) -> float:
    """``M2(p, q) = (P(p|q) + P(q|p)) / 2`` — symmetric mean conditional."""
    if p == q:
        return _self_similarity(provider, p)
    sel_p = provider.selectivity(p)
    sel_q = provider.selectivity(q)
    if sel_p <= 0.0 or sel_q <= 0.0:
        return 0.0
    joint = provider.joint_selectivity(p, q)
    return _clamp(joint * (1.0 / sel_p + 1.0 / sel_q) / 2.0)


def m3_joint_over_union(
    provider: SelectivityProvider, p: TreePattern, q: TreePattern
) -> float:
    """``M3(p, q) = P(p ∧ q) / P(p ∨ q)`` — Jaccard over matched documents."""
    if p == q:
        return _self_similarity(provider, p)
    joint = provider.joint_selectivity(p, q)
    union = provider.selectivity(p) + provider.selectivity(q) - joint
    if union <= 0.0:
        return 0.0
    return _clamp(joint / union)


#: Registry keyed by the paper's metric names.
METRICS: dict[str, Callable[[SelectivityProvider, TreePattern, TreePattern], float]] = {
    "M1": m1_conditional,
    "M2": m2_mean_conditional,
    "M3": m3_joint_over_union,
}

#: Sentinel distinguishing "anchor not cached" from a cached ``None``.
_UNSET = object()


@dataclass
class IndexStats:
    """Provider-call accounting of one :class:`SimilarityIndex`.

    ``joint_evaluated`` counts the distinct unordered pattern pairs whose
    joint selectivity reached the provider; ``joint_pruned`` the distinct
    pairs the root-anchor prefilter answered with 0 instead;
    ``joint_ratio_pruned`` the distinct pairs the selectivity-ratio bound
    skipped (their metric provably cannot reach ``prune_below``).  Under
    M1 that bound depends on the conditioning side, so there it counts
    *directed* pairs.  Pruned versus evaluated is exactly the
    sparse-evaluation saving.

    ``label_overlap_pruned`` and ``candidate_pruned`` are never
    incremented and always read 0: the index prunes by neither label
    overlap nor candidate generation, because the clustering gates every
    pair before it asks.  They stay because the pipeline benchmark's
    per-layer report (``benchmarks/pipeline/pipeline_workloads.py``)
    reads both.
    """

    joint_evaluated: int = 0
    joint_pruned: int = 0
    joint_ratio_pruned: int = 0
    label_overlap_pruned: int = 0
    candidate_pruned: int = 0
    selectivity_evaluated: int = 0

    @property
    def prune_ratio(self) -> float:
        """Fraction of decided joint pairs a prefilter answered."""
        pruned = self.joint_pruned + self.joint_ratio_pruned
        decided = self.joint_evaluated + pruned
        if decided == 0:
            return 0.0
        return pruned / decided


class SimilarityIndex:
    """One broker's memoising, pruning evaluator of one *metric*.

    A broker clusters a churning subscription population, and the joint
    selectivities its clusterings ask for dominate the cost.  This index
    answers ``index(p, q)`` for one provider and one *metric*, and keeps
    that work from repeating:

    * **memos** — selectivities are memoised per distinct pattern and
      joint selectivities per unordered distinct pattern pair, so only
      pairs never seen before reach the provider, across clustering runs
      and churn events alike.  The memos are never evicted, so they grow
      with every distinct pattern and pair decided (:attr:`memo_size`).
    * **root-anchor prefilter** — for ``//``-free patterns every
      root-level tag child pins the *document root's* tag (Section 2 root
      semantics), so two such patterns anchored at disjoint tag sets can
      never match a common document: ``P(p ∧ q)`` is provably 0 and the
      provider call is skipped (``stats.joint_pruned``).  Always on: it
      is sound for exact providers by construction, and for a synopsis
      estimator it answers the true 0 where the estimate could only err
      above it.
    * **selectivity-ratio prefilter** (``prune_below``) — every metric is
      capped by a function of the marginal selectivities alone, because
      ``P(p ∧ q) ≤ min(P(p), P(q))``:

      - ``M3(p, q) ≤ min(P(p), P(q)) / max(P(p), P(q))`` (the joint is
        also bounded below the union);
      - ``M2(p, q) ≤ (1 + min/max) / 2``;
      - ``M1(p, q) ≤ min(P(p), P(q)) / P(q)`` (direction-dependent).

      When a caller only thresholds similarities (leader clustering at a
      fixed threshold), a pair whose bound already falls below the
      threshold is answered 0.0 without the joint-selectivity call — the
      two single-pattern selectivities it needs are memoised and shared
      anyway.  Sound for providers whose joint estimates respect the min
      bound (exact providers by construction); pairs whose joint value is
      already memoised return the exact value instead.  Accounted in
      ``stats.joint_ratio_pruned``.

    Which pairs are compared at all is decided before the index is
    asked, by :func:`~repro.routing.community.leader_clustering` and
    :class:`~repro.routing.policy.CommunityPolicy`.

    The index implements the :class:`SelectivityProvider` protocol
    (memoising, pruning pass-through) so the M1/M2/M3 callables evaluate
    through it unchanged, and it is directly usable as the
    ``similarity(p, q)`` callable expected by :mod:`repro.routing.community`.

    >>> # index = SimilarityIndex(provider, metric="M3", prune_below=0.5)
    >>> # index(p, q)                 # evaluates the pair once
    >>> # index(q, p)                 # answered from the memos
    """

    def __init__(
        self,
        provider: SelectivityProvider,
        metric: str = "M3",
        prune_below: Optional[float] = None,
    ) -> None:
        if metric not in METRICS:
            raise ValueError(
                f"unknown metric {metric!r}; choose from {sorted(METRICS)}"
            )
        if prune_below is not None and not 0.0 <= prune_below <= 1.0:
            raise ValueError("prune_below must be in [0, 1]")
        self.provider = provider
        self.metric = metric
        self.prune_below = prune_below
        self.stats = IndexStats()
        self._metric_fn = METRICS[metric]
        self._selectivity_memo: dict[TreePattern, float] = {}
        self._joint_memo: dict[frozenset[TreePattern], float] = {}
        #: Pairs the selectivity-ratio bound answered, so the stats
        #: counters stay distinct-pair counts like the others.  Keys are
        #: frozensets for the symmetric metrics and ordered tuples for
        #: M1, whose bound depends on the conditioning direction.
        self._ratio_pruned: set = set()
        #: Root-anchor cache: frozenset of root tag labels for prunable
        #: (``//``-free, tag-anchored) patterns, None for unprunable ones.
        self._anchor_memo: dict[TreePattern, Optional[frozenset[str]]] = {}

    @property
    def memo_size(self) -> int:
        """Memoised entries held: selectivities plus joint pairs."""
        return len(self._selectivity_memo) + len(self._joint_memo)

    # -- memoised, pruning SelectivityProvider protocol ----------------------

    def selectivity(self, pattern: TreePattern) -> float:
        """``P(p)`` from the provider, computed once per distinct pattern."""
        cached = self._selectivity_memo.get(pattern)
        if cached is None:
            self.stats.selectivity_evaluated += 1
            cached = self.provider.selectivity(pattern)
            self._selectivity_memo[pattern] = cached
        return cached

    def _root_anchors(self, pattern: TreePattern) -> Optional[frozenset[str]]:
        """The root tag labels pinning the document root, or None.

        Only ``//``-free patterns with at least one tag-labelled root child
        participate: each such child requires the document root to carry
        exactly that tag, so the anchor set must be satisfiable jointly.
        """
        cached = self._anchor_memo.get(pattern, _UNSET)
        if cached is not _UNSET:
            return cached
        anchors: Optional[frozenset[str]] = None
        if not pattern.has_descendant_ops():
            tags = frozenset(
                child.label
                for child in pattern.root_children
                if is_tag(child.label)
            )
            anchors = tags or None
        self._anchor_memo[pattern] = anchors
        return anchors

    def joint_selectivity(self, p: TreePattern, q: TreePattern) -> float:
        """``P(p ∧ q)``, computed once per unordered distinct pattern pair.

        Pairs of ``//``-free patterns whose root tag anchors are disjoint
        are answered 0 without a provider call: the document root would
        have to carry two different tags at once.
        """
        key = frozenset((p, q))
        cached = self._joint_memo.get(key)
        if cached is not None:
            return cached
        if p != q:
            anchors_p = self._root_anchors(p)
            anchors_q = self._root_anchors(q)
            if (
                anchors_p is not None
                and anchors_q is not None
                and anchors_p.isdisjoint(anchors_q)
            ):
                self.stats.joint_pruned += 1
                self._joint_memo[key] = 0.0
                return 0.0
        self.stats.joint_evaluated += 1
        value = self.provider.joint_selectivity(p, q)
        self._joint_memo[key] = value
        return value

    # -- metric evaluation ---------------------------------------------------

    def _marginal_bound(self, p: TreePattern, q: TreePattern) -> float:
        """An upper bound on ``metric(p, q)`` from the marginals alone.

        All three metrics are capped through ``P(p ∧ q) ≤ min(P(p),
        P(q))``: M3 by ``min/max`` (the union is at least the max), M2 by
        ``(1 + min/max) / 2``, and M1 — which conditions on *q* — by
        ``min / P(q)``.
        """
        sel_p = self.selectivity(p)
        sel_q = self.selectivity(q)
        low = min(sel_p, sel_q)
        high = max(sel_p, sel_q)
        if high <= 0.0:
            return 0.0
        if self.metric == "M1":
            # A zero-selectivity conditioning side makes M1 exactly 0.
            return 0.0 if sel_q <= 0.0 else min(1.0, low / sel_q)
        ratio = low / high
        if self.metric == "M2":
            return (1.0 + ratio) / 2.0
        return ratio

    def __call__(self, p: TreePattern, q: TreePattern) -> float:
        """The configured metric on *p*, *q*, through the memos and the
        prefilters: the index is a drop-in ``SimilarityFn`` for the
        routing layer.

        With ``prune_below`` set, a never-seen pair whose marginal bound
        (:meth:`_marginal_bound`) already pins the metric below the
        threshold is answered 0.0 without touching the joint memo or the
        provider; an already-memoised pair keeps returning its exact
        value.
        """
        if self.prune_below is not None and p != q:
            key = frozenset((p, q))
            if (
                key not in self._joint_memo
                and self._marginal_bound(p, q) < self.prune_below
            ):
                # M1's bound is direction-dependent, so its distinct
                # accounting is too.
                pruned_key = (p, q) if self.metric == "M1" else key
                if pruned_key not in self._ratio_pruned:
                    self._ratio_pruned.add(pruned_key)
                    self.stats.joint_ratio_pruned += 1
                return 0.0
        return self._metric_fn(self, p, q)

    # -- introspection -------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"SimilarityIndex(metric={self.metric!r}, "
            f"joint_pairs={self.stats.joint_evaluated}, "
            f"pruned={self.stats.joint_pruned})"
        )
