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

:class:`SimilarityIndex` amortises the dominant joint-selectivity cost
across queries over a *mutable* population under subscription churn
(handle-based ``add``/``remove``, lazily evaluated rows, a
tag-disjointness prefilter with :class:`IndexStats` accounting).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Protocol

from repro.core.candidates import CandidateGenerator
from repro.core.labels import is_tag
from repro.core.pattern import TreePattern

__all__ = [
    "SelectivityProvider",
    "m1_conditional",
    "m2_mean_conditional",
    "m3_joint_over_union",
    "METRICS",
    "SimilarityEstimator",
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


class SimilarityEstimator:
    """Convenience wrapper evaluating proximity metrics over one provider.

    >>> # with `est` a SelectivityEstimator or GroundTruth:
    >>> # SimilarityEstimator(est).similarity(p, q, metric="M3")
    """

    def __init__(self, provider: SelectivityProvider) -> None:
        self.provider = provider

    def similarity(
        self, p: TreePattern, q: TreePattern, metric: str = "M3"
    ) -> float:
        """Proximity of *p* and *q* under the chosen metric."""
        try:
            fn = METRICS[metric]
        except KeyError:
            raise ValueError(
                f"unknown metric {metric!r}; choose from {sorted(METRICS)}"
            ) from None
        return fn(self.provider, p, q)

    def top_k(
        self,
        pattern: TreePattern,
        candidates: list[TreePattern],
        k: int,
        metric: str = "M3",
    ) -> list[tuple[int, float]]:
        """The *k* most similar candidates to *pattern*.

        Returns ``(candidate index, similarity)`` pairs in decreasing
        similarity — the primitive an online broker uses to place a newly
        arriving subscription into its best-fitting semantic community.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        scored = (
            (index, self.similarity(pattern, candidate, metric))
            for index, candidate in enumerate(candidates)
        )
        # A bounded heap instead of a full sort: k ≪ n queries pay
        # O(n log k), with ties resolved exactly as the sort did
        # (descending similarity, ascending index).
        return heapq.nlargest(k, scored, key=lambda pair: (pair[1], -pair[0]))


@dataclass
class IndexStats:
    """Provider-call accounting of one :class:`SimilarityIndex`.

    ``joint_evaluated`` counts the distinct unordered pattern pairs whose
    joint selectivity actually reached the provider; ``joint_pruned`` the
    distinct pairs the tag-disjointness prefilter answered with 0 instead;
    ``joint_ratio_pruned`` the distinct pairs the selectivity-ratio bound
    skipped (their metric provably cannot reach the configured threshold),
    broken down per metric in ``ratio_pruned_by_metric`` — M1 counts
    *directed* pairs, because its bound depends on the conditioning side.
    Pruned versus evaluated is exactly the sparse-evaluation saving.
    ``label_overlap_pruned`` counts the distinct pairs the opt-in
    label-overlap heuristic (``prune_label_overlap=True``) answered 0
    instead of probing; ``candidate_pruned`` the distinct pairs a
    configured :class:`~repro.core.candidates.CandidateGenerator`
    declared non-candidates, skipped before any selectivity work at all.
    ``memo_evicted`` counts memo entries dropped because their pattern
    left the live population (see :meth:`SimilarityIndex.compact`);
    ``memo_lru_evicted`` counts joint entries dropped by the optional
    ``memo_capacity`` LRU cap instead (an LRU-evicted pair may recompute
    later, so ``joint_evaluated`` then counts it again).
    """

    joint_evaluated: int = 0
    joint_pruned: int = 0
    joint_ratio_pruned: int = 0
    label_overlap_pruned: int = 0
    candidate_pruned: int = 0
    selectivity_evaluated: int = 0
    adds: int = 0
    removes: int = 0
    memo_evicted: int = 0
    memo_lru_evicted: int = 0
    ratio_pruned_by_metric: dict[str, int] = field(default_factory=dict)

    @property
    def prune_ratio(self) -> float:
        """Fraction of decided joint pairs a prefilter answered.

        Counts the joint-level prefilters (tag-disjointness, label
        overlap, selectivity ratio); ``candidate_pruned`` pairs never
        became joint decisions and are accounted separately.
        """
        pruned = (
            self.joint_pruned
            + self.joint_ratio_pruned
            + self.label_overlap_pruned
        )
        decided = self.joint_evaluated + pruned
        if decided == 0:
            return 0.0
        return pruned / decided


class SimilarityIndex:
    """A mutable, incrementally maintained pairwise-similarity engine.

    A live broker sees a *churning* subscription population — patterns
    arrive (:meth:`add`) and leave (:meth:`remove`) one at a time, and
    rebuilding an n×n matrix per event would waste the O(n²)
    joint-selectivity work that dominates the cost.  This index keeps that
    work incremental:

    * **handles** — :meth:`add` returns a monotonically increasing integer
      handle; :meth:`remove` retires it.  The live population is the
      insertion-ordered set of surviving handles.
    * **lazy rows** — nothing is evaluated at mutation time.  A similarity
      value is computed when first demanded (:meth:`row`, :meth:`top_k`,
      :meth:`neighbors`, or plain calls), and both primitives are memoised
      *by pattern*, so only pairs never seen before reach the provider:
      adding a pattern to an n-pattern population costs at most n new joint
      evaluations, removing one costs zero, and re-adding a previously seen
      pattern costs nothing.  A full rebuild never happens.
    * **tag-disjointness prefilter** — for ``//``-free patterns every
      root-level tag child pins the *document root's* tag (Section 2 root
      semantics), so two such patterns anchored at disjoint tag sets can
      never match a common document: ``P(p ∧ q)`` is provably 0 and the
      provider call is skipped.  :attr:`stats` exposes pruned versus
      evaluated pair counts.  The prefilter is sound for exact providers by
      construction; for synopsis estimators it can only *sharpen* a pair
      the estimator would have scored ≥ 0 (pass ``prune_disjoint=False``
      to reproduce raw estimator output bit-for-bit).
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
      ``stats.joint_ratio_pruned`` and per metric in
      ``stats.ratio_pruned_by_metric``.
    * **memo eviction** — the pattern-keyed memos deliberately survive
      churn (a re-add is free), so under sustained churn dead patterns
      accumulate.  :meth:`compact` drops every memo row whose pattern no
      longer appears in any live handle (``stats.memo_evicted`` counts the
      dropped entries); constructing with ``evict_dead_memos=True`` does
      this automatically whenever a pattern's last live handle is removed,
      trading re-add cost for bounded memory.
    * **LRU memo cap** (``memo_capacity``) — :meth:`compact` bounds the
      memos only as tightly as the live population; an index whose *live*
      population itself keeps growing still grows O(n²) joint entries.
      ``memo_capacity=k`` caps the joint memo at the *k* most recently
      used pairs (least-recently-used entries are dropped as new pairs
      arrive, counted in ``stats.memo_lru_evicted``); an evicted pair
      simply recomputes if demanded again.  The O(n) selectivity and
      anchor memos are never capped — they are the cheap primitives the
      prefilters rely on.
    * **label-overlap prefilter** (``prune_label_overlap``) — the
      tag-disjointness prune generalised to ``//``-patterns: a pair
      whose plain-tag label *sets* are disjoint (and both non-empty —
      pure-wildcard patterns assert nothing about vocabulary) is
      answered 0 without a provider call, counted in
      ``stats.label_overlap_pruned``.  Unlike the root-anchor prune this
      is a *heuristic*: two label-disjoint ``//``-patterns can share
      matching documents, so the prune deliberately trades exactness for
      probe count and is off by default.
    * **candidate generation** (``candidates``) — a
      :class:`~repro.core.candidates.CandidateGenerator` consulted
      *before* any selectivity work: a non-candidate pair's similarity
      is answered 0.0 outright (``stats.candidate_pruned``), which is
      what makes LSH-backed community formation sublinear.  The index
      keeps the generator's population in sync with its own under
      :meth:`add` / :meth:`remove` churn, keyed by handle.

    The index implements the :class:`SelectivityProvider` protocol
    (memoising, pruning pass-through) so the M1/M2/M3 callables evaluate
    through it unchanged, and it is directly usable as the
    ``similarity(p, q)`` callable expected by :mod:`repro.routing.community`.

    >>> # index = SimilarityIndex(provider, metric="M3")
    >>> # h = index.add(pattern)      # O(1); no provider calls yet
    >>> # index.row(h)                # lazily evaluates this row only
    >>> # index.remove(h)             # O(1); memo survives for re-adds
    """

    def __init__(
        self,
        provider: SelectivityProvider,
        patterns: Iterable[TreePattern] = (),
        metric: str = "M3",
        prune_disjoint: bool = True,
        evict_dead_memos: bool = False,
        prune_below: Optional[float] = None,
        memo_capacity: Optional[int] = None,
        prune_label_overlap: bool = False,
        candidates: Optional[CandidateGenerator] = None,
    ) -> None:
        if metric not in METRICS:
            raise ValueError(
                f"unknown metric {metric!r}; choose from {sorted(METRICS)}"
            )
        if prune_below is not None and not 0.0 <= prune_below <= 1.0:
            raise ValueError("prune_below must be in [0, 1]")
        if memo_capacity is not None and memo_capacity < 1:
            raise ValueError("memo_capacity must be >= 1")
        self.provider = provider
        self.metric = metric
        self.prune_disjoint = prune_disjoint
        self.prune_below = prune_below
        self.memo_capacity = memo_capacity
        self.evict_dead_memos = evict_dead_memos
        self.prune_label_overlap = prune_label_overlap
        self.candidates = candidates
        self.stats = IndexStats()
        self._metric_fn = METRICS[metric]
        self._population: dict[int, TreePattern] = {}
        self._next_handle = 0
        #: Live handles per distinct pattern — the population eviction is
        #: tied to (a dead pattern is one whose count reached zero).
        self._live_counts: dict[TreePattern, int] = {}
        self._selectivity_memo: dict[TreePattern, float] = {}
        #: Insertion/recency-ordered (dicts preserve order; hits under a
        #: memo_capacity cap are moved to the back, so the front is LRU).
        self._joint_memo: dict[frozenset[TreePattern], float] = {}
        #: Pairs the selectivity-ratio bound answered, so the stats
        #: counters stay distinct-pair counts like the others.  Keys are
        #: frozensets for the symmetric metrics and ordered tuples for
        #: M1, whose bound depends on the conditioning direction.
        self._ratio_pruned: set = set()
        #: Root-anchor cache: frozenset of root tag labels for prunable
        #: (``//``-free, tag-anchored) patterns, None for unprunable ones.
        self._anchor_memo: dict[TreePattern, Optional[frozenset[str]]] = {}
        #: Plain-tag label sets for the label-overlap prefilter.
        self._label_memo: dict[TreePattern, frozenset[str]] = {}
        #: Distinct pairs the candidate generator answered, keeping
        #: ``stats.candidate_pruned`` a distinct-pair count.
        self._candidate_pruned: set[frozenset[TreePattern]] = set()
        for pattern in patterns:
            self.add(pattern)

    # -- population lifecycle ------------------------------------------------

    def add(self, pattern: TreePattern) -> int:
        """Admit *pattern* and return its handle.

        O(1): no similarity is evaluated until a row is demanded, and pairs
        already seen (for this or an equal pattern) never recompute.
        """
        handle = self._next_handle
        self._next_handle += 1
        self._population[handle] = pattern
        self._live_counts[pattern] = self._live_counts.get(pattern, 0) + 1
        if self.candidates is not None:
            self.candidates.add(handle, pattern)
        self.stats.adds += 1
        return handle

    def remove(self, handle: int) -> TreePattern:
        """Retire *handle*; returns the pattern it referenced.

        O(1): rows referencing the pattern simply stop being produced; the
        pattern-keyed memos survive, so a later re-add is free — unless the
        index was built with ``evict_dead_memos=True``, in which case the
        departing pattern's memo rows are dropped as soon as its last live
        handle goes (one pass over the joint memo).
        """
        try:
            pattern = self._population.pop(handle)
        except KeyError:
            raise KeyError(f"unknown or already removed handle {handle}") from None
        if self.candidates is not None:
            self.candidates.discard(handle)
        self.stats.removes += 1
        remaining = self._live_counts.get(pattern, 0) - 1
        if remaining > 0:
            self._live_counts[pattern] = remaining
        else:
            self._live_counts.pop(pattern, None)
            if self.evict_dead_memos:
                self._evict({pattern})
        return pattern

    def compact(self) -> int:
        """Drop memo rows whose pattern no longer has any live handle.

        The population-tied eviction for long-running churn workloads: the
        selectivity, root-anchor and joint-selectivity memos are scanned
        once and every entry mentioning a dead pattern is dropped (a later
        re-add simply recomputes).  Returns the number of entries evicted,
        which is also accumulated in ``stats.memo_evicted``.
        """
        dead = {
            pattern
            for pattern in self._selectivity_memo
            if pattern not in self._live_counts
        }
        dead.update(
            pattern
            for pattern in self._anchor_memo
            if pattern not in self._live_counts
        )
        dead.update(
            pattern
            for pattern in self._label_memo
            if pattern not in self._live_counts
        )
        for key in self._joint_memo:
            for pattern in key:
                if pattern not in self._live_counts:
                    dead.add(pattern)
        return self._evict(dead)

    def _evict(self, dead: set[TreePattern]) -> int:
        """Drop every memo entry mentioning a pattern in *dead*."""
        if not dead:
            return 0
        evicted = 0
        for pattern in dead:
            if self._selectivity_memo.pop(pattern, None) is not None:
                evicted += 1
            self._anchor_memo.pop(pattern, None)
            self._label_memo.pop(pattern, None)
        stale = [
            key for key in self._joint_memo if not dead.isdisjoint(key)
        ]
        for key in stale:
            del self._joint_memo[key]
        evicted += len(stale)
        self._ratio_pruned = {
            key for key in self._ratio_pruned if dead.isdisjoint(key)
        }
        self._candidate_pruned = {
            key for key in self._candidate_pruned if dead.isdisjoint(key)
        }
        self.stats.memo_evicted += evicted
        return evicted

    @property
    def memo_size(self) -> int:
        """Memoised entries held: selectivities plus joint pairs."""
        return len(self._selectivity_memo) + len(self._joint_memo)

    def _trim_joint_memo(self) -> None:
        """Enforce the LRU cap after a joint-memo insertion."""
        if self.memo_capacity is None:
            return
        while len(self._joint_memo) > self.memo_capacity:
            del self._joint_memo[next(iter(self._joint_memo))]
            self.stats.memo_lru_evicted += 1

    def pattern(self, handle: int) -> TreePattern:
        """The pattern a live handle references."""
        try:
            return self._population[handle]
        except KeyError:
            raise KeyError(f"unknown or already removed handle {handle}") from None

    def handles(self) -> list[int]:
        """Live handles in insertion order."""
        return list(self._population)

    @property
    def patterns(self) -> list[TreePattern]:
        """Live patterns in insertion order."""
        return list(self._population.values())

    def __len__(self) -> int:
        return len(self._population)

    def __contains__(self, handle: int) -> bool:
        return handle in self._population

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

    def _labels(self, pattern: TreePattern) -> frozenset[str]:
        """The pattern's plain tag labels, cached per distinct pattern."""
        cached = self._label_memo.get(pattern)
        if cached is None:
            cached = pattern.tags()
            self._label_memo[pattern] = cached
        return cached

    def joint_selectivity(self, p: TreePattern, q: TreePattern) -> float:
        """``P(p ∧ q)``, computed once per unordered distinct pattern pair.

        Pairs of ``//``-free patterns whose root tag anchors are disjoint
        are answered 0 without a provider call: the document root would
        have to carry two different tags at once.  With
        ``prune_label_overlap=True``, pairs whose plain-tag label sets
        are disjoint (both non-empty) are answered 0 heuristically too.
        """
        key = frozenset((p, q))
        cached = self._joint_memo.get(key)
        if cached is not None:
            if self.memo_capacity is not None:
                # Touch for recency: re-append so the LRU front stays cold.
                del self._joint_memo[key]
                self._joint_memo[key] = cached
            return cached
        if self.prune_disjoint and p != q:
            anchors_p = self._root_anchors(p)
            anchors_q = self._root_anchors(q)
            if (
                anchors_p is not None
                and anchors_q is not None
                and anchors_p.isdisjoint(anchors_q)
            ):
                self.stats.joint_pruned += 1
                self._joint_memo[key] = 0.0
                self._trim_joint_memo()
                return 0.0
        if self.prune_label_overlap and p != q:
            labels_p = self._labels(p)
            labels_q = self._labels(q)
            if labels_p and labels_q and labels_p.isdisjoint(labels_q):
                self.stats.label_overlap_pruned += 1
                self._joint_memo[key] = 0.0
                self._trim_joint_memo()
                return 0.0
        self.stats.joint_evaluated += 1
        value = self.provider.joint_selectivity(p, q)
        self._joint_memo[key] = value
        self._trim_joint_memo()
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

    def _evaluate(self, p: TreePattern, q: TreePattern) -> float:
        """The configured metric on *p*, *q*, through the prefilters.

        A configured candidate generator is consulted first: a
        non-candidate pair is answered 0.0 before any selectivity work
        (``stats.candidate_pruned``).  With ``prune_below`` set, a
        never-seen pair whose marginal bound (:meth:`_marginal_bound`)
        already pins the metric below the threshold is answered 0.0
        without touching the joint memo or the provider; an
        already-memoised pair keeps returning its exact value.
        """
        if (
            self.candidates is not None
            and p != q
            and not self.candidates.is_candidate(p, q)
        ):
            key = frozenset((p, q))
            if key not in self._candidate_pruned:
                self._candidate_pruned.add(key)
                self.stats.candidate_pruned += 1
            return 0.0
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
                    by_metric = self.stats.ratio_pruned_by_metric
                    by_metric[self.metric] = (
                        by_metric.get(self.metric, 0) + 1
                    )
                return 0.0
        return self._metric_fn(self, p, q)

    def similarity(
        self, p: TreePattern, q: TreePattern, metric: str | None = None
    ) -> float:
        """Proximity of two (arbitrary) patterns through the memo."""
        if metric is None or metric == self.metric:
            return self._evaluate(p, q)
        try:
            fn = METRICS[metric]
        except KeyError:
            raise ValueError(
                f"unknown metric {metric!r}; choose from {sorted(METRICS)}"
            ) from None
        return fn(self, p, q)

    def __call__(self, p: TreePattern, q: TreePattern) -> float:
        """Make the index a drop-in ``SimilarityFn`` for the routing layer."""
        return self._evaluate(p, q)

    # -- live-population queries ---------------------------------------------

    def row(self, handle: int) -> dict[int, float]:
        """Similarity of *handle*'s pattern to every live pattern.

        ``row(h)[g]`` is ``metric(pattern(h), pattern(g))``, so under M1
        the row conditions on the *other* pattern.  Only this row's
        never-seen pairs are evaluated.
        """
        pattern = self.pattern(handle)
        return {
            other: self._evaluate(pattern, candidate)
            for other, candidate in self._population.items()
        }

    def top_k(self, handle: int, k: int) -> list[tuple[int, float]]:
        """The *k* most similar live handles to *handle* (excluding
        itself), as ``(handle, similarity)`` in decreasing similarity with
        handle order as tie-break."""
        if k < 1:
            raise ValueError("k must be at least 1")
        scored = (
            (other, score)
            for other, score in self.row(handle).items()
            if other != handle
        )
        return heapq.nlargest(k, scored, key=lambda pair: (pair[1], -pair[0]))

    def neighbors(self, handle: int, threshold: float) -> list[tuple[int, float]]:
        """All live handles with similarity ``>= threshold`` to *handle*
        (excluding itself), in decreasing similarity."""
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        found = [
            (other, score)
            for other, score in self.row(handle).items()
            if other != handle and score >= threshold
        ]
        found.sort(key=lambda pair: (-pair[1], pair[0]))
        return found

    # -- introspection -------------------------------------------------------

    @property
    def distinct_joint_pairs(self) -> int:
        """Distinct unordered pattern pairs whose joint selectivity reached
        the provider so far — pruned pairs are not counted."""
        return self.stats.joint_evaluated

    def __repr__(self) -> str:
        return (
            f"SimilarityIndex(patterns={len(self._population)}, "
            f"metric={self.metric!r}, "
            f"joint_pairs={self.stats.joint_evaluated}, "
            f"pruned={self.stats.joint_pruned})"
        )
