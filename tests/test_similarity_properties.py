"""Property-based sweep over the Section 4 proximity metrics.

All properties are checked against randomly drawn corpora *and* randomly
drawn tree patterns (the shared small tag alphabet keeps collisions —
hence nonzero selectivities — likely):

* every metric stays inside [0, 1];
* M2 and M3 are exactly symmetric in their arguments;
* ``M3(p, q) <= M1(p, q)`` (the Jaccard union dominates either marginal);
* a pattern with nonzero selectivity is *exactly* perfectly similar to
  itself under every metric;
* a :class:`~repro.core.similarity.SimilarityIndex` agrees with direct
  metric evaluation while reaching the provider at most once per pair.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.core.similarity import (
    METRICS,
    SimilarityIndex,
    m1_conditional,
    m2_mean_conditional,
    m3_joint_over_union,
)
from repro.xmltree.corpus import DocumentCorpus
from tests.strategies import tree_patterns
from tests.test_selectivity_properties import corpora


class TestMetricRange:
    @settings(max_examples=100, deadline=None)
    @given(corpora(), tree_patterns(), tree_patterns())
    def test_all_metrics_within_unit_interval(self, docs, p, q):
        corpus = DocumentCorpus(docs)
        for name, metric in METRICS.items():
            value = metric(corpus, p, q)
            assert 0.0 <= value <= 1.0, (name, value)


class TestSymmetry:
    @settings(max_examples=100, deadline=None)
    @given(corpora(), tree_patterns(), tree_patterns())
    def test_m2_exactly_symmetric(self, docs, p, q):
        corpus = DocumentCorpus(docs)
        assert m2_mean_conditional(corpus, p, q) == m2_mean_conditional(
            corpus, q, p
        )

    @settings(max_examples=100, deadline=None)
    @given(corpora(), tree_patterns(), tree_patterns())
    def test_m3_exactly_symmetric(self, docs, p, q):
        corpus = DocumentCorpus(docs)
        assert m3_joint_over_union(corpus, p, q) == m3_joint_over_union(
            corpus, q, p
        )


class TestOrdering:
    @settings(max_examples=100, deadline=None)
    @given(corpora(), tree_patterns(), tree_patterns())
    def test_m3_never_exceeds_m1(self, docs, p, q):
        # P(p ∨ q) >= P(q), so joint/union <= joint/P(q).  The union is
        # computed by inclusion-exclusion, whose rounding can nudge the
        # denominator below P(q) by an ulp — hence the tiny tolerance.
        corpus = DocumentCorpus(docs)
        m1 = m1_conditional(corpus, p, q)
        m3 = m3_joint_over_union(corpus, p, q)
        assert m3 <= m1 + 1e-12


class TestSelfSimilarity:
    @settings(max_examples=100, deadline=None)
    @given(corpora(), tree_patterns())
    def test_nonzero_selectivity_patterns_are_self_similar(self, docs, p):
        corpus = DocumentCorpus(docs)
        if corpus.selectivity(p) > 0.0:
            for name, metric in METRICS.items():
                assert metric(corpus, p, p) == 1.0, name
        else:
            for name, metric in METRICS.items():
                assert metric(corpus, p, p) == 0.0, name


class TestMatrixAgreement:
    @settings(max_examples=50, deadline=None)
    @given(corpora(), tree_patterns(), tree_patterns(), tree_patterns())
    def test_matrix_matches_direct_evaluation(self, docs, p, q, r):
        corpus = DocumentCorpus(docs)
        patterns = [p, q, r]
        for name, metric in METRICS.items():
            index = SimilarityIndex(corpus, metric=name)
            for i in range(3):
                for j in range(3):
                    assert index(patterns[i], patterns[j]) == metric(
                        corpus, patterns[i], patterns[j]
                    ), (name, i, j)

    @settings(max_examples=50, deadline=None)
    @given(corpora(), tree_patterns(), tree_patterns())
    def test_matrix_never_recomputes_joint_pairs(self, docs, p, q):
        corpus = DocumentCorpus(docs)
        calls: dict[frozenset, int] = {}

        class Counting:
            def selectivity(self, pattern):
                return corpus.selectivity(pattern)

            def joint_selectivity(self, a, b):
                key = frozenset((a, b))
                calls[key] = calls.get(key, 0) + 1
                return corpus.joint_selectivity(a, b)

        index = SimilarityIndex(Counting())
        for _ in range(2):
            for a in (p, q):
                for b in (p, q):
                    index(a, b)
        assert all(count == 1 for count in calls.values()), calls
