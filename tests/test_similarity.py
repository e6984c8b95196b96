"""Proximity metrics M1, M2, M3 (Section 4) on exact and estimated providers."""

import pytest
from hypothesis import given, settings

from repro.core.pattern_parser import parse_xpath
from repro.core.selectivity import SelectivityEstimator
from repro.core.similarity import (
    METRICS,
    SimilarityEstimator,
    SimilarityIndex,
    m1_conditional,
    m2_mean_conditional,
    m3_joint_over_union,
)
from repro.xmltree.corpus import DocumentCorpus
from tests.strategies import tree_patterns
from tests.test_selectivity_properties import build_synopsis, corpora


@pytest.fixture()
def corpus(figure2_documents):
    return DocumentCorpus(figure2_documents)


class TestMetricValues:
    """Hand-computed values over the Figure 2 corpus.

    //b matches docs {1,2,3}, //q matches {4}, //o matches {3,4},
    //e matches {1,2,3,4,5,6}.
    """

    def test_m1_asymmetric(self, corpus):
        b = parse_xpath("//b")
        e = parse_xpath("//e")
        # P(e|b) = P(e ∧ b)/P(b) = (3/6)/(3/6) = 1; P(b|e) = (3/6)/1 = 1/2.
        assert m1_conditional(corpus, e, b) == pytest.approx(1.0)
        assert m1_conditional(corpus, b, e) == pytest.approx(0.5)

    def test_m2_symmetric_mean(self, corpus):
        b = parse_xpath("//b")
        e = parse_xpath("//e")
        expected = (1.0 + 0.5) / 2
        assert m2_mean_conditional(corpus, b, e) == pytest.approx(expected)
        assert m2_mean_conditional(corpus, e, b) == pytest.approx(expected)

    def test_m3_jaccard(self, corpus):
        b = parse_xpath("//b")
        o = parse_xpath("//o")
        # b:{1,2,3}, o:{3,4}; joint {3}; union {1,2,3,4}.
        assert m3_joint_over_union(corpus, b, o) == pytest.approx(1 / 4)

    def test_disjoint_patterns_zero(self, corpus):
        q = parse_xpath("//q")   # {4}
        p = parse_xpath("//p")   # {5}
        for metric in METRICS.values():
            assert metric(corpus, q, p) == 0.0

    def test_identical_patterns_one(self, corpus):
        b = parse_xpath("//b")
        for metric in METRICS.values():
            assert metric(corpus, b, b) == pytest.approx(1.0)

    def test_zero_denominator_handled(self, corpus):
        nothing = parse_xpath("/zzz")
        b = parse_xpath("//b")
        assert m1_conditional(corpus, b, nothing) == 0.0
        assert m2_mean_conditional(corpus, b, nothing) == 0.0
        assert m3_joint_over_union(corpus, nothing, nothing) == 0.0


class TestSimilarityEstimatorWrapper:
    def test_metric_dispatch(self, corpus):
        estimator = SimilarityEstimator(corpus)
        b, e = parse_xpath("//b"), parse_xpath("//e")
        assert estimator.similarity(b, e, metric="M1") == m1_conditional(
            corpus, b, e
        )
        assert estimator.similarity(b, e, metric="M3") == m3_joint_over_union(
            corpus, b, e
        )

    def test_unknown_metric(self, corpus):
        with pytest.raises(ValueError):
            SimilarityEstimator(corpus).similarity(
                parse_xpath("/a"), parse_xpath("/a"), metric="M9"
            )


class TestEstimatedVsExact:
    def test_lossless_sets_estimator_matches_exact(self, figure2_documents):
        corpus = DocumentCorpus(figure2_documents)
        synopsis = build_synopsis(figure2_documents, mode="sets")
        estimated = SelectivityEstimator(synopsis)
        pairs = [
            (parse_xpath("//b"), parse_xpath("//e")),
            (parse_xpath("//o"), parse_xpath("//q")),
            (parse_xpath("/a/b"), parse_xpath("/a/c")),
        ]
        for p, q in pairs:
            for name, metric in METRICS.items():
                # Skeletonisation can only widen match sets; on this corpus
                # patterns are skeleton-exact, so values must agree.
                assert metric(estimated, p, q) == pytest.approx(
                    metric(corpus, p, q)
                ), (name, p, q)


class CountingProvider:
    """Wraps a provider and counts every call per argument (pair)."""

    def __init__(self, provider):
        self.provider = provider
        self.selectivity_calls: dict = {}
        self.joint_calls: dict = {}

    def selectivity(self, pattern):
        self.selectivity_calls[pattern] = (
            self.selectivity_calls.get(pattern, 0) + 1
        )
        return self.provider.selectivity(pattern)

    def joint_selectivity(self, p, q):
        key = frozenset((p, q))
        self.joint_calls[key] = self.joint_calls.get(key, 0) + 1
        return self.provider.joint_selectivity(p, q)

    @property
    def max_joint_calls_per_pair(self):
        return max(self.joint_calls.values(), default=0)

    @property
    def max_selectivity_calls_per_pattern(self):
        return max(self.selectivity_calls.values(), default=0)


def _sixty_patterns():
    """60 distinct patterns over the Figure 2 tag alphabet."""
    tags = ("b", "c", "d", "e", "f", "g", "h", "k", "m", "n", "o", "p", "q")
    patterns = [parse_xpath("/a")]
    patterns += [parse_xpath(f"/a/{t}") for t in tags]
    patterns += [parse_xpath(f"/a//{t}") for t in tags]
    patterns += [parse_xpath(f"/a/*/{t}") for t in tags]
    patterns += [parse_xpath(f"/a/b/{t}") for t in tags]
    patterns += [parse_xpath(f"/a/d/{t}") for t in tags[:7]]
    assert len(patterns) == 60 and len(set(patterns)) == 60
    return patterns


class TestFixedPopulationIndex:
    """A :class:`SimilarityIndex` built over a fixed population, as the
    offline clusterings use it."""

    def test_callable_protocol(self, corpus):
        patterns = [parse_xpath("//b"), parse_xpath("//e")]
        index = SimilarityIndex(corpus, patterns)
        assert index(*patterns) == m3_joint_over_union(corpus, *patterns)
        assert len(index) == 2

    def test_each_joint_pair_computed_at_most_once(self, corpus):
        patterns = _sixty_patterns()
        counting = CountingProvider(corpus)
        index = SimilarityIndex(counting, patterns)
        # Query everything twice; the memo must absorb the second pass.
        for _ in range(2):
            for handle in index.handles():
                index.row(handle)
        index.top_k(0, 10)
        index.neighbors(3, 0.2)
        for p in patterns[:10]:
            for q in patterns[:10]:
                index.similarity(p, q)
        assert counting.max_joint_calls_per_pair == 1
        assert counting.max_selectivity_calls_per_pattern == 1
        assert index.stats.joint_evaluated == len(counting.joint_calls)

    def test_leader_clustering_through_index_no_duplicate_calls(self, corpus):
        from repro.routing.community import leader_clustering

        patterns = _sixty_patterns()
        counting = CountingProvider(corpus)
        index = SimilarityIndex(counting, patterns)
        leader_clustering(patterns, index, threshold=0.5)
        leader_clustering(patterns, index, threshold=0.3)
        assert counting.max_joint_calls_per_pair == 1
        assert counting.max_selectivity_calls_per_pattern == 1


class TestMetricProperties:
    @settings(max_examples=80, deadline=None)
    @given(corpora(), tree_patterns(), tree_patterns())
    def test_bounds_and_symmetry(self, docs, p, q):
        corpus = DocumentCorpus(docs)
        for metric in METRICS.values():
            value = metric(corpus, p, q)
            assert 0.0 <= value <= 1.0
        assert m2_mean_conditional(corpus, p, q) == pytest.approx(
            m2_mean_conditional(corpus, q, p)
        )
        assert m3_joint_over_union(corpus, p, q) == pytest.approx(
            m3_joint_over_union(corpus, q, p)
        )

    @settings(max_examples=80, deadline=None)
    @given(corpora(), tree_patterns(), tree_patterns())
    def test_m3_never_exceeds_m1(self, docs, p, q):
        # joint/union <= joint/max(P(p),P(q)) <= min conditional <= M1, M2.
        corpus = DocumentCorpus(docs)
        m1 = m1_conditional(corpus, p, q)
        m2 = m2_mean_conditional(corpus, p, q)
        m3 = m3_joint_over_union(corpus, p, q)
        assert m3 <= m1 + 1e-12
        assert m3 <= m2 + 1e-12

    @settings(max_examples=80, deadline=None)
    @given(corpora(), tree_patterns())
    def test_self_similarity(self, docs, p):
        corpus = DocumentCorpus(docs)
        expected = 1.0 if corpus.selectivity(p) > 0 else 0.0
        for metric in METRICS.values():
            assert metric(corpus, p, p) == pytest.approx(expected)
