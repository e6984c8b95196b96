"""The mutable SimilarityIndex: lifecycle, laziness, and pruning accounting."""

import pytest

from repro.core.pattern_parser import parse_xpath
from repro.core.similarity import METRICS, SimilarityIndex
from repro.xmltree.corpus import DocumentCorpus
from tests.test_similarity import CountingProvider


@pytest.fixture()
def corpus(figure2_documents):
    return DocumentCorpus(figure2_documents)


def materialize(index):
    """Force every live row, i.e. every live pairwise value."""
    for handle in index.handles():
        index.row(handle)


class TestPopulationLifecycle:
    def test_add_returns_monotonic_handles(self, corpus):
        index = SimilarityIndex(corpus)
        first = index.add(parse_xpath("//b"))
        second = index.add(parse_xpath("//e"))
        assert second > first
        assert len(index) == 2
        assert index.handles() == [first, second]
        assert index.patterns == [parse_xpath("//b"), parse_xpath("//e")]

    def test_remove_returns_pattern_and_frees_handle(self, corpus):
        index = SimilarityIndex(corpus)
        handle = index.add(parse_xpath("//b"))
        assert index.remove(handle) == parse_xpath("//b")
        assert len(index) == 0
        assert handle not in index
        with pytest.raises(KeyError):
            index.remove(handle)
        with pytest.raises(KeyError):
            index.pattern(handle)

    def test_handles_never_reused(self, corpus):
        index = SimilarityIndex(corpus)
        handle = index.add(parse_xpath("//b"))
        index.remove(handle)
        again = index.add(parse_xpath("//b"))
        assert again != handle

    def test_constructor_population(self, corpus):
        patterns = [parse_xpath("//b"), parse_xpath("//e")]
        index = SimilarityIndex(corpus, patterns)
        assert index.patterns == patterns
        assert index.stats.adds == 2

    def test_unknown_metric_rejected(self, corpus):
        with pytest.raises(ValueError):
            SimilarityIndex(corpus, metric="M9")
        with pytest.raises(ValueError):
            SimilarityIndex(corpus).similarity(
                parse_xpath("/a"), parse_xpath("/a"), metric="M9"
            )


class TestLazyRows:
    def test_mutations_cost_no_provider_calls(self, corpus):
        counting = CountingProvider(corpus)
        index = SimilarityIndex(counting, metric="M3")
        handles = [
            index.add(parse_xpath(f"/a/{tag}")) for tag in ("b", "d", "e")
        ]
        index.remove(handles[1])
        assert counting.joint_calls == {}
        assert counting.selectivity_calls == {}

    def test_row_evaluates_only_its_own_pairs(self, corpus):
        counting = CountingProvider(corpus)
        patterns = [parse_xpath("//b"), parse_xpath("//e"), parse_xpath("//o")]
        index = SimilarityIndex(counting, patterns)
        first = index.handles()[0]
        row = index.row(first)
        assert set(row) == set(index.handles())
        # Only pairs involving the first pattern were decided: 2 of 3.
        assert len(counting.joint_calls) == 2

    def test_row_values_match_matrix(self, corpus):
        patterns = [parse_xpath("//b"), parse_xpath("//e"), parse_xpath("//o")]
        for metric in METRICS:
            index = SimilarityIndex(corpus, patterns, metric=metric)
            matrix = SimilarityIndex(corpus, patterns, metric=metric)
            handles = index.handles()
            for i, handle in enumerate(handles):
                row = index.row(handle)
                for j, other in enumerate(handles):
                    assert row[other] == matrix.row(i)[j], (metric, i, j)

    def test_top_k_and_neighbors_over_live_population(self, corpus):
        patterns = [
            parse_xpath("//b"),
            parse_xpath("//o"),
            parse_xpath("//e"),
            parse_xpath("//q"),
        ]
        index = SimilarityIndex(corpus, patterns)
        b, o, e, q = index.handles()
        # //b: sim 1/2 with //e, 1/4 with //o, 0 with //q.
        assert index.top_k(b, 2) == [
            (e, pytest.approx(0.5)),
            (o, pytest.approx(0.25)),
        ]
        assert [h for h, _ in index.neighbors(b, 0.25)] == [e, o]
        index.remove(e)
        assert index.top_k(b, 2) == [
            (o, pytest.approx(0.25)),
            (q, 0.0),
        ]
        with pytest.raises(ValueError):
            index.top_k(b, 0)
        with pytest.raises(ValueError):
            index.neighbors(b, 1.5)

    def test_removed_pattern_readd_is_free(self, corpus):
        counting = CountingProvider(corpus)
        patterns = [parse_xpath("//b"), parse_xpath("//e")]
        index = SimilarityIndex(counting, patterns)
        materialize(index)
        decided = dict(counting.joint_calls)
        handle = index.handles()[1]
        index.remove(handle)
        index.add(parse_xpath("//e"))
        materialize(index)
        assert counting.joint_calls == decided


class TestClusteringIntegration:
    def test_leader_clustering_through_live_index_after_churn(self, corpus):
        from repro.routing.community import leader_clustering

        index = SimilarityIndex(corpus)
        for xpath in ("//b", "//q", "//e"):
            index.add(parse_xpath(xpath))
        index.remove(index.handles()[1])  # //q leaves
        survivors = index.patterns
        communities = leader_clustering(survivors, index, threshold=0.4)
        # //b and //e (similarity 0.5) collapse into one community.
        assert len(communities) == 1


class TestDisjointnessPruning:
    def test_disjoint_root_anchors_prune_provider_call(self, corpus):
        counting = CountingProvider(corpus)
        index = SimilarityIndex(counting)
        assert index.joint_selectivity(parse_xpath("/a/b"), parse_xpath("/b")) == 0.0
        assert counting.joint_calls == {}
        assert index.stats.joint_pruned == 1
        assert index.stats.joint_evaluated == 0

    def test_pruned_pair_is_memoised(self, corpus):
        index = SimilarityIndex(corpus)
        p, q = parse_xpath("/a/b"), parse_xpath("/b")
        index.joint_selectivity(p, q)
        index.joint_selectivity(q, p)
        assert index.stats.joint_pruned == 1

    def test_descendant_patterns_are_never_pruned(self, corpus):
        counting = CountingProvider(corpus)
        index = SimilarityIndex(counting)
        index.joint_selectivity(parse_xpath("//b"), parse_xpath("//q"))
        assert index.stats.joint_pruned == 0
        assert index.stats.joint_evaluated == 1

    def test_wildcard_roots_are_never_pruned(self, corpus):
        counting = CountingProvider(corpus)
        index = SimilarityIndex(counting)
        # /*/b and /*/d share no tags, yet one document root can carry both.
        index.joint_selectivity(parse_xpath("/*/b"), parse_xpath("/*/d"))
        assert index.stats.joint_pruned == 0
        assert index.stats.joint_evaluated == 1

    def test_pruning_agrees_with_exact_provider(self, corpus):
        # Sound prefilter: on an exact provider the pruned value is the truth.
        pairs = [
            (parse_xpath("/a/b"), parse_xpath("/b")),
            (parse_xpath("/a/b/e"), parse_xpath("/c/d")),
            (parse_xpath("/a/b"), parse_xpath("/a/d")),
            (parse_xpath("//b"), parse_xpath("/a/d")),
        ]
        for metric in METRICS:
            pruned = SimilarityIndex(corpus, metric=metric)
            for p, q in pairs:
                assert pruned.joint_selectivity(p, q) == corpus.joint_selectivity(
                    p, q
                )
                assert pruned(p, q) == METRICS[metric](corpus, p, q), (metric, p, q)
            assert pruned.stats.joint_pruned > 0

    def test_prune_ratio(self, corpus):
        index = SimilarityIndex(corpus)
        assert index.stats.prune_ratio == 0.0
        index.joint_selectivity(parse_xpath("/a/b"), parse_xpath("/b"))
        index.joint_selectivity(parse_xpath("//b"), parse_xpath("//e"))
        assert index.stats.prune_ratio == pytest.approx(0.5)


class TestRatioPrefilter:
    """The selectivity-ratio bound: min(P)/max(P) caps M3."""

    @pytest.fixture()
    def skewed_corpus(self):
        # Root tag shared (tag-disjointness can never fire); /a/b matches
        # 1 of 4 documents, /a/c all 4 — ratio 0.25.
        from repro.xmltree.parser import parse_xml

        docs = [parse_xml("<a><b/><c/></a>", doc_id=0)] + [
            parse_xml("<a><c/></a>", doc_id=doc_id) for doc_id in (1, 2, 3)
        ]
        return DocumentCorpus(docs)

    def test_bounded_pair_skips_joint_call(self, skewed_corpus):
        counting = CountingProvider(skewed_corpus)
        index = SimilarityIndex(counting, prune_below=0.5)
        p, q = parse_xpath("/a/b"), parse_xpath("/a/c")
        assert index(p, q) == 0.0
        assert counting.joint_calls == {}
        assert index.stats.joint_ratio_pruned == 1
        assert index.stats.joint_evaluated == 0
        # Distinct-pair accounting: re-asking does not recount.
        index(q, p)
        assert index.stats.joint_ratio_pruned == 1
        assert index.stats.prune_ratio == 1.0

    def test_ratio_above_threshold_evaluates_exactly(self, skewed_corpus):
        counting = CountingProvider(skewed_corpus)
        index = SimilarityIndex(counting, prune_below=0.2)
        p, q = parse_xpath("/a/b"), parse_xpath("/a/c")
        raw = SimilarityIndex(skewed_corpus)
        assert index(p, q) == raw(p, q)
        assert index.stats.joint_ratio_pruned == 0
        assert len(counting.joint_calls) == 1

    def test_bound_is_sound_for_thresholded_clustering(self, skewed_corpus):
        # The pruned answer and the exact answer fall on the same side of
        # the threshold the bound was configured with.
        threshold = 0.5
        bounded = SimilarityIndex(skewed_corpus, prune_below=threshold)
        exact = SimilarityIndex(skewed_corpus)
        pairs = [
            (parse_xpath("/a/b"), parse_xpath("/a/c")),
            (parse_xpath("/a/c"), parse_xpath("/a")),
            (parse_xpath("/a"), parse_xpath("/a/b")),
        ]
        for p, q in pairs:
            assert (bounded(p, q) >= threshold) == (exact(p, q) >= threshold)
        assert bounded.stats.joint_ratio_pruned > 0

    def test_memoised_pair_returns_exact_value(self, skewed_corpus):
        index = SimilarityIndex(skewed_corpus, prune_below=0.5)
        p, q = parse_xpath("/a/b"), parse_xpath("/a/c")
        expected = SimilarityIndex(skewed_corpus)(p, q)
        # Joint already decided (direct provider-protocol call): the bound
        # steps aside and the memoised exact value is returned.
        index.joint_selectivity(p, q)
        assert index(p, q) == expected
        assert index.stats.joint_ratio_pruned == 0

    def test_invalid_bound_rejected(self, skewed_corpus):
        with pytest.raises(ValueError):
            SimilarityIndex(skewed_corpus, prune_below=1.5)
        with pytest.raises(ValueError):
            SimilarityIndex(skewed_corpus, prune_below=-0.1)

    def test_generic_bound_arms_any_metric(self, skewed_corpus):
        # prune_below prunes under every metric, with the metric's own
        # marginal bound.
        p, q = parse_xpath("/a/b"), parse_xpath("/a/c")
        # M2 <= (1 + 0.25) / 2 = 0.625 < 0.7: prunable.
        counting = CountingProvider(skewed_corpus)
        index = SimilarityIndex(counting, metric="M2", prune_below=0.7)
        assert index(p, q) == 0.0
        assert counting.joint_calls == {}
        assert index.stats.joint_ratio_pruned == 1
        # ... but not below 0.6: the bound steps aside and evaluates.
        counting = CountingProvider(skewed_corpus)
        index = SimilarityIndex(counting, metric="M2", prune_below=0.6)
        raw = SimilarityIndex(skewed_corpus, metric="M2")
        assert index(p, q) == raw(p, q)
        assert len(counting.joint_calls) == 1

    def test_m1_bound_is_direction_aware(self, skewed_corpus):
        # P(/a/b)=0.25, P(/a/c)=1.0.  M1(b|c) <= 0.25/1.0: prunable at
        # 0.5; M1(c|b) <= 0.25/0.25 = 1: must evaluate.
        counting = CountingProvider(skewed_corpus)
        index = SimilarityIndex(counting, metric="M1", prune_below=0.5)
        b, c = parse_xpath("/a/b"), parse_xpath("/a/c")
        assert index(b, c) == 0.0
        assert counting.joint_calls == {}
        exact = SimilarityIndex(skewed_corpus, metric="M1")
        assert index(c, b) == exact(c, b)
        assert len(counting.joint_calls) == 1
        # Each pruned direction counts once, ever.
        index(b, c)
        assert index.stats.joint_ratio_pruned == 1

    @pytest.mark.parametrize("metric", sorted(METRICS))
    def test_generic_bound_is_sound_for_thresholding(
        self, skewed_corpus, metric
    ):
        threshold = 0.5
        bounded = SimilarityIndex(
            skewed_corpus, metric=metric, prune_below=threshold
        )
        exact = SimilarityIndex(skewed_corpus, metric=metric)
        pairs = [
            (parse_xpath("/a/b"), parse_xpath("/a/c")),
            (parse_xpath("/a/c"), parse_xpath("/a")),
            (parse_xpath("/a"), parse_xpath("/a/b")),
            (parse_xpath("/a/b"), parse_xpath("/a")),
        ]
        for p, q in pairs:
            assert (bounded(p, q) >= threshold) == (
                exact(p, q) >= threshold
            ), (metric, p, q)

    def test_per_metric_counters_fold_into_totals(self, skewed_corpus):
        index = SimilarityIndex(skewed_corpus, prune_below=0.5)
        index(parse_xpath("/a/b"), parse_xpath("/a/c"))
        assert index.stats.joint_ratio_pruned == 1
        assert index.stats.prune_ratio == 1.0


class TestIncrementalCostAccounting:
    """The ISSUE acceptance bound: adding one pattern to an n-pattern
    population costs exactly n new joint-selectivity provider calls minus
    the tag-disjoint pruned pairs."""

    @pytest.fixture()
    def patterns(self):
        return [
            parse_xpath("/a"),
            parse_xpath("/a/b"),
            parse_xpath("/a/d"),
            parse_xpath("/b"),
            parse_xpath("/b/c"),
            parse_xpath("//e"),
            parse_xpath("/a//e"),
        ]

    def test_build_decides_every_distinct_pair_once(self, corpus, patterns):
        counting = CountingProvider(corpus)
        index = SimilarityIndex(counting, patterns)
        materialize(index)
        n = len(patterns)
        stats = index.stats
        assert stats.joint_evaluated + stats.joint_pruned == n * (n - 1) // 2
        assert stats.joint_evaluated == len(counting.joint_calls)
        assert stats.joint_pruned > 0
        assert counting.max_joint_calls_per_pair == 1
        assert counting.max_selectivity_calls_per_pattern == 1

    def test_add_costs_exactly_n_minus_pruned(self, corpus, patterns):
        counting = CountingProvider(corpus)
        index = SimilarityIndex(counting, patterns)
        materialize(index)
        n = len(patterns)
        evaluated_before = index.stats.joint_evaluated
        pruned_before = index.stats.joint_pruned
        provider_before = len(counting.joint_calls)

        index.add(parse_xpath("/a/b/e/k"))
        # Mutation alone decides nothing.
        assert index.stats.joint_evaluated == evaluated_before
        assert index.stats.joint_pruned == pruned_before

        materialize(index)
        new_evaluated = index.stats.joint_evaluated - evaluated_before
        new_pruned = index.stats.joint_pruned - pruned_before
        assert new_evaluated + new_pruned == n
        # /a/b/e/k is //-free and anchored at "a": exactly the two
        # "b"-anchored population members are pruned.
        assert new_pruned == 2
        assert len(counting.joint_calls) - provider_before == new_evaluated
        assert counting.max_joint_calls_per_pair == 1

    def test_remove_costs_nothing_and_readding_population_is_free(
        self, corpus, patterns
    ):
        counting = CountingProvider(corpus)
        index = SimilarityIndex(counting, patterns)
        materialize(index)
        decided = dict(counting.joint_calls)
        victim = index.handles()[2]
        index.remove(victim)
        materialize(index)
        assert counting.joint_calls == decided
