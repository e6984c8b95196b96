"""Semantic communities and single-broker content-based routing."""

from functools import partial

import pytest

from repro.core.candidates import ExactCandidates
from repro.core.pattern_parser import parse_xpath
from repro.core.similarity import SimilarityIndex, m3_joint_over_union
from repro.routing.community import leader_clustering
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import (
    CommunityPolicy,
    HybridPolicy,
    PerSubscriptionPolicy,
)
from repro.xmltree.corpus import DocumentCorpus


@pytest.fixture()
def corpus(figure2_documents):
    return DocumentCorpus(figure2_documents)


@pytest.fixture()
def subscriptions():
    # Three "b-interested", two "d-interested", one universal subscriber.
    return [
        parse_xpath("/a/b"),
        parse_xpath("/a/b/e"),
        parse_xpath("/a/b/e/k"),
        parse_xpath("/a/d"),
        parse_xpath("/a/d/e/m"),
        parse_xpath("/a"),
    ]


@pytest.fixture()
def similarity(corpus):
    return partial(m3_joint_over_union, corpus)


def communities_of(patterns, similarity, threshold, **options):
    """:func:`leader_clustering` of *patterns* keyed by position."""
    return leader_clustering(
        dict(enumerate(patterns)), similarity, threshold, **options
    ).communities


class TestLeaderClustering:
    def test_invalid_threshold(self, subscriptions, similarity):
        with pytest.raises(ValueError):
            communities_of(subscriptions, similarity, threshold=1.5)

    @pytest.mark.parametrize("gate", [None, ExactCandidates()], ids=["none", "exact"])
    def test_keys_must_ascend(self, subscriptions, similarity, gate):
        # Communities are created in key order, and a gated placement
        # compares its candidate leaders sorted by key.
        descending = dict(reversed(list(enumerate(subscriptions))))
        swapped = dict(zip((0, 2, 1), subscriptions, strict=False))
        for pattern_of in (descending, swapped):
            with pytest.raises(ValueError, match="ascend"):
                leader_clustering(pattern_of, similarity, 0.5, candidates=gate)
        gaps = {2 * key: pattern for key, pattern in enumerate(subscriptions)}
        clusters = leader_clustering(gaps, similarity, 0.5, candidates=gate)
        assert list(clusters.group_of) == list(gaps)

    def test_zero_threshold_single_community(self, subscriptions, similarity):
        communities = communities_of(subscriptions, similarity, threshold=0.0)
        assert communities == [list(range(len(subscriptions)))]

    def test_exact_threshold_groups_equivalents(self, subscriptions, similarity):
        # /a/b, /a/b/e and /a/b/e/k all match exactly {1,2,3}: M3 = 1.
        clusters = leader_clustering(
            dict(enumerate(subscriptions)), similarity, threshold=1.0
        )
        group_of = clusters.group_of
        assert group_of[0] is group_of[1] is group_of[2]
        assert group_of[3] is group_of[4]
        assert group_of[5] is not group_of[0]
        assert group_of[5] is not group_of[3]
        assert all(group_of[member] in clusters.communities for member in group_of)

    def test_partition_covers_everything(self, subscriptions, similarity):
        communities = communities_of(subscriptions, similarity, threshold=0.5)
        members = sorted(m for c in communities for m in c)
        assert members == list(range(len(subscriptions)))

    def test_empty_input(self, similarity):
        assert communities_of([], similarity, threshold=0.5) == []


#: A 30-pattern workload over the Figure 2 corpus mixing plain paths,
#: descendant steps, wildcards and matches-nothing patterns — wide enough
#: to exercise many placements and plenty of similarity ties.
WORKLOAD_30 = [
    "/a", "/a/b", "/a/b/e", "/a/b/e/k", "/a/b/e/m", "/a/b/f",
    "/a/b/g", "/a/b/g/n", "/a/c", "/a/c/e", "/a/c/f", "/a/c/f/o",
    "/a/d", "/a/d/e", "/a/d/e/k", "/a/d/e/m", "/a/d/q", "/a//e",
    "/a//f", "/a//k", "/a//m", "/a//n", "/a/*/e", "/a/*/f",
    "/a/*/e/k", "/a//e/m", "/a/b//n", "/a//g", "/a/d/p", "/a/c/h",
]




class TestClusteringDeterminism:
    """Regression pins: identical communities across runs and across the
    direct-callable / SimilarityIndex-backed code paths."""

    @pytest.fixture()
    def workload(self):
        return [parse_xpath(x) for x in WORKLOAD_30]

    def test_leader_clustering_deterministic_across_runs(
        self, corpus, workload
    ):
        runs = [
            communities_of(
                workload, partial(m3_joint_over_union, corpus), threshold=0.5
            )
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_leader_clustering_matrix_matches_direct(self, corpus, workload):
        direct = partial(m3_joint_over_union, corpus)
        matrix = SimilarityIndex(corpus)
        for threshold in (0.3, 0.5, 0.8, 1.0):
            assert communities_of(workload, matrix, threshold) == communities_of(
                workload, direct, threshold
            )


def one_broker(subscriptions, policy, provider=None):
    """A single broker matching pattern by pattern: one match operation
    per routing-table entry and document."""
    overlay = BrokerOverlay(1, [], matching="linear")
    overlay.attach_round_robin(subscriptions)
    overlay.advertise(policy, provider)
    return overlay


class TestOneBrokerRouting:
    """Delivery scored against the corpus' exact match sets."""

    def test_per_subscription_is_perfect(self, corpus, subscriptions):
        overlay = one_broker(subscriptions, PerSubscriptionPolicy())
        stats = overlay.route_corpus(corpus)
        assert stats.precision == 1.0
        assert stats.recall == 1.0
        assert stats.match_operations == len(corpus) * len(subscriptions)

    def test_singleton_communities_are_perfect(self, corpus, subscriptions):
        # At or under its cutoff a hybrid broker makes every subscription
        # a community of its own.
        policy = HybridPolicy(0.0, aggregate_above=len(subscriptions))
        overlay = one_broker(subscriptions, policy, corpus)
        assert [len(members) for _, members in overlay.brokers[0].communities] == [
            1
        ] * len(subscriptions)
        stats = overlay.route_corpus(corpus)
        assert stats.precision == 1.0
        assert stats.recall == 1.0

    def test_flooding_full_recall_low_precision(self, corpus, subscriptions):
        overlay = one_broker(subscriptions, PerSubscriptionPolicy())
        stats = overlay.flooding_stats(corpus)
        assert stats.recall == 1.0
        assert stats.precision < 1.0
        assert stats.match_operations == 0

    def test_coherent_communities_good_quality(self, corpus, subscriptions):
        policy = CommunityPolicy(1.0, elect_by_selectivity=False)
        stats = one_broker(subscriptions, policy, corpus).route_corpus(corpus)
        # Equivalence-class communities deliver exactly the right documents.
        assert stats.precision == 1.0
        assert stats.recall == 1.0
        assert stats.match_operations < len(corpus) * len(subscriptions)

    def test_incoherent_single_community(self, corpus, subscriptions):
        # Threshold 0 puts everyone in one community, advertised by its
        # most selective member: /a, which matches everything.
        overlay = one_broker(subscriptions, CommunityPolicy(0.0), corpus)
        ((advertised, members),) = overlay.brokers[0].communities
        assert advertised == subscriptions[5]
        assert len(members) == len(subscriptions)
        stats = overlay.route_corpus(corpus)
        # Full recall, flooding-level precision.
        assert stats.recall == 1.0
        assert stats.precision < 1.0
        assert stats.match_operations == len(corpus)

    def test_stats_properties_on_empty(self, subscriptions):
        # An empty stream delivers nothing and misses nothing.
        overlay = one_broker(subscriptions, PerSubscriptionPolicy())
        stats = overlay.route_corpus(DocumentCorpus([]))
        assert stats.documents == stats.deliveries == 0
        assert stats.precision == 1.0
        assert stats.recall == 1.0
        assert stats.matches_per_document == 0.0
        assert stats.forwards_per_document == 0.0
