"""Property-based equivalence sweep for the lifecycle APIs.

Two invariants anchor the incremental machinery to the batch machinery it
replaced:

* a broker's :class:`~repro.core.similarity.SimilarityIndex`, asked about
  pattern pairs in any order and again, answers each exactly as direct
  metric evaluation does: its memos never change a value;
* a ``subscribe`` → ``unsubscribe`` round trip restores every broker's
  routing table exactly — covering, eviction and resurrection bookkeeping
  are lossless inverses in both advertisement regimes.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.similarity import METRICS, SimilarityIndex
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import CommunityPolicy, PerSubscriptionPolicy
from repro.xmltree.corpus import DocumentCorpus
from tests.strategies import tree_patterns
from tests.test_selectivity_properties import corpora


def overlay_snapshot(overlay):
    """Exact per-broker routing state (active entries only)."""
    return {
        broker_id: frozenset(
            (entry.pattern, entry.destination) for entry in node.table
        )
        for broker_id, node in overlay.brokers.items()
    }


class TestIndexMatrixEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=6),
        st.sampled_from(sorted(METRICS)),
        st.data(),
    )
    def test_any_interleaving_matches_fresh_matrix(
        self, docs, patterns, metric, data
    ):
        corpus = DocumentCorpus(docs)
        index = SimilarityIndex(corpus, metric=metric)
        pairs = [(p, q) for p in patterns for q in patterns]
        order = data.draw(st.permutations(pairs), label="order")
        for p, q in order + order:
            assert index(p, q) == METRICS[metric](corpus, p, q), (metric, p, q)


class TestOverlayRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(tree_patterns(), min_size=1, max_size=4),
        st.lists(tree_patterns(), min_size=1, max_size=3),
        st.data(),
    )
    def test_per_subscription_round_trip(self, base, extra, data):
        # No provider involved: per-subscription advertisement is purely
        # structural, so the round trip exercises covering/resurrection
        # bookkeeping alone.
        overlay = BrokerOverlay.chain(3)
        overlay.attach_round_robin(base)
        overlay.advertise(PerSubscriptionPolicy())
        before = overlay_snapshot(overlay)
        pending = [
            overlay.subscribe(position % 3, pattern)
            for position, pattern in enumerate(extra)
        ]
        while pending:
            victim = data.draw(st.sampled_from(pending), label="unsubscribe")
            pending.remove(victim)
            overlay.unsubscribe(victim)
        assert overlay_snapshot(overlay) == before

    @settings(max_examples=15, deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=4),
        st.lists(tree_patterns(), min_size=1, max_size=2),
        st.sampled_from([0.3, 0.7]),
        st.data(),
    )
    def test_community_round_trip(self, docs, base, extra, threshold, data):
        corpus = DocumentCorpus(docs)
        overlay = BrokerOverlay.chain(3)
        overlay.attach_round_robin(base)
        overlay.advertise(CommunityPolicy(threshold), corpus)
        before = overlay_snapshot(overlay)
        communities_before = {
            broker_id: list(node.communities)
            for broker_id, node in overlay.brokers.items()
        }
        pending = [
            overlay.subscribe(position % 3, pattern)
            for position, pattern in enumerate(extra)
        ]
        while pending:
            victim = data.draw(st.sampled_from(pending), label="unsubscribe")
            pending.remove(victim)
            overlay.unsubscribe(victim)
        assert overlay_snapshot(overlay) == before
        for broker_id, node in overlay.brokers.items():
            assert node.communities == communities_before[broker_id]
