"""Property-based equivalence of the policy layer's entry points.

For any random workload, :class:`~repro.routing.policy.HybridPolicy` at
its extreme cutoffs must recover both base regimes, and a churn burst
must converge whether applied event by event or as one batch.  The
scheduling policies get the complementary guarantee: they reorder
service, never delivery membership.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.engine import DeliveryEngine, LinkModel, ServiceModel
from repro.routing.overlay import TOPOLOGIES, BrokerOverlay
from repro.routing.policy import (
    CommunityPolicy,
    DeadlineScheduling,
    FifoScheduling,
    HybridPolicy,
    PerSubscriptionPolicy,
    PriorityScheduling,
)
from repro.xmltree.corpus import DocumentCorpus
from tests.strategies import tree_patterns
from tests.test_selectivity_properties import corpora


def table_snapshot(overlay):
    """Exact per-broker routing state (active entries only)."""
    return {
        broker_id: frozenset(
            (entry.pattern, entry.destination) for entry in node.table
        )
        for broker_id, node in overlay.brokers.items()
    }


def delivered_sets(overlay, corpus):
    """Per document, the synchronous path's delivered subscriber sets."""
    n_brokers = len(overlay.brokers)
    return {
        index: frozenset(overlay.route(document, index % n_brokers)[0])
        for index, document in enumerate(corpus.documents)
    }


def membership_overlay(topology, n_brokers, patterns):
    overlay = BrokerOverlay.build(topology, n_brokers, seed=5)
    overlay.attach_round_robin(patterns)
    return overlay


class TestPolicyEqualsLegacy:
    @settings(max_examples=20, deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([0.3, 0.7]),
    )
    def test_hybrid_extremes_recover_both_regimes(
        self, docs, patterns, n_brokers, threshold
    ):
        corpus = DocumentCorpus(docs)

        aggregated = membership_overlay("chain", n_brokers, patterns)
        aggregated.advertise(
            HybridPolicy(threshold, aggregate_above=0), provider=corpus
        )
        community = membership_overlay("chain", n_brokers, patterns)
        community.advertise(CommunityPolicy(threshold), corpus)
        assert table_snapshot(aggregated) == table_snapshot(community)

        sparse = membership_overlay("chain", n_brokers, patterns)
        sparse.advertise(
            HybridPolicy(threshold, aggregate_above=len(patterns)),
            provider=corpus,
        )
        baseline = membership_overlay("chain", n_brokers, patterns)
        baseline.advertise(PerSubscriptionPolicy())
        assert table_snapshot(sparse) == table_snapshot(baseline)


class TestBatchEqualsPerEvent:
    @settings(max_examples=20, deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=3),
        st.lists(tree_patterns(), min_size=1, max_size=4),
        st.sampled_from(["per_subscription", 0.3, 0.7]),
        st.data(),
    )
    def test_subscribe_many_matches_event_loop(
        self, docs, base, burst, regime, data
    ):
        corpus = DocumentCorpus(docs)
        per_event = membership_overlay("chain", 3, base)
        batched = membership_overlay("chain", 3, base)
        for overlay in (per_event, batched):
            if regime == "per_subscription":
                overlay.advertise(PerSubscriptionPolicy())
            else:
                overlay.advertise(CommunityPolicy(regime), corpus)
        home = data.draw(
            st.integers(min_value=0, max_value=2), label="home"
        )
        ids_event = [per_event.subscribe(home, p) for p in burst]
        ids_batch = batched.subscribe_many(home, burst)
        assert ids_batch == ids_event
        assert table_snapshot(batched) == table_snapshot(per_event)
        assert delivered_sets(batched, corpus) == delivered_sets(
            per_event, corpus
        )
        # And the batch retirement converges with the per-event one.
        for subscription_id in ids_event:
            per_event.unsubscribe(subscription_id)
        batched.unsubscribe_many(ids_batch)
        assert table_snapshot(batched) == table_snapshot(per_event)

    @settings(max_examples=20, deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=3),
        st.lists(tree_patterns(), min_size=1, max_size=4),
        st.sampled_from([0.3, 0.7]),
        st.integers(min_value=0, max_value=6),
        st.data(),
    )
    def test_subscribe_many_matches_event_loop_hybrid(
        self, docs, base, burst, threshold, cutoff, data
    ):
        # PR 4 pinned the two base policies; HybridPolicy additionally
        # flips regimes as the burst pushes a broker across the cutoff,
        # so the batched path must converge through the flip too.
        corpus = DocumentCorpus(docs)
        per_event = membership_overlay("chain", 3, base)
        batched = membership_overlay("chain", 3, base)
        for overlay in (per_event, batched):
            overlay.advertise(
                HybridPolicy(threshold, aggregate_above=cutoff),
                provider=corpus,
            )
        home = data.draw(
            st.integers(min_value=0, max_value=2), label="home"
        )
        ids_event = [per_event.subscribe(home, p) for p in burst]
        ids_batch = batched.subscribe_many(home, burst)
        assert ids_batch == ids_event
        assert table_snapshot(batched) == table_snapshot(per_event)
        assert delivered_sets(batched, corpus) == delivered_sets(
            per_event, corpus
        )
        # Retire the burst through the opposite APIs to cross the cutoff
        # downward as well.
        for subscription_id in ids_event:
            per_event.unsubscribe(subscription_id)
        batched.unsubscribe_many(ids_batch)
        assert table_snapshot(batched) == table_snapshot(per_event)
        assert delivered_sets(batched, corpus) == delivered_sets(
            per_event, corpus
        )


class TestSchedulingNeverChangesDelivery:
    @settings(max_examples=15, deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=4),
        st.sampled_from(sorted(TOPOLOGIES)),
        st.sampled_from(["per_subscription", 0.5]),
        st.sampled_from([0.25, 4.0]),
    )
    def test_all_policies_deliver_identical_sets(
        self, docs, patterns, topology, regime, rate
    ):
        corpus = DocumentCorpus(docs)
        overlay = membership_overlay(topology, 3, patterns)
        if regime == "per_subscription":
            overlay.advertise(PerSubscriptionPolicy())
        else:
            overlay.advertise(CommunityPolicy(regime), corpus)
        expected = delivered_sets(overlay, corpus)
        for scheduling in (
            FifoScheduling(),
            PriorityScheduling(),
            DeadlineScheduling(),
            DeadlineScheduling(default_slack=2.0),
        ):
            engine = DeliveryEngine(
                overlay,
                service=ServiceModel(base=0.2, per_match=0.1),
                links=LinkModel(default=0.5),
                scheduling=scheduling,
            )
            engine.publish_corpus(
                corpus, rate=rate, classes=(0, 1, 2), deadline_slack=3.0
            )
            engine.run()
            assert engine.delivered_sets() == expected, scheduling

    @settings(max_examples=10, deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=4),
        st.sampled_from([PriorityScheduling(), DeadlineScheduling()]),
        st.floats(min_value=0.1, max_value=20.0, allow_nan=False),
    )
    def test_non_fifo_runs_replay_bit_for_bit(
        self, docs, patterns, scheduling, rate
    ):
        corpus = DocumentCorpus(docs)
        overlay = membership_overlay("chain", 3, patterns)
        overlay.advertise(PerSubscriptionPolicy())
        outcomes = []
        for _ in range(2):
            engine = DeliveryEngine(
                overlay,
                service=ServiceModel(base=0.1, per_match=0.3),
                links=LinkModel(default=0.7),
                scheduling=scheduling,
            )
            engine.publish_corpus(
                corpus,
                rate=rate,
                arrivals="poisson",
                seed=11,
                classes=(2, 0, 1),
                deadline_slack=5.0,
            )
            outcomes.append((engine.run(), engine.delivered_sets()))
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=10, deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=4),
    )
    def test_class_latencies_partition_overall(self, docs, patterns):
        corpus = DocumentCorpus(docs)
        overlay = membership_overlay("star", 3, patterns)
        overlay.advertise(PerSubscriptionPolicy())
        engine = DeliveryEngine(overlay, scheduling=PriorityScheduling())
        engine.publish_corpus(corpus, rate=2.0, classes=(0, 1))
        stats = engine.run()
        assert sum(
            digest.deliveries
            for digest in stats.latency_by_class.values()
        ) == stats.deliveries
        if stats.deliveries:
            assert max(
                digest.max for digest in stats.latency_by_class.values()
            ) == stats.latency_max
