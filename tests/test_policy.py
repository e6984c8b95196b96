"""The policy layer: advertisement/scheduling strategies and the builder."""

import pytest

from repro.core.pattern_parser import parse_xpath
from repro.routing.builder import OverlayBuilder
from repro.routing.engine import DeliveryEngine, LinkModel, ServiceModel
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import (
    CommunityPolicy,
    DeadlineScheduling,
    FifoScheduling,
    HybridPolicy,
    PerSubscriptionPolicy,
    PriorityScheduling,
)
from repro.xmltree.corpus import DocumentCorpus
from repro.xmltree.parser import parse_xml


@pytest.fixture()
def corpus():
    docs = [
        parse_xml("<a><b/><c/></a>", doc_id=0),
        parse_xml("<a><b><d/></b></a>", doc_id=1),
        parse_xml("<a><c/></a>", doc_id=2),
        parse_xml("<a><c><d/></c></a>", doc_id=3),
    ]
    return DocumentCorpus(docs)


@pytest.fixture()
def patterns():
    return [
        parse_xpath("/a/b"),
        parse_xpath("/a/b/d"),
        parse_xpath("/a/c"),
        parse_xpath("/a/c/d"),
        parse_xpath("/a"),
        parse_xpath("//d"),
    ]


def table_snapshot(overlay):
    return {
        broker_id: frozenset(
            (entry.pattern, entry.destination) for entry in node.table
        )
        for broker_id, node in overlay.brokers.items()
    }


class TestAdvertise:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CommunityPolicy(1.5)
        with pytest.raises(ValueError, match="unknown metric"):
            CommunityPolicy(0.5, metric="M4")
        with pytest.raises(ValueError, match="unknown metric"):
            HybridPolicy(0.5, metric="M4")
        with pytest.raises(ValueError):
            HybridPolicy(0.5, aggregate_above=-1)

    def test_mode_labels(self):
        assert PerSubscriptionPolicy().mode_label() == "per_subscription"
        assert (
            CommunityPolicy(0.5).mode_label() == "community(threshold=0.5)"
        )
        assert (
            HybridPolicy(0.5, aggregate_above=4).mode_label()
            == "hybrid(threshold=0.5, aggregate_above=4)"
        )

    def test_similarity_policy_requires_provider(self, patterns):
        overlay = BrokerOverlay.chain(2)
        overlay.attach_round_robin(patterns)
        with pytest.raises(ValueError):
            overlay.advertise(CommunityPolicy(0.5))

    def test_policy_and_provider_stay_live(self, corpus, patterns):
        overlay = BrokerOverlay.chain(2)
        overlay.attach_round_robin(patterns)
        policy = CommunityPolicy(0.5)
        overlay.advertise(policy, provider=corpus)
        assert overlay.policy is policy
        assert overlay.provider is corpus
        overlay.reset_routing()
        assert overlay.policy is None and overlay.provider is None


class TestHybridPolicy:
    def test_cutoff_zero_equals_community(self, corpus, patterns):
        hybrid = BrokerOverlay.chain(3)
        hybrid.attach_round_robin(patterns)
        hybrid.advertise(
            HybridPolicy(0.5, aggregate_above=0), provider=corpus
        )
        community = BrokerOverlay.chain(3)
        community.attach_round_robin(patterns)
        community.advertise(CommunityPolicy(0.5), provider=corpus)
        assert table_snapshot(hybrid) == table_snapshot(community)

    def test_huge_cutoff_equals_per_subscription(self, corpus, patterns):
        hybrid = BrokerOverlay.chain(3)
        hybrid.attach_round_robin(patterns)
        hybrid.advertise(
            HybridPolicy(0.5, aggregate_above=10_000), provider=corpus
        )
        baseline = BrokerOverlay.chain(3)
        baseline.attach_round_robin(patterns)
        baseline.advertise(PerSubscriptionPolicy())
        assert table_snapshot(hybrid) == table_snapshot(baseline)

    def test_broker_flips_regime_crossing_cutoff(self, corpus, patterns):
        overlay = BrokerOverlay.chain(2)
        overlay.attach(0, patterns[0])
        overlay.advertise(
            HybridPolicy(0.0, aggregate_above=1), provider=corpus
        )
        # One subscription: per-subscription shape (singleton per member).
        assert overlay.brokers[0].communities == [
            (patterns[0], (0,))
        ]
        # Second arrival crosses the cutoff: the broker aggregates into
        # one community covering both members.
        overlay.subscribe(0, patterns[1])
        ((advertised, members),) = overlay.brokers[0].communities
        assert sorted(members) == [0, 1]
        # Dropping back under the cutoff flips back.
        overlay.unsubscribe(1)
        assert overlay.brokers[0].communities == [
            (patterns[0], (0,))
        ]


class TestSchedulingResolution:
    """A scheduling policy is an object that checks its own arguments
    when it is built."""

    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            DeadlineScheduling(default_slack=-1.0)
        assert DeadlineScheduling(default_slack=0.0).default_slack == 0.0


class _StubJob:
    def __init__(self, priority_class=0, deadline=None, published_at=0.0):
        self.doc_index = 0
        self.published_at = published_at
        self.arrived_at = published_at
        self.priority_class = priority_class
        self.deadline = deadline


class TestSchedulingSelection:
    def test_fifo_picks_head(self):
        queue = [_StubJob(), _StubJob(priority_class=9)]
        assert FifoScheduling().select(queue, 0.0) == 0

    def test_priority_picks_heaviest_class(self):
        queue = [_StubJob(0), _StubJob(2), _StubJob(1)]
        assert PriorityScheduling().select(queue, 0.0) == 1

    def test_priority_respects_explicit_weights(self):
        queue = [_StubJob(0), _StubJob(2), _StubJob(1)]
        inverted = PriorityScheduling({0: 10.0, 1: 5.0, 2: 0.0})
        assert inverted.select(queue, 0.0) == 0

    def test_priority_ties_keep_arrival_order(self):
        queue = [_StubJob(1), _StubJob(1), _StubJob(1)]
        assert PriorityScheduling().select(queue, 0.0) == 0

    def test_deadline_picks_earliest(self):
        queue = [
            _StubJob(deadline=9.0),
            _StubJob(deadline=4.0),
            _StubJob(deadline=6.0),
        ]
        assert DeadlineScheduling().select(queue, 0.0) == 1

    def test_deadline_default_slack_orders_unset_jobs(self):
        queue = [
            _StubJob(published_at=3.0),
            _StubJob(published_at=1.0),
            _StubJob(deadline=100.0),
        ]
        # Finite slack: unset jobs compete on published_at + slack.
        assert DeadlineScheduling(default_slack=10.0).select(queue, 0.0) == 1
        # Infinite slack: any explicit deadline wins.
        assert DeadlineScheduling().select(queue, 0.0) == 2


class TestOverlayBuilder:
    def build_base(self, patterns):
        return (
            OverlayBuilder()
            .topology("chain", 3)
            .subscriptions(patterns)
        )

    def test_requires_topology(self, patterns):
        with pytest.raises(ValueError):
            OverlayBuilder().subscriptions(patterns).build_overlay()

    def test_rejects_unknown_topology(self):
        with pytest.raises(ValueError):
            OverlayBuilder().topology("hypercube", 4)

    def test_default_policy_is_per_subscription(self, patterns):
        overlay = self.build_base(patterns).build_overlay()
        assert overlay.mode == "per_subscription"

    def test_build_matches_manual_assembly(self, corpus, patterns):
        overlay, engine = (
            self.build_base(patterns)
            .provider(corpus)
            .advertisement(CommunityPolicy(0.5))
            .service(ServiceModel(base=0.3, per_match=0.1))
            .links(LinkModel(default=2.0))
            .scheduling(PriorityScheduling())
            .build()
        )
        manual = BrokerOverlay.chain(3)
        manual.attach_round_robin(patterns)
        manual.advertise(CommunityPolicy(0.5), corpus)
        assert table_snapshot(overlay) == table_snapshot(manual)
        assert isinstance(engine, DeliveryEngine)
        assert isinstance(engine.scheduling, PriorityScheduling)
        assert engine.service.base == 0.3
        assert engine.links.latency(0, 1) == 2.0

    def test_explicit_edges_and_placement(self, patterns):
        overlay = (
            OverlayBuilder()
            .edges(3, [(0, 1), (1, 2)])
            .subscribe(2, patterns[0])
            .subscribe(0, patterns[1])
            .build_overlay()
        )
        assert overlay.brokers[2].local_subscribers == [0]
        assert overlay.brokers[0].local_subscribers == [1]

    def test_builder_is_reusable(self, corpus, patterns):
        builder = self.build_base(patterns).provider(corpus).advertisement(
            CommunityPolicy(0.5)
        )
        first = builder.build_overlay()
        second = builder.build_overlay()
        assert first is not second
        assert table_snapshot(first) == table_snapshot(second)

    def test_build_engine_reuses_overlay(self, patterns):
        builder = self.build_base(patterns)
        overlay = builder.build_overlay()
        engine_a = builder.build_engine(overlay)
        engine_b = builder.build_engine(overlay)
        assert engine_a is not engine_b
        assert engine_a.overlay is overlay and engine_b.overlay is overlay

    def test_missing_provider_fails_at_build(self, patterns):
        builder = self.build_base(patterns).advertisement(
            CommunityPolicy(0.5)
        )
        with pytest.raises(ValueError):
            builder.build_overlay()

    def test_repr_mentions_policies(self, patterns):
        builder = self.build_base(patterns).advertisement(CommunityPolicy(0.5))
        assert "CommunityPolicy" in repr(builder)


class TestDeadlineTieBreaking:
    """EDF's underspecified corners: equal deadlines and mixed fallbacks."""

    def test_equal_deadlines_keep_arrival_order(self):
        queue = [
            _StubJob(deadline=5.0),
            _StubJob(deadline=5.0),
            _StubJob(deadline=5.0),
        ]
        assert DeadlineScheduling().select(queue, 0.0) == 0

    def test_strictly_earlier_deadline_beats_arrival_order(self):
        queue = [_StubJob(deadline=5.0), _StubJob(deadline=5.0 - 1e-9)]
        assert DeadlineScheduling().select(queue, 0.0) == 1

    def test_deadline_ties_fallback_jobs_keep_arrival_order(self):
        # With infinite default slack every no-deadline job ties at +inf;
        # the head of the queue must win, making EDF a drop-in FIFO.
        queue = [_StubJob(), _StubJob(), _StubJob()]
        assert DeadlineScheduling().select(queue, 0.0) == 0

    def test_explicit_deadline_ties_with_fallback_deadline(self):
        # published_at + slack == the explicit deadline: arrival order
        # decides, so the earlier-queued fallback job is served first.
        queue = [_StubJob(published_at=2.0), _StubJob(deadline=12.0)]
        assert DeadlineScheduling(default_slack=10.0).select(queue, 0.0) == 0
        # Swap the arrival order and the explicit deadline wins the tie.
        swapped = [_StubJob(deadline=12.0), _StubJob(published_at=2.0)]
        assert (
            DeadlineScheduling(default_slack=10.0).select(swapped, 0.0) == 0
        )

    def test_past_deadlines_still_order_most_overdue_first(self):
        queue = [_StubJob(deadline=4.0), _StubJob(deadline=1.0)]
        # Both are overdue at now=9; the most overdue job is served first.
        assert DeadlineScheduling().select(queue, 9.0) == 1

    def test_default_slack_validation(self):
        with pytest.raises(ValueError):
            DeadlineScheduling(default_slack=-1.0)
