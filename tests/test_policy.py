"""The policy layer: advertisement and scheduling strategies."""

import math

import pytest

from repro.core.candidates import ExactCandidates
from repro.core.pattern_parser import parse_xpath
from repro.routing.community import LeaderClusters
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import (
    CommunityPolicy,
    DeadlineScheduling,
    FifoScheduling,
    HybridPolicy,
    PerSubscriptionPolicy,
    PriorityScheduling,
    WeightedFairScheduling,
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

    @pytest.mark.parametrize("cutoff", [float("nan"), 2.5, 8.0])
    def test_non_integer_cutoff_is_refused(self, cutoff):
        # A NaN cutoff would aggregate every broker whatever its size:
        # no count compares at or under NaN.
        with pytest.raises(ValueError, match="aggregate_above"):
            HybridPolicy(0.5, aggregate_above=cutoff)

    def test_mode_labels(self):
        assert PerSubscriptionPolicy().mode_label() == "per_subscription"
        assert (
            CommunityPolicy(0.5).mode_label() == "community(threshold=0.5)"
        )
        assert (
            HybridPolicy(0.5, aggregate_above=4).mode_label()
            == "hybrid(threshold=0.5, aggregate_above=4)"
        )
        # Every field off its default is named, in the label and the repr.
        assert CommunityPolicy(
            0.5, metric="M1", elect_by_selectivity=False, ratio_prefilter=False
        ).mode_label() == (
            "community(threshold=0.5, metric=M1, "
            "elect_by_selectivity=False, ratio_prefilter=False)"
        )
        assert repr(HybridPolicy(0.5, metric="M1", candidates=ExactCandidates())) == (
            "HybridPolicy(threshold=0.5, metric='M1', elect_by_selectivity=True, "
            "ratio_prefilter=True, candidates=ExactCandidates(population=0), "
            "aggregate_above=8)"
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
        # Dropping back under the cutoff flips back, and the broker
        # keeps no clustering record there.
        overlay.unsubscribe(1)
        assert overlay.brokers[0].communities == [
            (patterns[0], (0,))
        ]
        assert overlay.brokers[0].clusters == LeaderClusters()


class TestSchedulingResolution:
    """A scheduling policy is an object that checks its own arguments
    when it is built."""

    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            DeadlineScheduling(default_slack=-1.0)
        assert DeadlineScheduling(default_slack=0.0).default_slack == 0.0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PriorityScheduling(aging=math.nan),
            lambda: PriorityScheduling(aging=math.inf),
            lambda: PriorityScheduling({1: math.nan}),
            lambda: DeadlineScheduling(default_slack=math.nan),
            lambda: WeightedFairScheduling(default_weight=math.nan),
            lambda: WeightedFairScheduling({1: math.nan}),
        ],
        ids=[
            "aging-nan",
            "aging-inf",
            "priority-weight-nan",
            "default-slack-nan",
            "default-weight-nan",
            "fair-weight-nan",
        ],
    )
    def test_nan_inputs_and_infinite_aging_are_refused(self, build):
        # Each would serve another order silently: NaN fails every
        # comparison, and infinite aging times a zero wait is NaN.
        with pytest.raises(ValueError):
            build()


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
        assert FifoScheduling().select(queue, 0.0, {}) == 0

    def test_priority_picks_heaviest_class(self):
        queue = [_StubJob(0), _StubJob(2), _StubJob(1)]
        assert PriorityScheduling().select(queue, 0.0, {}) == 1

    def test_priority_respects_explicit_weights(self):
        queue = [_StubJob(0), _StubJob(2), _StubJob(1)]
        inverted = PriorityScheduling({0: 10.0, 1: 5.0, 2: 0.0})
        assert inverted.select(queue, 0.0, {}) == 0

    def test_priority_ties_keep_arrival_order(self):
        queue = [_StubJob(1), _StubJob(1), _StubJob(1)]
        assert PriorityScheduling().select(queue, 0.0, {}) == 0

    def test_deadline_picks_earliest(self):
        queue = [
            _StubJob(deadline=9.0),
            _StubJob(deadline=4.0),
            _StubJob(deadline=6.0),
        ]
        assert DeadlineScheduling().select(queue, 0.0, {}) == 1

    def test_deadline_default_slack_orders_unset_jobs(self):
        queue = [
            _StubJob(published_at=3.0),
            _StubJob(published_at=1.0),
            _StubJob(deadline=100.0),
        ]
        # Finite slack: unset jobs compete on published_at + slack.
        assert DeadlineScheduling(default_slack=10.0).select(queue, 0.0, {}) == 1
        # Infinite slack: any explicit deadline wins.
        assert DeadlineScheduling().select(queue, 0.0, {}) == 2


class TestDeadlineTieBreaking:
    """EDF's underspecified corners: equal deadlines and mixed fallbacks."""

    def test_equal_deadlines_keep_arrival_order(self):
        queue = [
            _StubJob(deadline=5.0),
            _StubJob(deadline=5.0),
            _StubJob(deadline=5.0),
        ]
        assert DeadlineScheduling().select(queue, 0.0, {}) == 0

    def test_strictly_earlier_deadline_beats_arrival_order(self):
        queue = [_StubJob(deadline=5.0), _StubJob(deadline=5.0 - 1e-9)]
        assert DeadlineScheduling().select(queue, 0.0, {}) == 1

    def test_deadline_ties_fallback_jobs_keep_arrival_order(self):
        # With infinite default slack every no-deadline job ties at +inf;
        # the head of the queue must win, making EDF a drop-in FIFO.
        queue = [_StubJob(), _StubJob(), _StubJob()]
        assert DeadlineScheduling().select(queue, 0.0, {}) == 0

    def test_explicit_deadline_ties_with_fallback_deadline(self):
        # published_at + slack == the explicit deadline: arrival order
        # decides, so the earlier-queued fallback job is served first.
        queue = [_StubJob(published_at=2.0), _StubJob(deadline=12.0)]
        assert DeadlineScheduling(default_slack=10.0).select(queue, 0.0, {}) == 0
        # Swap the arrival order and the explicit deadline wins the tie.
        swapped = [_StubJob(deadline=12.0), _StubJob(published_at=2.0)]
        assert (
            DeadlineScheduling(default_slack=10.0).select(swapped, 0.0, {}) == 0
        )

    def test_past_deadlines_still_order_most_overdue_first(self):
        queue = [_StubJob(deadline=4.0), _StubJob(deadline=1.0)]
        # Both are overdue at now=9; the most overdue job is served first.
        assert DeadlineScheduling().select(queue, 9.0, {}) == 1

    def test_default_slack_validation(self):
        with pytest.raises(ValueError):
            DeadlineScheduling(default_slack=-1.0)
