"""Overload survival: bounded queues, back-pressure, fair scheduling.

Unit edge cases of the overload layer — the property suite
(``tests/test_overload_properties.py``) pins the conservation and
replay invariants; here each mechanism is exercised at its boundary:
capacity 0 and 1, drop-oldest around an in-service batch, NACKs of
multi-destination documents, aging promotion and its ties, and the
zero-denominator stats states bounded queues can now reach.
"""

import math
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.core.pattern_parser import parse_xpath
from repro.routing.broker import ClassLatency, LatencyStats
from repro.routing.engine import (
    BatchServiceModel,
    ClosedLoopSource,
    DeliveryEngine,
    LinkModel,
    ServiceModel,
)
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import (
    OVERFLOW_MODES,
    PerSubscriptionPolicy,
    PriorityScheduling,
    QueuePolicy,
    WeightedFairScheduling,
)
from repro.xmltree.corpus import DocumentCorpus
from repro.xmltree.parser import parse_xml


def doc(xml: str, doc_id: int = 0):
    return parse_xml(xml, doc_id=doc_id)


def single_broker():
    """One broker, one subscriber wanting //b."""
    overlay = BrokerOverlay.chain(1)
    overlay.attach(0, parse_xpath("//b"))
    overlay.advertise(PerSubscriptionPolicy())
    return overlay


def conserved(stats: LatencyStats) -> None:
    """The drained conservation identity every run must satisfy."""
    assert stats.in_flight_jobs == 0
    assert stats.offered_jobs == (
        stats.completed_jobs + stats.dropped_jobs + stats.nacked_jobs
    )


class TestQueuePolicy:
    def test_default_is_unbounded(self):
        policy = QueuePolicy()
        assert policy.capacity is None
        assert not policy.bounded
        assert policy.admits(10**9)

    def test_admits_strictly_below_capacity(self):
        policy = QueuePolicy(2)
        assert policy.admits(0)
        assert policy.admits(1)
        assert not policy.admits(2)
        assert not QueuePolicy(0).admits(0)

    def test_rejects_bad_capacity_and_overflow(self):
        with pytest.raises(ValueError):
            QueuePolicy(-1)
        with pytest.raises(ValueError):
            QueuePolicy(4, "spill")
        assert set(OVERFLOW_MODES) == {"drop-new", "drop-oldest", "nack"}

    @pytest.mark.parametrize("capacity", [math.nan, 2.5, 2.0])
    def test_rejects_a_non_integer_capacity(self, capacity):
        # NaN admitted no waiting document, so a busy broker dropped
        # every arrival, and 2.5 admitted a third.
        with pytest.raises(ValueError, match="capacity"):
            QueuePolicy(capacity)


class TestBoundedQueues:
    def service_times(self):
        return ServiceModel(base=1.0, per_match=0.0)

    def test_capacity_zero_is_a_loss_system(self):
        # The in-service job is not queued: one serviced, the two
        # arrivals that found the broker busy are lost.
        engine = DeliveryEngine(
            single_broker(),
            service=self.service_times(),
            queue_policy=QueuePolicy(0),
        )
        for i, time in enumerate((0.0, 0.2, 0.4)):
            engine.publish(doc("<b/>", doc_id=i), 0, time)
        stats = engine.run()
        conserved(stats)
        assert stats.completed_jobs == 1
        assert stats.dropped_jobs == 2
        assert stats.dropped_by_broker == {0: 2}
        assert stats.deliveries == 1
        assert stats.peak_queue_depth == 1

    def test_capacity_one_drop_new_keeps_first_queued(self):
        engine = DeliveryEngine(
            single_broker(),
            service=self.service_times(),
            queue_policy=QueuePolicy(1, "drop-new"),
        )
        for i, time in enumerate((0.0, 0.2, 0.4)):
            engine.publish(doc("<b/>", doc_id=i), 0, time)
        stats = engine.run()
        conserved(stats)
        assert stats.completed_jobs == 2
        assert stats.dropped_jobs == 1
        assert sorted(engine.delivered_sets()[1]) == [0]
        assert engine.delivered_sets()[2] == frozenset()

    def test_capacity_one_drop_oldest_keeps_last_arrival(self):
        engine = DeliveryEngine(
            single_broker(),
            service=self.service_times(),
            queue_policy=QueuePolicy(1, "drop-oldest"),
        )
        for i, time in enumerate((0.0, 0.2, 0.4)):
            engine.publish(doc("<b/>", doc_id=i), 0, time)
        stats = engine.run()
        conserved(stats)
        assert stats.completed_jobs == 2
        assert stats.dropped_jobs == 1
        assert engine.delivered_sets()[1] == frozenset()
        assert sorted(engine.delivered_sets()[2]) == [0]

    def test_capacity_zero_drop_oldest_degrades_to_drop_new(self):
        # Nothing is queued to evict, so the arrival itself is lost.
        engine = DeliveryEngine(
            single_broker(),
            service=self.service_times(),
            queue_policy=QueuePolicy(0, "drop-oldest"),
        )
        engine.publish(doc("<b/>", doc_id=0), 0, 0.0)
        engine.publish(doc("<b/>", doc_id=1), 0, 0.5)
        stats = engine.run()
        conserved(stats)
        assert stats.dropped_jobs == 1
        assert engine.delivered_sets()[1] == frozenset()

    def test_drop_oldest_never_evicts_the_in_service_batch(self):
        # A draining batch is work in progress, not queue occupancy:
        # eviction only ever touches waiting jobs.
        engine = DeliveryEngine(
            single_broker(),
            service=BatchServiceModel(
                base=1.0, per_match=0.0, per_doc=0.0, max_batch=2
            ),
            queue_policy=QueuePolicy(1, "drop-oldest"),
        )
        engine.publish(doc("<b/>", doc_id=0), 0, 0.0)  # in service
        engine.publish(doc("<b/>", doc_id=1), 0, 0.2)  # queued
        engine.publish(doc("<b/>", doc_id=2), 0, 0.4)  # evicts doc 1
        stats = engine.run()
        conserved(stats)
        assert stats.dropped_jobs == 1
        assert sorted(engine.delivered_sets()[0]) == [0]
        assert engine.delivered_sets()[1] == frozenset()
        assert sorted(engine.delivered_sets()[2]) == [0]

    def test_peak_depth_stays_at_bound_under_overflow(self):
        engine = DeliveryEngine(
            single_broker(),
            service=self.service_times(),
            queue_policy=QueuePolicy(2, "drop-new"),
        )
        for i in range(10):
            engine.publish(doc("<b/>", doc_id=i), 0, 0.1 * i)
        stats = engine.run()
        conserved(stats)
        # capacity waiting + one in service
        assert stats.peak_queue_depth == 3

    def test_all_dropped_class_has_no_latency_digest(self):
        # Class 1 only ever arrives at a busy broker with a full queue:
        # it is accounted in the drop ledger, never in latencies.
        engine = DeliveryEngine(
            single_broker(),
            service=self.service_times(),
            queue_policy=QueuePolicy(0),
        )
        engine.publish(doc("<b/>", doc_id=0), 0, 0.0, priority_class=0)
        engine.publish(doc("<b/>", doc_id=1), 0, 0.3, priority_class=1)
        engine.publish(doc("<b/>", doc_id=2), 0, 0.6, priority_class=1)
        stats = engine.run()
        conserved(stats)
        assert stats.dropped_by_class == {1: 2}
        assert stats.offered_by_class == {0: 1, 1: 2}
        assert 1 not in stats.latency_by_class
        assert 1 not in stats.completed_by_class
        assert stats.completed_share_by_class == {0: 1.0}
        assert stats.admission_ratio == pytest.approx(1 / 3)


class TestNacks:
    def test_nack_counts_separately_from_drops(self):
        engine = DeliveryEngine(
            single_broker(),
            service=ServiceModel(base=1.0, per_match=0.0),
            queue_policy=QueuePolicy(0, "nack"),
        )
        for i, time in enumerate((0.0, 0.2, 0.4)):
            engine.publish(doc("<b/>", doc_id=i), 0, time)
        stats = engine.run()
        conserved(stats)
        assert stats.nacked_jobs == 2
        assert stats.dropped_jobs == 0
        assert stats.nacked_by_class == {0: 2}

    def test_nack_of_multi_destination_document(self):
        # chain 0—1—2, a subscriber at each end.  The copy forwarded to
        # broker 1 bounces off its full queue, so broker 2's subscriber
        # is never reached — but the local delivery at broker 0 stands
        # and every copy is accounted.
        overlay = BrokerOverlay.chain(3)
        overlay.attach(0, parse_xpath("//b"))
        overlay.attach(2, parse_xpath("//b"))
        overlay.advertise(PerSubscriptionPolicy())
        engine = DeliveryEngine(
            overlay,
            service=ServiceModel(base=1.0, per_match=0.0),
            links=LinkModel(default=0.5),
            queue_policy=QueuePolicy(0, "nack"),
        )
        index = engine.publish(doc("<b/>", doc_id=0), 0, 0.0)
        # Keep broker 1 busy over the copy's arrival at t=1.5.
        blocker = engine.publish(doc("<c/>", doc_id=1), 1, 1.2)
        stats = engine.run()
        conserved(stats)
        assert stats.nacked_jobs == 1
        assert engine.delivered_sets()[index] == frozenset({0})
        assert engine.delivered_sets()[blocker] == frozenset()


class TestClosedLoopSource:
    def test_validates_parameters(self):
        corpus = DocumentCorpus([doc("<b/>")])
        with pytest.raises(ValueError):
            ClosedLoopSource(corpus, initial_window=0.5)
        with pytest.raises(ValueError):
            ClosedLoopSource(corpus, initial_window=4.0, max_window=2.0)
        with pytest.raises(ValueError):
            ClosedLoopSource(corpus, decrease_factor=0.0)
        with pytest.raises(ValueError):
            ClosedLoopSource(corpus, decrease_factor=1.5)
        with pytest.raises(ValueError):
            ClosedLoopSource(corpus, additive_increase=-1.0)
        with pytest.raises(ValueError):
            ClosedLoopSource(corpus, start=-1.0)
        with pytest.raises(ValueError):
            ClosedLoopSource(corpus, feedback_delay=-0.1)
        with pytest.raises(ValueError):
            ClosedLoopSource(corpus, jitter=-0.1)
        with pytest.raises(ValueError):
            ClosedLoopSource(corpus, deadline_slack=-2.0)

    def test_attach_rejects_unknown_broker_and_bad_report_index(self):
        engine = DeliveryEngine(single_broker())
        corpus = DocumentCorpus([doc("<b/>")])
        with pytest.raises(ValueError):
            engine.attach_source(ClosedLoopSource(corpus, at_broker=7))
        with pytest.raises(ValueError):
            engine.source_report(0)

    def test_window_gates_publishing(self):
        # Window 1: each publish waits for the previous document's
        # absorption, so the whole corpus is strictly serialised.
        corpus = DocumentCorpus([doc("<b/>", doc_id=i) for i in range(4)])
        engine = DeliveryEngine(
            single_broker(),
            service=ServiceModel(base=1.0, per_match=0.0),
            queue_policy=QueuePolicy(0),
        )
        source = engine.attach_source(
            ClosedLoopSource(corpus, additive_increase=0.0)
        )
        stats = engine.run()
        conserved(stats)
        report = engine.source_report(source)
        assert report.published == 4
        assert report.pending == 0
        assert report.acked == 4
        assert report.clean_acks == 4
        assert report.outstanding == 0
        # Nothing ever queued: the loop kept the broker at one job.
        assert stats.dropped_jobs == 0
        assert stats.peak_queue_depth == 1
        assert stats.makespan == pytest.approx(4.0)

    def test_window_decreases_once_per_document(self):
        # star: centre 0 forwards to leaves 1..3; two leaves are busy
        # behind capacity-0 nack queues, so the same document draws two
        # NACK signals — one multiplicative decrease, both counted.
        overlay = BrokerOverlay.star(4)
        for leaf in (1, 2, 3):
            overlay.attach(leaf, parse_xpath("//b"))
        overlay.advertise(PerSubscriptionPolicy())
        engine = DeliveryEngine(
            overlay,
            service=ServiceModel(base=1.0, per_match=0.0),
            links=LinkModel(default=1.0),
            queue_policy=QueuePolicy(0, "nack"),
        )
        # Copies of the sourced document arrive at the leaves at t=2.0.
        engine.publish(doc("<c/>", doc_id=10), 1, 1.9)
        engine.publish(doc("<c/>", doc_id=11), 2, 1.9)
        corpus = DocumentCorpus([doc("<b/>", doc_id=0)])
        source = engine.attach_source(
            ClosedLoopSource(corpus, at_broker=0, initial_window=4.0)
        )
        stats = engine.run()
        conserved(stats)
        report = engine.source_report(source)
        assert report.nack_signals == 2
        assert report.nacked_documents == 1
        assert report.window == pytest.approx(2.0)
        assert report.acked == 1
        assert report.clean_acks == 0

    def test_silent_drops_mark_absorption_dirty(self):
        # drop-new loses copies without NACKs: the loop sees no
        # decrease signal, but the absorption must not grow the window
        # either — loss without detection.
        corpus = DocumentCorpus([doc("<b/>", doc_id=i) for i in range(3)])
        engine = DeliveryEngine(
            single_broker(),
            service=ServiceModel(base=1.0, per_match=0.0),
            queue_policy=QueuePolicy(0, "drop-new"),
        )
        source = engine.attach_source(
            ClosedLoopSource(corpus, initial_window=3.0, max_window=8.0)
        )
        stats = engine.run()
        conserved(stats)
        report = engine.source_report(source)
        assert stats.dropped_jobs == 2
        assert report.nack_signals == 0
        assert report.acked == 3
        assert report.clean_acks == 1
        # Exactly one clean absorption grew the window from 3.0.
        assert report.window == pytest.approx(3.0 + 1.0 / 3.0)

    def test_engines_over_one_overlay_replay_one_source_identically(self):
        overlay = BrokerOverlay.chain(2)
        overlay.attach_round_robin([parse_xpath("//b"), parse_xpath("/a")])
        overlay.advertise(PerSubscriptionPolicy())
        corpus = DocumentCorpus([doc("<b/>", doc_id=i) for i in range(5)])
        source = ClosedLoopSource(corpus, at_broker=0, seed=3)
        engines = []
        for _ in range(2):
            engine = DeliveryEngine(
                overlay,
                service=ServiceModel(base=0.5, per_match=0.0),
                queue_policy=QueuePolicy(1, "nack"),
            )
            engine.attach_source(source)
            conserved(engine.run())
            assert engine.source_report(0).published == 5
            engines.append(engine)
        # Fresh engines, independent loops: both replay identically.
        first, second = engines
        assert first.source_report(0) == second.source_report(0)


class TestAging:
    @dataclass
    class Job:
        arrived_at: float
        priority_class: int = 0
        deadline: Optional[float] = None
        published_at: float = 0.0

    def test_rejects_negative_aging(self):
        with pytest.raises(ValueError):
            PriorityScheduling(aging=-0.5)

    def test_aging_promotes_a_long_waiter(self):
        queue = [
            self.Job(arrived_at=0.0, priority_class=1),
            self.Job(arrived_at=9.5, priority_class=0),
        ]
        heavy = PriorityScheduling({0: 5.0, 1: 1.0})
        assert heavy.select(queue, 10.0, {}) == 1
        aged = PriorityScheduling({0: 5.0, 1: 1.0}, aging=0.5)
        # 1 + 0.5*10 = 6 beats 5 + 0.5*0.5
        assert aged.select(queue, 10.0, {}) == 0

    def test_effective_weight_ties_break_by_arrival_order(self):
        # Queue position order *is* (time, seq) order: equal effective
        # weights must pick the earliest position, with or without
        # aging in play.
        queue = [
            self.Job(arrived_at=1.0, priority_class=0),
            self.Job(arrived_at=1.0, priority_class=0),
            self.Job(arrived_at=1.0, priority_class=0),
        ]
        assert PriorityScheduling({0: 2.0}, aging=1.0).select(queue, 5.0, {}) == 0
        # A later arrival of a heavier class ties an aged lighter one
        # exactly: the earlier *position* wins.
        tie = [
            self.Job(arrived_at=0.0, priority_class=1),
            self.Job(arrived_at=2.0, priority_class=0),
        ]
        policy = PriorityScheduling({0: 3.0, 1: 1.0}, aging=1.0)
        # effective: 1 + 2.0 = 3.0 vs 3 + 0.0 = 3.0 -> position 0
        assert policy.select(tie, 2.0, {}) == 0

    def test_aging_raises_low_class_share_under_overload(self):
        corpus = DocumentCorpus(
            [doc("<b/>", doc_id=i) for i in range(300)]
        )
        shares = []
        for aging in (0.0, 3.0):
            engine = DeliveryEngine(
                single_broker(),
                service=ServiceModel(base=0.5, per_match=0.0),
                scheduling=PriorityScheduling({0: 5.0, 1: 1.0}, aging=aging),
                queue_policy=QueuePolicy(40, "drop-oldest"),
            )
            # Poisson arrivals: exact uniform spacing locks service and
            # arrival parity together and masks the promotion.
            engine.publish_corpus(
                corpus, rate=4.0, arrivals="poisson", seed=7, classes=(0, 1)
            )
            stats = engine.run()
            conserved(stats)
            shares.append(stats.completed_share_by_class.get(1, 0.0))
        assert shares[1] > shares[0]


class TestWeightedFairScheduling:
    @dataclass
    class Job:
        arrived_at: float
        priority_class: int = 0
        deadline: Optional[float] = None
        published_at: float = 0.0

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            WeightedFairScheduling({0: 0.0})
        with pytest.raises(ValueError):
            WeightedFairScheduling(default_weight=-1.0)

    def test_serves_smallest_share_per_weight(self):
        queue = [
            self.Job(arrived_at=0.0, priority_class=0),
            self.Job(arrived_at=0.1, priority_class=0),
            self.Job(arrived_at=0.2, priority_class=1),
        ]
        policy = WeightedFairScheduling({0: 3.0, 1: 1.0})
        # No history: all shares zero, earliest position wins.
        assert policy.select(queue, 1.0, {}) == 0
        # Class 0 already got 3 services per its weight 3 (share 1.0);
        # class 1 has share 0 -> its first job is due.
        assert policy.select(queue, 1.0, {0: 3, 1: 0}) == 2
        # FIFO within a class: position 0 before position 1.
        assert policy.select(queue, 1.0, {0: 0, 1: 5}) == 0

    def test_long_run_shares_lean_towards_weights(self):
        corpus = DocumentCorpus(
            [doc("<b/>", doc_id=i) for i in range(300)]
        )
        engine = DeliveryEngine(
            single_broker(),
            service=ServiceModel(base=0.5, per_match=0.0),
            scheduling=WeightedFairScheduling({0: 3.0, 1: 1.0}),
            queue_policy=QueuePolicy(10, "drop-oldest"),
        )
        engine.publish_corpus(corpus, rate=20.0, classes=(0, 1))
        stats = engine.run()
        conserved(stats)
        shares = stats.completed_share_by_class
        assert shares[0] > 0.6
        assert shares[1] > 0.1


class TestZeroDenominatorGuards:
    def test_empty_stats_expose_safe_ratios(self):
        stats = LatencyStats(
            documents=0,
            deliveries=0,
            makespan=0.0,
            latency_p50=0.0,
            latency_p95=0.0,
            latency_p99=0.0,
            latency_mean=0.0,
            latency_max=0.0,
            queue_delay_mean=0.0,
            queue_delay_p95=0.0,
            queue_delay_max=0.0,
        )
        assert stats.throughput == 0.0
        assert stats.delivery_throughput == 0.0
        assert stats.offered_throughput == 0.0
        assert stats.admitted_throughput == 0.0
        assert stats.mean_batch_size == 0.0
        assert stats.utilization == {}
        assert stats.admission_ratio == 1.0
        assert stats.completed_share_by_class == {}
        assert stats.in_flight_jobs == 0
        assert stats.admitted_jobs == 0

    def test_empty_class_latency_digest_is_zeroed(self):
        digest = ClassLatency.of([])
        assert digest.deliveries == 0
        assert digest.p50 == digest.p99 == digest.mean == digest.max == 0.0

    def test_run_with_no_deliveries_and_drops_stays_guarded(self):
        # No subscribers anywhere and a loss queue: deliveries are
        # zero, most offered copies die, and every derived ratio must
        # still be well-defined.
        overlay = BrokerOverlay.chain(1)
        overlay.attach(0, parse_xpath("/z"))
        overlay.advertise(PerSubscriptionPolicy())
        engine = DeliveryEngine(
            overlay,
            service=ServiceModel(base=1.0, per_match=0.0),
            queue_policy=QueuePolicy(0),
        )
        for i in range(3):
            engine.publish(doc("<b/>", doc_id=i), 0, 0.2 * i)
        stats = engine.run()
        conserved(stats)
        assert stats.deliveries == 0
        assert stats.latency_by_class == {}
        assert stats.latency_p99 == 0.0
        assert stats.admission_ratio == pytest.approx(1 / 3)
        assert 0.0 <= stats.utilization[0] <= 1.0
        assert stats.completed_share_by_class == {0: 1.0}

    def test_idle_engine_stats_are_all_zero(self):
        stats = DeliveryEngine(single_broker()).run()
        assert stats.offered_jobs == 0
        assert stats.admission_ratio == 1.0
        assert stats.completed_share_by_class == {}
        conserved(stats)
