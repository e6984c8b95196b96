"""The discrete-event delivery engine: models, scheduling, and stats."""

import math
from dataclasses import dataclass

import pytest

from repro.core.pattern_parser import parse_xpath
from repro.routing.broker import ClassLatency, ordered_percentile, percentile
from repro.routing.engine import (
    BatchServiceModel,
    ClosedLoopSource,
    DeliveryEngine,
    LinkModel,
    ServiceModel,
)
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import (
    DeadlineScheduling,
    FifoScheduling,
    PerSubscriptionPolicy,
    PriorityScheduling,
    SchedulingPolicy,
)
from repro.xmltree.corpus import DocumentCorpus
from repro.xmltree.parser import parse_xml


def doc(xml: str, doc_id: int = 0):
    return parse_xml(xml, doc_id=doc_id)


@pytest.fixture()
def chain3():
    """0 — 1 — 2 with one subscriber per broker, all wanting /a/b."""
    overlay = BrokerOverlay.chain(3)
    for broker_id in range(3):
        overlay.attach(broker_id, parse_xpath("/a/b"))
    overlay.advertise(PerSubscriptionPolicy())
    return overlay


class TestServiceModel:
    def test_affine_in_match_operations(self):
        model = ServiceModel(base=0.5, per_match=0.25)
        assert model.service_time(0) == 0.5
        assert model.service_time(4) == 1.5

    def test_rejects_negative_and_zero_models(self):
        with pytest.raises(ValueError):
            ServiceModel(base=-1.0)
        with pytest.raises(ValueError):
            ServiceModel(base=0.0, per_match=-0.1)
        with pytest.raises(ValueError):
            ServiceModel(base=0.0, per_match=0.0)

    @pytest.mark.parametrize("max_batch", [math.nan, 2.5, 2.0])
    def test_batch_model_refuses_a_non_integer_max_batch(self, max_batch):
        # No batch length equals a float: NaN left every copy after the
        # first drain in flight, and 2.5 drained batches of 3.
        with pytest.raises(ValueError, match="max_batch"):
            BatchServiceModel(max_batch=max_batch)
        assert BatchServiceModel(max_batch=3).max_batch == 3


class TestLinkModel:
    def test_default_and_overrides_are_undirected(self):
        links = LinkModel(default=2.0, overrides={(3, 1): 5.0})
        assert links.latency(0, 1) == 2.0
        assert links.latency(1, 3) == 5.0
        assert links.latency(3, 1) == 5.0

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            LinkModel(default=-1.0)
        with pytest.raises(ValueError):
            LinkModel(overrides={(0, 1): -0.5})


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteTimingInputs:
    """Every timing input is range-checked by comparison, which NaN
    passes silently; each must reject NaN and both infinities."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["base", "per_match"])
    def test_service_model(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            ServiceModel(**{field: value})

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["base", "per_match", "per_doc"])
    def test_batch_service_model(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            BatchServiceModel(**{field: value})

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("where", ["default", "override"])
    def test_link_model(self, where, value):
        with pytest.raises(ValueError, match="finite"):
            if where == "default":
                LinkModel(default=value)
            else:
                LinkModel(overrides={(0, 1): value})

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["time", "deadline"])
    def test_publish(self, chain3, field, value):
        engine = DeliveryEngine(chain3)
        with pytest.raises(ValueError, match="finite"):
            engine.publish(doc("<a><b/></a>"), **{field: value})
        assert engine.run().documents == 0

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["rate", "start", "deadline_slack"])
    def test_publish_corpus(self, chain3, field, value):
        engine = DeliveryEngine(chain3)
        corpus = DocumentCorpus([doc("<a><b/></a>")])
        with pytest.raises(ValueError, match="finite"):
            engine.publish_corpus(corpus, **{"rate": 1.0, field: value})
        assert engine.run().documents == 0

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "field",
        [
            "start",
            "initial_window",
            "max_window",
            "additive_increase",
            "deadline_slack",
            "feedback_delay",
            "jitter",
        ],
    )
    def test_closed_loop_source(self, field, value):
        corpus = DocumentCorpus([doc("<a><b/></a>")])
        with pytest.raises(ValueError, match="finite"):
            ClosedLoopSource(corpus, **{field: value})

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_topology_event_time(self, chain3, value):
        engine = DeliveryEngine(chain3)
        with pytest.raises(ValueError, match="finite"):
            engine.schedule_join(value, 0)


class TestPercentile:
    def test_nearest_rank(self):
        samples = [4.0, 1.0, 3.0, 2.0]
        assert percentile(samples, 50.0) == 2.0
        assert percentile(samples, 100.0) == 4.0
        assert percentile(samples, 1.0) == 1.0

    def test_empty_and_bounds(self):
        assert percentile([], 95.0) == 0.0
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_ordered_percentile_empty_and_bounds(self):
        assert ordered_percentile([], 95.0) == 0.0
        with pytest.raises(ValueError):
            ordered_percentile([1.0], -1.0)

    @pytest.mark.parametrize(
        "samples",
        [
            [4.0, 1.0, 3.0, 2.0],
            [0.5],
            [2.0, 2.0, 2.0, 1.0, 9.5, 0.25],
            [float(n % 7) * 0.3 for n in range(100)],
        ],
    )
    def test_sort_once_digests_byte_identical(self, samples):
        # The sort-once path must reproduce the per-call-sort results
        # exactly — same floats, not approximately.
        ordered = sorted(samples)
        for q in (0.0, 1.0, 50.0, 95.0, 99.0, 100.0):
            assert ordered_percentile(ordered, q) == percentile(samples, q)
        digest = ClassLatency.of(samples)
        assert digest == ClassLatency(
            deliveries=len(samples),
            p50=percentile(samples, 50.0),
            p95=percentile(samples, 95.0),
            p99=percentile(samples, 99.0),
            mean=sum(samples) / len(samples),
            max=max(samples),
        )


class TestEngineBasics:
    def test_requires_routing_state(self):
        overlay = BrokerOverlay.chain(2)
        with pytest.raises(ValueError):
            DeliveryEngine(overlay)

    def test_rejects_unknown_broker_and_negative_time(self, chain3):
        engine = DeliveryEngine(chain3)
        with pytest.raises(ValueError):
            engine.publish(doc("<a><b/></a>"), at_broker=9)
        with pytest.raises(ValueError):
            engine.publish(doc("<a><b/></a>"), time=-1.0)

    def test_single_document_timing(self, chain3):
        # Service 1.0 everywhere (no per-match cost), links 0.5: the home
        # subscriber hears at 1.0, broker 1's at 1.0 + 0.5 + 1.0, broker
        # 2's one more hop later.
        engine = DeliveryEngine(
            chain3,
            service=ServiceModel(base=1.0, per_match=0.0),
            links=LinkModel(default=0.5),
        )
        engine.publish(doc("<a><b/></a>"), at_broker=0, time=0.0)
        stats = engine.run()
        assert engine.delivered_sets() == {0: frozenset({0, 1, 2})}
        assert engine._latency_runs_by_class == {
            0: [(1.0, 1), (2.5, 1), (4.0, 1)]
        }
        assert stats.latency_max == 4.0
        assert stats.makespan == 4.0
        assert stats.deliveries == 3
        assert stats.forwards == 2
        assert stats.queue_delay_max == 0.0

    def test_fifo_queueing_delay(self, chain3):
        # Two back-to-back publishes at one broker: the second waits for
        # the first's full service.
        engine = DeliveryEngine(
            chain3,
            service=ServiceModel(base=1.0, per_match=0.0),
            links=LinkModel(default=0.0),
        )
        engine.publish(doc("<a><b/></a>", 0), at_broker=0, time=0.0)
        engine.publish(doc("<a><b/></a>", 1), at_broker=0, time=0.0)
        stats = engine.run()
        # Broker 0 held both documents at once; the second queued 1.0.
        assert stats.queue_depth_peaks[0] == 2
        assert stats.queue_delay_max == 1.0
        assert stats.busy_time[0] == 2.0

    def test_stats_on_idle_engine(self, chain3):
        stats = DeliveryEngine(chain3).run()
        assert stats.documents == 0
        assert stats.deliveries == 0
        assert stats.makespan == 0.0
        assert stats.throughput == 0.0
        assert stats.peak_queue_depth == 0

    def test_utilization_and_throughput(self, chain3):
        engine = DeliveryEngine(
            chain3,
            service=ServiceModel(base=1.0, per_match=0.0),
            links=LinkModel(default=0.0),
        )
        engine.publish(doc("<a><b/></a>"), at_broker=1, time=0.0)
        stats = engine.run()
        # One service each at brokers 1, 0 and 2; makespan 2.0 (hub first,
        # both leaves in parallel).
        assert stats.makespan == 2.0
        assert stats.throughput == 0.5
        assert stats.utilization[1] == 0.5

    def test_incremental_runs_accumulate(self, chain3):
        engine = DeliveryEngine(
            chain3, service=ServiceModel(base=1.0, per_match=0.0)
        )
        engine.publish(doc("<a><b/></a>", 0), at_broker=0, time=0.0)
        engine.run()
        engine.publish(doc("<a><b/></a>", 1), at_broker=0, time=100.0)
        stats = engine.run()
        assert stats.documents == 2
        assert set(engine.delivered_sets()) == {0, 1}


class TestSchedulingPolicies:
    """The engine under non-FIFO queue disciplines."""

    @pytest.fixture()
    def single_broker(self):
        """One broker, one subscriber: every publish queues at broker 0."""
        overlay = BrokerOverlay.chain(1)
        overlay.attach(0, parse_xpath("/a/b"))
        overlay.advertise(PerSubscriptionPolicy())
        return overlay

    def publish_three(self, engine):
        """Three same-instant publishes with classes 0, 2, 1."""
        for index, priority_class in enumerate((0, 2, 1)):
            engine.publish(
                doc("<a><b/></a>", index),
                at_broker=0,
                time=0.0,
                priority_class=priority_class,
                deadline=10.0 - priority_class,
            )

    def completion_order(self, engine):
        engine.run()
        stats = engine.stats()
        order = sorted(
            (digest.p50, priority_class)
            for priority_class, digest in stats.latency_by_class.items()
        )
        return [priority_class for _, priority_class in order]

    def test_default_scheduling_is_fifo(self, single_broker):
        engine = DeliveryEngine(single_broker)
        assert isinstance(engine.scheduling, FifoScheduling)

    def test_fifo_services_in_arrival_order(self, single_broker):
        engine = DeliveryEngine(
            single_broker, service=ServiceModel(base=1.0, per_match=0.0)
        )
        self.publish_three(engine)
        # Arrival order 0, 2, 1 — FIFO keeps it.
        assert self.completion_order(engine) == [0, 2, 1]

    def test_priority_services_heaviest_class_first(self, single_broker):
        engine = DeliveryEngine(
            single_broker,
            service=ServiceModel(base=1.0, per_match=0.0),
            scheduling=PriorityScheduling(),
        )
        self.publish_three(engine)
        # The first arrival is already in service; the queue drains by
        # class weight afterwards.
        assert self.completion_order(engine) == [0, 2, 1]
        engine = DeliveryEngine(
            single_broker,
            service=ServiceModel(base=1.0, per_match=0.0),
            scheduling=PriorityScheduling({0: 5.0, 1: 1.0, 2: 0.5}),
        )
        self.publish_three(engine)
        assert self.completion_order(engine) == [0, 1, 2]

    def test_deadline_services_most_urgent_first(self, single_broker):
        engine = DeliveryEngine(
            single_broker,
            service=ServiceModel(base=1.0, per_match=0.0),
            scheduling=DeadlineScheduling(),
        )
        # Deadlines 10-class: class 2 is most urgent after the head.
        self.publish_three(engine)
        assert self.completion_order(engine) == [0, 2, 1]

    def test_per_class_latency_stats(self, single_broker):
        engine = DeliveryEngine(
            single_broker, service=ServiceModel(base=1.0, per_match=0.0)
        )
        self.publish_three(engine)
        stats = engine.run()
        assert sorted(stats.latency_by_class) == [0, 1, 2]
        assert all(
            digest.deliveries == 1
            for digest in stats.latency_by_class.values()
        )
        assert stats.latency_by_class[0].p50 == 1.0

    def test_classless_run_reports_class_zero(self, single_broker):
        engine = DeliveryEngine(single_broker)
        engine.publish(doc("<a><b/></a>"), at_broker=0)
        stats = engine.run()
        assert list(stats.latency_by_class) == [0]
        assert stats.latency_by_class[0].deliveries == stats.deliveries

    def test_forwarded_jobs_inherit_class(self, chain3):
        engine = DeliveryEngine(chain3)
        engine.publish(doc("<a><b/></a>"), at_broker=0, priority_class=7)
        stats = engine.run()
        # All three brokers' subscribers hear under the publish class.
        assert list(stats.latency_by_class) == [7]
        assert stats.latency_by_class[7].deliveries == 3

    def test_publish_rejects_deadline_before_publish(self, single_broker):
        engine = DeliveryEngine(single_broker)
        with pytest.raises(ValueError):
            engine.publish(doc("<a><b/></a>"), time=5.0, deadline=4.0)

    def test_publish_corpus_class_assignment(self, single_broker):
        from repro.xmltree.corpus import DocumentCorpus

        corpus = DocumentCorpus(
            [doc("<a><b/></a>", index) for index in range(5)]
        )
        engine = DeliveryEngine(single_broker)
        engine.publish_corpus(corpus, rate=1.0, classes=(0, 1))
        stats = engine.run()
        assert stats.latency_by_class[0].deliveries == 3
        assert stats.latency_by_class[1].deliveries == 2
        engine = DeliveryEngine(single_broker)
        engine.publish_corpus(
            corpus, rate=1.0, classes=lambda position: position % 3
        )
        stats = engine.run()
        assert sorted(stats.latency_by_class) == [0, 1, 2]
        engine = DeliveryEngine(single_broker)
        with pytest.raises(ValueError):
            engine.publish_corpus(corpus, rate=1.0, classes=())
        with pytest.raises(ValueError):
            engine.publish_corpus(corpus, rate=1.0, deadline_slack=-1.0)

    def test_malformed_policy_selection_rejected(self, single_broker):
        @dataclass(frozen=True)
        class Broken(SchedulingPolicy):
            def select(self, queue, now, shares):
                return len(queue)

        engine = DeliveryEngine(
            single_broker,
            service=ServiceModel(base=1.0, per_match=0.0),
            scheduling=Broken(),
        )
        self.publish_three(engine)
        with pytest.raises(ValueError):
            engine.run()


class TestDeterminism:
    def test_identical_runs_bit_for_bit(self, chain3):
        outcomes = []
        for _ in range(2):
            engine = DeliveryEngine(chain3)
            for index in range(8):
                engine.publish(
                    doc("<a><b/></a>", index),
                    at_broker=index % 3,
                    time=0.25 * index,
                )
            outcomes.append((engine.run(), engine.delivered_sets()))
        assert outcomes[0] == outcomes[1]

    def test_poisson_arrivals_are_seeded(self, chain3):
        from repro.xmltree.corpus import DocumentCorpus

        corpus = DocumentCorpus(
            [doc("<a><b/></a>", index) for index in range(6)]
        )
        runs = []
        for _ in range(2):
            engine = DeliveryEngine(chain3)
            engine.publish_corpus(corpus, rate=2.0, arrivals="poisson", seed=3)
            runs.append(engine.run())
        assert runs[0] == runs[1]

    def test_publish_corpus_validates_inputs(self, chain3):
        from repro.xmltree.corpus import DocumentCorpus

        corpus = DocumentCorpus([doc("<a><b/></a>")])
        engine = DeliveryEngine(chain3)
        with pytest.raises(ValueError):
            engine.publish_corpus(corpus, rate=0.0)
        with pytest.raises(ValueError):
            engine.publish_corpus(corpus, rate=1.0, arrivals="uniformish")


class TestTopologyEvents:
    """Mid-simulation broker join/leave through the event queue."""

    def test_default_engine_applies_churn_at_its_instants(self, chain3):
        # Scheduling a join or a leave is the whole opt-in.
        engine = DeliveryEngine(chain3)
        engine.schedule_join(1.0, parent=0)
        engine.schedule_leave(2.0, 2)
        engine.run()
        assert [
            (when, event.action, broker_id)
            for when, event, broker_id in engine.topology_log
        ] == [(1.0, "join", 3), (2.0, "leave", 1)]
        assert sorted(chain3.brokers) == [0, 1, 3]

    def test_event_validation(self):
        from repro.routing.engine import TopologyEvent

        with pytest.raises(ValueError):
            TopologyEvent(action="explode")
        with pytest.raises(ValueError):
            TopologyEvent(action="join")  # no parent
        with pytest.raises(ValueError):
            TopologyEvent(action="leave")  # no broker
        engine_event = TopologyEvent(action="join", parent=0, split=1)
        assert engine_event.parent == 0 and engine_event.split == 1

    def test_negative_event_time_rejected(self, chain3):
        engine = DeliveryEngine(chain3)
        with pytest.raises(ValueError):
            engine.schedule_leave(-0.5, 2)

    def test_join_equips_newcomer_mid_run(self, chain3):
        engine = DeliveryEngine(chain3)
        engine.publish(doc("<a><b/></a>"), at_broker=0, time=0.0)
        engine.schedule_join(0.5, parent=2)
        stats = engine.run()
        (when, event, minted) = engine.topology_log[0]
        assert (when, event.action, minted) == (0.5, "join", 3)
        assert 3 in chain3.brokers
        # The newcomer has engine state and appears in the stats maps.
        assert stats.queue_depth_peaks[3] == 0
        assert stats.busy_time[3] == 0.0

    def test_leave_reroutes_queued_and_in_service_documents(self):
        # Broker 1 is slow and will be retired while documents sit in
        # its queue; every delivery must still happen — at its merge
        # target — and the aborted service time is credited back.
        overlay = BrokerOverlay.chain(3)
        for broker_id in range(3):
            overlay.attach(broker_id, parse_xpath("/a/b"))
        overlay.advertise(PerSubscriptionPolicy())
        engine = DeliveryEngine(
            overlay,
            service=ServiceModel(base=5.0, per_match=0.0),
            links=LinkModel(default=0.1),
        )
        for index in range(3):
            engine.publish(doc("<a><b/></a>", index), at_broker=1, time=0.0)
        engine.schedule_leave(6.0, 1)  # one served, one in service, one queued
        stats = engine.run()
        assert all(
            delivered == frozenset({0, 1, 2})
            for delivered in engine.delivered_sets().values()
        )
        assert 1 not in overlay.brokers
        # One full service (5.0) plus one second of the aborted one: the
        # unfinished remainder was credited back on the leave.
        assert stats.busy_time[1] == pytest.approx(6.0)

    def test_forwards_computed_before_leave_reach_merge_target(self):
        # Broker 0's filtering step names neighbour 1; broker 1 retires
        # before the slow service completes, so the copy must follow the
        # merge chain instead of crashing on a dead id.
        overlay = BrokerOverlay.chain(3)
        overlay.attach(2, parse_xpath("/a/b"))
        overlay.advertise(PerSubscriptionPolicy())
        engine = DeliveryEngine(
            overlay,
            service=ServiceModel(base=2.0, per_match=0.0),
            links=LinkModel(default=0.1),
        )
        engine.publish(doc("<a><b/></a>"), at_broker=0, time=0.0)
        engine.schedule_leave(1.0, 1)  # while the publisher is in service
        engine.run()
        assert engine.delivered_sets() == {0: frozenset({0})}
        assert sorted(overlay.brokers) == [0, 2]

    def test_leave_of_publish_broker_rehomes_its_queue(self, chain3):
        engine = DeliveryEngine(
            chain3, service=ServiceModel(base=3.0, per_match=0.0)
        )
        for index in range(2):
            engine.publish(doc("<a><b/></a>", index), at_broker=2, time=0.0)
        engine.schedule_leave(0.5, 2)
        engine.run()
        # Both documents still reach every subscriber, including the
        # retired broker's own (re-homed) one.
        assert all(
            delivered == frozenset({0, 1, 2})
            for delivered in engine.delivered_sets().values()
        )

    def test_topology_churn_replays_bit_for_bit(self, chain3):
        from repro.xmltree.corpus import DocumentCorpus

        corpus = DocumentCorpus(
            [doc("<a><b/></a>", index) for index in range(6)]
        )
        outcomes = []
        for _ in range(2):
            overlay = BrokerOverlay.chain(3)
            for broker_id in range(3):
                overlay.attach(broker_id, parse_xpath("/a/b"))
            overlay.advertise(PerSubscriptionPolicy())
            engine = DeliveryEngine(
                overlay,
                service=ServiceModel(base=0.4, per_match=0.1),
                links=LinkModel(default=0.7),
            )
            engine.publish_corpus(corpus, rate=1.5, arrivals="poisson", seed=7)
            engine.schedule_leave(1.2, 1)
            engine.schedule_join(2.3, parent=0)
            outcomes.append(
                (engine.run(), engine.delivered_sets(), engine.topology_log)
            )
        assert outcomes[0] == outcomes[1]


class TestZeroDeliveryClasses:
    """latency_by_class on classes that never deliver anything."""

    def test_class_latency_digest_of_no_samples(self):
        from repro.routing.broker import ClassLatency

        digest = ClassLatency.of([])
        assert digest.deliveries == 0
        assert (digest.p50, digest.p95, digest.p99) == (0.0, 0.0, 0.0)
        assert (digest.mean, digest.max) == (0.0, 0.0)

    def test_undelivered_class_stays_out_of_the_stats(self, chain3):
        engine = DeliveryEngine(chain3)
        engine.publish(doc("<a><b/></a>", 0), at_broker=0, priority_class=1)
        # Class 7 publishes a document nobody subscribes to.
        engine.publish(doc("<z/>", 1), at_broker=0, priority_class=7)
        stats = engine.run()
        assert sorted(stats.latency_by_class) == [1]
        assert stats.latency_by_class[1].deliveries == stats.deliveries
        assert engine.delivered_sets()[1] == frozenset()

    def test_no_publishes_at_all_reports_empty_classes(self, chain3):
        stats = DeliveryEngine(chain3).run()
        assert stats.latency_by_class == {}
        assert stats.deliveries == 0


class TestOutOfBandTopologyChanges:
    def test_engine_serves_brokers_added_after_construction(self):
        # Builder first, topology churn after: the engine must equip
        # out-of-band newcomers lazily instead of crashing on arrival.
        overlay = BrokerOverlay.chain(2)
        overlay.attach(0, parse_xpath("/a/b"))
        overlay.advertise(PerSubscriptionPolicy())
        engine = DeliveryEngine(overlay)
        joined = overlay.add_broker(1)
        subscription = overlay.subscribe(joined, parse_xpath("/a/b"))
        engine.publish(doc("<a><b/></a>"), at_broker=joined, time=0.0)
        stats = engine.run()
        assert engine.delivered_sets() == {0: frozenset({0, subscription})}
        assert stats.queue_depth_peaks[joined] == 1


class TestStaleTopologyEvents:
    """Scheduled events naming brokers an earlier event retired."""

    @pytest.fixture()
    def churn_chain(self):
        overlay = BrokerOverlay.chain(3)
        for broker_id in range(3):
            overlay.attach(broker_id, parse_xpath("/a/b"))
        overlay.advertise(PerSubscriptionPolicy())
        return overlay

    def test_join_under_retired_parent_lands_at_merge_target(
        self, churn_chain
    ):
        engine = DeliveryEngine(churn_chain)
        engine.schedule_leave(1.0, 1, merge_into=0)
        engine.schedule_join(2.0, parent=1)  # parent retires first
        engine.publish(doc("<a><b/></a>"), at_broker=0, time=3.0)
        engine.run()
        joined = engine.topology_log[-1][2]
        assert 0 in churn_chain.brokers[joined].neighbors
        assert engine.delivered_sets() == {0: frozenset({0, 1, 2})}

    def test_second_leave_of_same_broker_is_recorded_noop(self, churn_chain):
        engine = DeliveryEngine(churn_chain)
        engine.schedule_leave(1.0, 1)
        engine.schedule_leave(2.0, 1)
        engine.run()
        assert sorted(churn_chain.brokers) == [0, 2]
        # Both events are logged; the stale one resolves to the target.
        assert [entry[2] for entry in engine.topology_log] == [0, 0]

    def test_stale_merge_target_falls_back_to_default(self, churn_chain):
        engine = DeliveryEngine(churn_chain)
        engine.schedule_leave(1.0, 0)
        # Broker 0 is gone by t=2; retiring 1 "into 0" resolves/falls back.
        engine.schedule_leave(2.0, 1, merge_into=0)
        engine.run()
        assert len(churn_chain.brokers) == 1

    def test_retired_split_resolves_to_spliced_edge(self, churn_chain):
        engine = DeliveryEngine(churn_chain)
        engine.schedule_leave(1.0, 1, merge_into=2)
        # "Split the link towards broker 1" follows the merge: that
        # link's successor is the spliced edge 0 — 2.
        engine.schedule_join(2.0, parent=0, split=1)
        engine.run()
        joined = engine.topology_log[-1][2]
        assert churn_chain.brokers[joined].neighbors == [0, 2]

    def test_split_merged_into_parent_degrades_to_leaf_graft(
        self, churn_chain
    ):
        engine = DeliveryEngine(churn_chain)
        engine.schedule_leave(1.0, 1, merge_into=0)
        # Broker 1 collapsed into the would-be parent: there is no edge
        # left to split, so the join grafts a plain leaf instead of
        # aborting the run.
        engine.schedule_join(2.0, parent=0, split=1)
        engine.run()
        joined = engine.topology_log[-1][2]
        assert churn_chain.brokers[joined].neighbors == [0]

    def test_rerouted_duplicates_never_inflate_latency_stats(self):
        # A copy in service at the retiring broker is re-serviced at the
        # merge target, which re-delivers to the target's own
        # subscriber; only the first delivery may enter the stats.
        overlay = BrokerOverlay.chain(3)
        for broker_id in range(3):
            overlay.attach(broker_id, parse_xpath("/a/b"))
        overlay.advertise(PerSubscriptionPolicy())
        engine = DeliveryEngine(
            overlay,
            service=ServiceModel(base=1.0, per_match=0.0),
            links=LinkModel(default=0.1),
        )
        engine.publish(doc("<a><b/></a>"), at_broker=0, time=0.0)
        engine.schedule_leave(1.5, 1, merge_into=0)
        stats = engine.run()
        assert engine.delivered_sets() == {0: frozenset({0, 1, 2})}
        assert stats.deliveries == 3
        assert stats.latency_by_class[0].deliveries == 3
