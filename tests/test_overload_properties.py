"""Property suite for overload survival: conservation and equivalence.

Pins the overload layer's contract:

* **Conservation** — every document copy is born exactly once (publish
  or forward) and dies exactly once (completion, drop, or NACK), so
  ``offered == completed + dropped + nacked + in-flight`` holds at
  every drain point, under every queue policy × scheduler × topology,
  including mid-simulation broker leaves and batched drains.
* **Byte-identical default** — ``capacity=None`` replays the pre-PR
  engine exactly: a golden stats digest captured on the pre-overload
  engine is pinned below, and an explicit unbounded ``QueuePolicy``
  must equal the default construction field for field.
* **Below-knee equivalence** — a bound the workload never reaches
  changes nothing: stats and delivered sets are identical to the
  unbounded run.
* **Weighted-fair convergence** — under sustained overload, long-run
  per-class completion shares lean to the configured weights.
"""

from __future__ import annotations

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pattern_parser import parse_xpath
from repro.routing.engine import (
    BatchServiceModel,
    ClosedLoopSource,
    DeliveryEngine,
    LinkModel,
    ServiceModel,
)
from repro.routing.overlay import TOPOLOGIES, BrokerOverlay
from repro.routing.policy import (
    OVERFLOW_MODES,
    DeadlineScheduling,
    FifoScheduling,
    PerSubscriptionPolicy,
    PriorityScheduling,
    QueuePolicy,
    WeightedFairScheduling,
)
from repro.xmltree.corpus import DocumentCorpus
from repro.xmltree.parser import parse_xml
from tests.strategies import property_max_examples, tree_patterns
from tests.test_selectivity_properties import corpora

SCHEDULERS = (
    FifoScheduling(),
    PriorityScheduling(),
    PriorityScheduling({0: 4.0, 1: 1.0}, aging=0.5),
    DeadlineScheduling(default_slack=2.0),
    WeightedFairScheduling({0: 3.0, 1: 1.0}),
)


def membership_overlay(topology, n_brokers, patterns):
    overlay = BrokerOverlay.build(topology, n_brokers, seed=5)
    overlay.attach_round_robin(patterns)
    overlay.advertise(PerSubscriptionPolicy())
    return overlay


def assert_conserved(stats):
    """The drained conservation ledger, with non-negativity."""
    assert stats.offered_jobs >= 0
    assert stats.completed_jobs >= 0
    assert stats.dropped_jobs >= 0
    assert stats.nacked_jobs >= 0
    assert stats.in_flight_jobs == 0
    assert stats.offered_jobs == (
        stats.completed_jobs + stats.dropped_jobs + stats.nacked_jobs
    )
    assert sum(stats.offered_by_class.values()) == stats.offered_jobs
    assert sum(stats.completed_by_class.values()) == stats.completed_jobs
    assert sum(stats.dropped_by_class.values()) == stats.dropped_jobs
    assert sum(stats.nacked_by_class.values()) == stats.nacked_jobs
    assert sum(stats.dropped_by_broker.values()) == stats.dropped_jobs
    assert 0.0 <= stats.admission_ratio <= 1.0


def stats_digest(stats, delivered):
    """Canonical digest of one run: every stats field that existed
    before the overload layer, plus the delivered sets.

    Computed over the *pre-existing* surface only, so the pinned
    golden value below is comparable across the PR boundary.
    """
    canonical = repr(
        (
            stats.documents,
            stats.deliveries,
            stats.makespan,
            stats.latency_p50,
            stats.latency_p95,
            stats.latency_p99,
            stats.latency_mean,
            stats.latency_max,
            stats.queue_delay_mean,
            stats.queue_delay_p95,
            stats.queue_delay_max,
            sorted(stats.queue_depth_peaks.items()),
            sorted(stats.busy_time.items()),
            stats.match_operations,
            stats.forwards,
            stats.service_batches,
            stats.serviced_documents,
            sorted(stats.latency_by_class.items()),
            sorted((index, sorted(ids)) for index, ids in delivered.items()),
        )
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


#: The service model the golden digest was cut with.
LEGACY_SERVICE = ServiceModel(base=0.3, per_match=0.07)


def legacy_scenario_engine(service=LEGACY_SERVICE, **engine_kwargs):
    """The fixed pre-PR replay scenario the golden digest was cut on."""
    overlay = BrokerOverlay.chain(3)
    overlay.attach(0, parse_xpath("/a/b"))
    overlay.attach(1, parse_xpath("//b"))
    overlay.attach(2, parse_xpath("/a"))
    overlay.attach(2, parse_xpath("/c"))
    overlay.advertise(PerSubscriptionPolicy())
    shapes = (
        "<a><b/></a>",
        "<a><c/></a>",
        "<c/>",
        "<a><b/><c/></a>",
        "<b/>",
        "<a><a><b/></a></a>",
    )
    corpus = DocumentCorpus(
        [parse_xml(shapes[i % len(shapes)], doc_id=i) for i in range(12)]
    )
    engine = DeliveryEngine(
        overlay,
        service=service,
        links=LinkModel(default=0.6, overrides={(0, 1): 1.1}),
        scheduling=PriorityScheduling(),
        **engine_kwargs,
    )
    engine.publish_corpus(
        corpus,
        rate=1.7,
        arrivals="poisson",
        seed=9,
        classes=(0, 1, 2),
        deadline_slack=12.0,
    )
    return engine


#: sha256 of :func:`stats_digest` over :func:`legacy_scenario_engine`,
#: computed at the commit *before* the overload layer landed.  The
#: default engine must keep replaying this scenario byte-identically.
GOLDEN_LEGACY_DIGEST = (
    "b6e0b3713cfeefca8724c018880310270a79851e5c6f39d15487bbe7864c8f68"
)


class TestByteIdenticalDefault:
    def test_default_engine_replays_the_pre_overload_digest(self):
        engine = legacy_scenario_engine()
        stats = engine.run()
        assert (
            stats_digest(stats, engine.delivered_sets())
            == GOLDEN_LEGACY_DIGEST
        )
        # The run is also clean through the new ledger's eyes.
        assert_conserved(stats)
        assert stats.dropped_jobs == 0
        assert stats.nacked_jobs == 0
        assert stats.admitted_jobs == stats.offered_jobs

    def test_batch_of_one_model_replays_the_affine_engine(self):
        # The affine model is the batch-of-one case: no per-document
        # charge, one document per service interval.
        affine = legacy_scenario_engine()
        batched = legacy_scenario_engine(
            service=BatchServiceModel(0.3, 0.07, per_doc=0.0, max_batch=1)
        )
        affine_stats = affine.run()
        batched_stats = batched.run()
        assert stats_digest(
            affine_stats, affine.delivered_sets()
        ) == stats_digest(batched_stats, batched.delivered_sets())
        assert affine.delivered_sets() == batched.delivered_sets()

    def test_explicit_unbounded_policy_equals_default(self):
        default = legacy_scenario_engine()
        explicit = legacy_scenario_engine(queue_policy=QueuePolicy(None))
        assert default.run() == explicit.run()
        assert default.delivered_sets() == explicit.delivered_sets()

    @settings(max_examples=property_max_examples(10), deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=4),
        st.sampled_from(sorted(TOPOLOGIES)),
        st.sampled_from([0.4, 3.0]),
        st.sampled_from(SCHEDULERS),
    )
    def test_unreached_bound_is_byte_identical(
        self, docs, patterns, topology, rate, scheduling
    ):
        # A capacity the workload can never fill (more than every copy
        # that could ever exist) must not perturb a single float.
        corpus = DocumentCorpus(docs)
        outcomes = []
        for queue_policy in (None, QueuePolicy(10_000, "drop-oldest")):
            overlay = membership_overlay(topology, 3, patterns)
            engine = DeliveryEngine(
                overlay,
                service=ServiceModel(base=0.2, per_match=0.1),
                links=LinkModel(default=0.5),
                scheduling=scheduling,
                queue_policy=queue_policy,
            )
            engine.publish_corpus(
                corpus, rate=rate, classes=(0, 1), deadline_slack=6.0
            )
            outcomes.append((engine.run(), engine.delivered_sets()))
        assert outcomes[0] == outcomes[1]


class TestConservation:
    @settings(max_examples=property_max_examples(10), deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=4),
        st.sampled_from(sorted(TOPOLOGIES)),
        st.sampled_from([None, 0, 1, 3]),
        st.sampled_from(sorted(OVERFLOW_MODES)),
        st.sampled_from(SCHEDULERS),
        st.sampled_from([0.5, 5.0]),
    )
    def test_every_policy_topology_cell_conserves(
        self, docs, patterns, topology, capacity, overflow, scheduling, rate
    ):
        corpus = DocumentCorpus(docs)
        overlay = membership_overlay(topology, 3, patterns)
        engine = DeliveryEngine(
            overlay,
            service=ServiceModel(base=0.3, per_match=0.1),
            links=LinkModel(default=0.5),
            scheduling=scheduling,
            queue_policy=QueuePolicy(capacity, overflow),
        )
        engine.publish_corpus(
            corpus, rate=rate, classes=(0, 1), deadline_slack=8.0
        )
        stats = engine.run()
        assert_conserved(stats)
        # Deliveries can only come from completed copies, and bounded
        # queues only ever shed work — never invent it.
        sync = {
            index: frozenset(
                overlay.route(document, sorted(overlay.brokers)[
                    index % len(overlay.brokers)
                ])[0]
            )
            for index, document in enumerate(corpus.documents)
        }
        for index, delivered in engine.delivered_sets().items():
            assert delivered <= sync[index]

    @settings(max_examples=property_max_examples(8), deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=4),
        st.sampled_from([0, 2]),
        st.sampled_from(sorted(OVERFLOW_MODES)),
    )
    def test_every_drain_point_conserves_incrementally(
        self, docs, patterns, capacity, overflow
    ):
        # run() may interleave with more publishes; the ledger must
        # balance at each drain, not just the last.
        corpus = DocumentCorpus(docs)
        engine = DeliveryEngine(
            membership_overlay("chain", 3, patterns),
            service=ServiceModel(base=0.5, per_match=0.1),
            queue_policy=QueuePolicy(capacity, overflow),
        )
        for round_start, document in enumerate(corpus.documents):
            engine.publish(document, 0, float(round_start))
            engine.publish(
                document, len(engine.overlay.brokers) - 1,
                float(round_start) + 0.1,
            )
            assert_conserved(engine.run())

    @settings(max_examples=property_max_examples(8), deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=4),
        st.sampled_from([0, 1, 4]),
        st.sampled_from(sorted(OVERFLOW_MODES)),
        st.sampled_from([1, 3]),
        st.data(),
    )
    def test_batched_drains_conserve_under_bounded_queues(
        self, docs, patterns, capacity, overflow, max_batch, data
    ):
        corpus = DocumentCorpus(docs)
        engine = DeliveryEngine(
            membership_overlay("star", 4, patterns),
            service=BatchServiceModel(
                base=0.4, per_match=0.05, per_doc=0.1, max_batch=max_batch
            ),
            links=LinkModel(default=0.5),
            scheduling=data.draw(
                st.sampled_from(SCHEDULERS), label="scheduling"
            ),
            queue_policy=QueuePolicy(capacity, overflow),
        )
        engine.publish_corpus(corpus, rate=4.0, classes=(0, 1))
        assert_conserved(engine.run())

    @settings(max_examples=property_max_examples(8), deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=4),
        st.sampled_from([0, 2]),
        st.sampled_from(sorted(OVERFLOW_MODES)),
        st.data(),
    )
    def test_mid_sim_leave_conserves_under_bounded_queues(
        self, docs, patterns, capacity, overflow, data
    ):
        # A retiring broker reinjects its queued and in-service work at
        # the merge target, where it faces admission again: copies may
        # be dropped there, but never double-counted or lost untracked.
        corpus = DocumentCorpus(docs)
        engine = DeliveryEngine(
            membership_overlay("random_tree", 4, patterns),
            service=ServiceModel(base=0.4, per_match=0.1),
            links=LinkModel(default=1.0),
            queue_policy=QueuePolicy(capacity, overflow),
        )
        engine.publish_corpus(corpus, rate=3.0, classes=(0, 1))
        retiring = data.draw(st.integers(0, 3), label="retiring")
        when = data.draw(
            st.sampled_from([0.3, 1.1, 2.7]), label="leave time"
        )
        engine.schedule_leave(when, retiring)
        stats = engine.run()
        assert_conserved(stats)
        assert engine.topology_log[0][1].action == "leave"

    @settings(max_examples=property_max_examples(8), deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=4),
        st.sampled_from([0, 1, None]),
        st.sampled_from(sorted(OVERFLOW_MODES)),
        st.integers(min_value=0, max_value=2**30),
    )
    def test_closed_loop_sources_conserve_and_settle(
        self, docs, patterns, capacity, overflow, seed
    ):
        corpus = DocumentCorpus(docs)
        engine = DeliveryEngine(
            membership_overlay("chain", 3, patterns),
            service=ServiceModel(base=0.5, per_match=0.1),
            links=LinkModel(default=0.5),
            queue_policy=QueuePolicy(capacity, overflow),
        )
        source = engine.attach_source(
            ClosedLoopSource(
                corpus,
                at_broker=0,
                initial_window=2.0,
                feedback_delay=0.25,
                jitter=0.5,
                seed=seed,
            )
        )
        stats = engine.run()
        assert_conserved(stats)
        report = engine.source_report(source)
        # The loop always drains: every document is eventually
        # published (window >= 1) and eventually absorbed.
        assert report.published == len(corpus.documents)
        assert report.pending == 0
        assert report.outstanding == 0
        assert report.acked == report.published
        assert report.clean_acks <= report.acked
        assert 1.0 <= report.window


class TestBelowKneeEquivalence:
    @settings(max_examples=property_max_examples(10), deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=4),
        st.sampled_from(sorted(TOPOLOGIES)),
        st.sampled_from(sorted(OVERFLOW_MODES)),
    )
    def test_below_knee_bounded_delivers_identical_sets(
        self, docs, patterns, topology, overflow
    ):
        # Far below the saturation knee queues stay shallow, so a
        # modest bound is never exercised: delivery sets (and the full
        # stats) must match the unbounded engine exactly.
        corpus = DocumentCorpus(docs)
        outcomes = []
        for queue_policy in (None, QueuePolicy(64, overflow)):
            overlay = membership_overlay(topology, 3, patterns)
            engine = DeliveryEngine(
                overlay,
                service=ServiceModel(base=0.1, per_match=0.02),
                links=LinkModel(default=0.2),
                queue_policy=queue_policy,
            )
            engine.publish_corpus(corpus, rate=0.2)
            outcomes.append((engine.run(), engine.delivered_sets()))
        assert outcomes[0][0].dropped_jobs == 0
        assert outcomes[0] == outcomes[1]


class TestWeightedFairConvergence:
    @settings(max_examples=property_max_examples(4), deadline=None)
    @given(
        st.sampled_from(
            [
                {0: 2.0, 1: 1.0},
                {0: 3.0, 1: 1.0},
                {0: 4.0, 1: 2.0, 2: 1.0},
            ]
        ),
        st.integers(min_value=0, max_value=2**20),
    )
    def test_long_run_shares_converge_to_weights(self, weights, seed):
        overlay = BrokerOverlay.chain(1)
        overlay.attach(0, parse_xpath("//b"))
        overlay.advertise(PerSubscriptionPolicy())
        corpus = DocumentCorpus(
            [parse_xml("<a><b/></a>", doc_id=i) for i in range(400)]
        )
        engine = DeliveryEngine(
            overlay,
            service=ServiceModel(base=0.5, per_match=0.05),
            scheduling=WeightedFairScheduling(weights),
            queue_policy=QueuePolicy(10, "drop-oldest"),
        )
        engine.publish_corpus(
            corpus,
            rate=20.0,
            arrivals="poisson",
            seed=seed,
            classes=tuple(sorted(weights)),
        )
        stats = engine.run()
        assert_conserved(stats)
        shares = stats.completed_share_by_class
        total = sum(weights.values())
        for priority_class, weight in weights.items():
            # Admission is class-blind, so convergence is to within the
            # admitted mix, not exact; the ramp and final drain add a
            # little more slack.
            assert abs(shares[priority_class] - weight / total) < 0.15
        # And the ordering always matches the weights.
        ordered = sorted(weights, key=lambda c: weights[c])
        for lighter, heavier in zip(ordered, ordered[1:]):
            if weights[lighter] < weights[heavier]:
                assert shares[lighter] < shares[heavier]


class TestClosedLoopDeterminism:
    @settings(max_examples=property_max_examples(6), deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=2**30),
        st.sampled_from(sorted(OVERFLOW_MODES)),
    )
    def test_same_seed_replays_bit_for_bit(
        self, docs, patterns, seed, overflow
    ):
        corpus = DocumentCorpus(docs)
        outcomes = []
        for _ in range(2):
            engine = DeliveryEngine(
                membership_overlay("star", 3, patterns),
                service=ServiceModel(base=0.4, per_match=0.1),
                links=LinkModel(default=0.5),
                scheduling=WeightedFairScheduling({0: 2.0, 1: 1.0}),
                queue_policy=QueuePolicy(1, overflow),
            )
            source = engine.attach_source(
                ClosedLoopSource(
                    corpus, at_broker=0, jitter=0.4, seed=seed
                )
            )
            outcomes.append(
                (
                    engine.run(),
                    engine.delivered_sets(),
                    engine.source_report(source),
                )
            )
        assert outcomes[0] == outcomes[1]
