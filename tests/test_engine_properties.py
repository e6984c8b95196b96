"""Property-based sync/async equivalence for the delivery engine.

The engine consumes the same broker-local step
(:meth:`BrokerOverlay.process_at`) as the synchronous walk, so for any
workload, topology and advertisement regime it must deliver *exactly* the
same subscriber sets — timing may differ, delivery semantics may not.
The sweep also pins determinism: every run is replayed and must reproduce
its stats and schedule bit for bit.  The engine keeps its latency samples
as ``(value, multiplicity)`` runs; the digest it computes from runs must
equal the sorted-sample computation float for float.
"""

from __future__ import annotations

import hashlib
import pathlib
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pattern_parser import parse_xpath
from repro.routing.broker import ClassLatency, ordered_percentile
from repro.routing.engine import (
    ClosedLoopSource,
    DeliveryEngine,
    LinkModel,
    ServiceModel,
)
from repro.routing.overlay import TOPOLOGIES, BrokerOverlay
from repro.routing.policy import (
    CommunityPolicy,
    PerSubscriptionPolicy,
    QueuePolicy,
    WeightedFairScheduling,
)
from repro.xmltree.corpus import DocumentCorpus
from repro.xmltree.parser import parse_xml
from tests.strategies import property_max_examples, tree_patterns
from tests.test_selectivity_properties import corpora


def build_routed_overlay(topology, n_brokers, patterns, regime, corpus):
    overlay = BrokerOverlay.build(topology, n_brokers, seed=5)
    overlay.attach_round_robin(patterns)
    if regime == "per_subscription":
        overlay.advertise(PerSubscriptionPolicy())
    else:
        overlay.advertise(CommunityPolicy(regime), corpus)
    return overlay


def engine_run(overlay, corpus, rate, service, links):
    engine = DeliveryEngine(overlay, service=service, links=links)
    engine.publish_corpus(corpus, rate=rate)
    stats = engine.run()
    return stats, engine.delivered_sets()


class TestSyncAsyncEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=5),
        st.sampled_from(sorted(TOPOLOGIES)),
        st.integers(min_value=1, max_value=4),
        st.sampled_from(["per_subscription", 0.3, 0.7]),
        st.sampled_from([0.25, 1.0, 10.0]),
    )
    def test_engine_delivers_route_corpus_sets(
        self, docs, patterns, topology, n_brokers, regime, rate
    ):
        corpus = DocumentCorpus(docs)
        overlay = build_routed_overlay(
            topology, n_brokers, patterns, regime, corpus
        )
        expected = {
            index: frozenset(
                overlay.route(document, index % n_brokers)[0]
            )
            for index, document in enumerate(corpus.documents)
        }
        _, delivered = engine_run(
            overlay, corpus, rate, ServiceModel(), LinkModel()
        )
        assert delivered == expected

    @settings(max_examples=15, deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=4),
        st.sampled_from(sorted(TOPOLOGIES)),
        st.sampled_from(["per_subscription", 0.5]),
        st.floats(min_value=0.1, max_value=20.0, allow_nan=False),
    )
    def test_runs_replay_bit_for_bit(
        self, docs, patterns, topology, regime, rate
    ):
        corpus = DocumentCorpus(docs)
        overlay = build_routed_overlay(topology, 3, patterns, regime, corpus)
        service = ServiceModel(base=0.1, per_match=0.3)
        links = LinkModel(default=0.7, overrides={(0, 1): 2.0})
        first = engine_run(overlay, corpus, rate, service, links)
        second = engine_run(overlay, corpus, rate, service, links)
        assert first == second

    @settings(max_examples=15, deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=4),
    )
    def test_match_operations_agree_with_sync_path(
        self, docs, patterns, n_brokers
    ):
        # Same steps, same filtering cost: the engine's total match
        # operations equal the synchronous walk's, document by document.
        corpus = DocumentCorpus(docs)
        overlay = build_routed_overlay(
            "chain", n_brokers, patterns, "per_subscription", corpus
        )
        expected_operations = 0
        for index, document in enumerate(corpus.documents):
            _, operations, _ = overlay.route(document, index % n_brokers)
            expected_operations += sum(operations.values())
        stats, _ = engine_run(
            overlay, corpus, 1.0, ServiceModel(), LinkModel()
        )
        assert stats.match_operations == expected_operations


def closed_loop_digest() -> str:
    """Digest of a fixed closed-loop scenario, for cross-process replay.

    Exercises every seeded path at once: the source's jitter RNG, NACK
    back-pressure through a capacity-1 queue, AIMD window moves, and
    weighted-fair service selection.  Any hidden nondeterminism (hash
    randomisation, set ordering, wall clock) changes the digest.
    """
    overlay = BrokerOverlay.chain(3)
    overlay.attach(0, parse_xpath("/a/b"))
    overlay.attach(1, parse_xpath("//b"))
    overlay.attach(2, parse_xpath("/a"))
    overlay.advertise(PerSubscriptionPolicy())
    shapes = ("<a><b/></a>", "<a><c/></a>", "<b/>", "<a><a><b/></a></a>")
    corpus = DocumentCorpus(
        [parse_xml(shapes[i % len(shapes)], doc_id=i) for i in range(16)]
    )
    engine = DeliveryEngine(
        overlay,
        service=ServiceModel(base=0.4, per_match=0.1),
        links=LinkModel(default=0.6),
        scheduling=WeightedFairScheduling({0: 2.0, 1: 1.0}),
        queue_policy=QueuePolicy(1, "nack"),
    )
    engine.attach_source(
        ClosedLoopSource(
            corpus,
            at_broker=0,
            initial_window=2.0,
            feedback_delay=0.3,
            jitter=0.5,
            seed=17,
        )
    )
    stats = engine.run()
    canonical = repr(
        (
            stats,
            sorted(
                (index, sorted(ids))
                for index, ids in engine.delivered_sets().items()
            ),
            engine.source_report(0),
        )
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


class TestClosedLoopDeterminism:
    def test_seeded_source_replays_across_processes(self):
        # In-process replay can hide nondeterminism that only shows up
        # across interpreter boundaries (PYTHONHASHSEED, import order);
        # a fresh interpreter must reproduce the digest exactly.
        local = closed_loop_digest()
        assert local == closed_loop_digest()
        repo_root = pathlib.Path(__file__).resolve().parent.parent
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "from tests.test_engine_properties import closed_loop_digest;"
                "print(closed_loop_digest())",
            ],
            cwd=repo_root,
            env={"PYTHONPATH": str(repo_root / "src"), "PYTHONHASHSEED": "random"},
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == local


def sample_digest(samples):
    """The latency digest of expanded samples, computed the way the
    engine did before it kept runs: sort once, read nearest ranks, sum
    the sorted samples."""
    ordered = sorted(samples)
    if not ordered:
        return (0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return (
        len(ordered),
        ordered_percentile(ordered, 50.0),
        ordered_percentile(ordered, 95.0),
        ordered_percentile(ordered, 99.0),
        sum(ordered) / len(ordered),
        ordered[-1],
    )


#: A few fixed values make ties between runs likely.
LATENCIES = st.one_of(
    st.sampled_from([0.0, 0.1, 0.5, 2.5, 7.25]),
    st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
)


class TestLatencyRunsEqualSamples:
    @settings(max_examples=property_max_examples(60), deadline=None)
    @given(
        st.lists(
            st.tuples(LATENCIES, st.integers(min_value=1, max_value=6)),
            max_size=40,
        ),
        st.one_of(st.none(), st.tuples(LATENCIES, st.just(100_000))),
    )
    def test_digest_of_runs_equals_digest_of_samples(self, runs, large):
        if large is not None:
            runs.append(large)
        samples = [value for value, count in runs for _ in range(count)]
        digest = ClassLatency.of_runs(runs)
        assert (
            digest.deliveries,
            digest.p50,
            digest.p95,
            digest.p99,
            digest.mean,
            digest.max,
        ) == sample_digest(samples)
        assert ClassLatency.of(samples) == digest
