"""Batched matching: shared memo pools, batch drains, and their stats."""

import pytest

from repro.core.pattern_parser import parse_xpath
from repro.routing.engine import BatchServiceModel, DeliveryEngine, ServiceModel
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import PerSubscriptionPolicy
from repro.routing.table import RoutingTable, TableBatchMatch, TableMatch
from repro.routing.trie import PatternTrie
from repro.xmltree.corpus import DocumentCorpus
from repro.xmltree.parser import parse_xml


def doc(xml: str, doc_id: int = 0):
    return parse_xml(xml, doc_id=doc_id)


@pytest.fixture()
def documents():
    return [
        doc("<a><b><e/></b></a>", 0),
        doc("<a><d><e/></d></a>", 1),
        doc("<q><r/></q>", 2),
    ]


@pytest.fixture()
def trie():
    built = PatternTrie()
    built.add(parse_xpath("/a/b"), "link-1")
    built.add(parse_xpath("/a//e"), "link-2")
    built.add(parse_xpath("//e"), "link-3")
    return built


class TestMatchBatch:
    def test_batch_equals_single_matches(self, trie, documents):
        batch = trie.match_batch(documents)
        singles = [trie.match(document) for document in documents]
        assert [r.destinations for r in batch.results] == [
            s.destinations for s in singles
        ]
        assert [r.patterns for r in batch.results] == [
            s.patterns for s in singles
        ]

    def test_attributed_operations_sum_to_total(self, trie, documents):
        batch = trie.match_batch(documents)
        assert batch.operations == sum(r.operations for r in batch.results)
        assert batch.operations > 0

    def test_batched_ops_never_exceed_sequential(self, trie, documents):
        batch = trie.match_batch(documents)
        sequential = sum(trie.match(d).operations for d in documents)
        assert batch.operations <= sequential

    def test_repeated_document_is_free(self, trie, documents):
        repeated = documents[0]
        batch = trie.match_batch([repeated, repeated, repeated])
        # The whole-document memo answers the second and third copies.
        assert batch.results[1].operations == 0
        assert batch.results[2].operations == 0
        assert batch.results[0].operations > 0
        assert batch.hit_rate > 0.0
        assert batch.results[0].destinations == batch.results[1].destinations

    def test_structurally_equal_documents_share(self, trie):
        # Distinct objects, identical shape: skeleton keys coincide.
        batch = trie.match_batch(
            [doc("<a><b><e/></b></a>", 0), doc("<a><b><e/></b></a>", 1)]
        )
        assert batch.results[1].operations == 0
        assert batch.memo_hits > 0

    def test_empty_batch_and_empty_trie(self, trie, documents):
        empty_batch = trie.match_batch([])
        assert empty_batch.results == []
        assert empty_batch.operations == 0
        assert empty_batch.hit_rate == 0.0
        empty_trie = PatternTrie()
        batch = empty_trie.match_batch(documents)
        assert all(not r.destinations for r in batch.results)
        assert batch.operations == 0


class TestTableBatch:
    def test_batch_equals_sequential_lists(self, documents):
        table = RoutingTable()
        table.add(parse_xpath("/a/b"), "link-1")
        table.add(parse_xpath("//e"), "link-2")
        table.add(parse_xpath("/a"), "link-3")
        expected = [table.destinations_for(d).destinations for d in documents]
        batch = table.destinations_for_batch(documents)
        assert [step.destinations for step in batch.steps] == expected

    def test_linear_mode_has_no_sharing(self, documents):
        table = RoutingTable(matching="linear")
        table.add(parse_xpath("/a/b"), "link-1")
        batch = table.destinations_for_batch(documents)
        assert batch.memo_hits == 0 and batch.memo_misses == 0
        # Each document pays for its own scan.
        assert [step.operations for step in batch.steps] == [
            table.destinations_for(d).operations for d in documents
        ]

    def test_excludes_are_per_document(self, documents):
        table = RoutingTable()
        table.add(parse_xpath("/a"), "link-1")
        table.add(parse_xpath("/a"), "link-2")
        batch = table.destinations_for_batch(
            documents[:2], excludes=[("link-1",), ()]
        )
        assert batch.steps[0].destinations == ["link-2"]
        assert batch.steps[1].destinations == ["link-1", "link-2"]

    def test_excludes_length_mismatch_rejected(self, documents):
        table = RoutingTable()
        with pytest.raises(ValueError):
            table.destinations_for_batch(documents, excludes=[()])

    def test_stats_fields(self):
        stats = TableBatchMatch(
            [
                TableMatch((frozenset({7}),), (), 3, list),
                TableMatch((), (2,), 1, list),
            ],
            memo_hits=2,
            memo_misses=6,
        )
        assert [step.deliveries for step in stats.steps] == [
            frozenset({7}),
            frozenset(),
        ]
        assert stats.total_operations == 4
        assert stats.hit_rate == 0.25
        assert TableBatchMatch([]).hit_rate == 0.0

    def test_batch_total_sums_its_steps_operations(self, documents):
        table = RoutingTable()
        table.add(parse_xpath("//e"), "link-1")
        batch = table.destinations_for_batch(documents)
        assert batch.total_operations == sum(
            step.operations for step in batch.steps
        )
        # The shared pool never costs more than one call per document.
        assert batch.total_operations <= sum(
            table.destinations_for(d).operations for d in documents
        )


class TestOverlayBatch:
    def test_process_batch_equals_per_document_steps(self, documents):
        overlay = BrokerOverlay.chain(3)
        overlay.attach(0, parse_xpath("/a/b"))
        overlay.attach(1, parse_xpath("//e"))
        overlay.attach(2, parse_xpath("/q"))
        overlay.advertise(PerSubscriptionPolicy())
        for broker_id in overlay.brokers:
            expected = [
                overlay.process_at(broker_id, document)
                for document in documents
            ]
            steps = overlay.process_batch_at(broker_id, documents)
            assert [
                (s.deliveries, s.forwards) for s in steps
            ] == [(s.deliveries, s.forwards) for s in expected]

    def test_origin_excludes_reverse_link(self, documents):
        overlay = BrokerOverlay.chain(2)
        overlay.attach(1, parse_xpath("//e"))
        overlay.advertise(PerSubscriptionPolicy())
        # Arriving over the 0-1 link must not be forwarded back.
        steps = overlay.process_batch_at(
            1, documents[:2], arrived_from=[0, None]
        )
        assert all(not step.forwards for step in steps)

    def test_origins_length_mismatch_rejected(self, documents):
        overlay = BrokerOverlay.chain(2)
        with pytest.raises(ValueError):
            overlay.process_batch_at(0, documents, arrived_from=[None])
        with pytest.raises(ValueError):
            overlay.process_batch_at(99, documents)


class TestBatchServiceModel:
    def test_batch_service_time_shape(self):
        model = BatchServiceModel(
            base=1.0, per_match=0.1, per_doc=0.5, max_batch=4
        )
        assert model.service_time_batch(10, 3) == pytest.approx(3.5)
        # A batch of one is the plain affine model plus per_doc.
        assert model.service_time(10) == pytest.approx(2.5)

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ValueError):
            BatchServiceModel(per_doc=-0.1)
        with pytest.raises(ValueError):
            BatchServiceModel(base=0.0, per_match=0.0, per_doc=0.0)
        with pytest.raises(ValueError):
            BatchServiceModel(max_batch=0)


def saturated_engine(service):
    """A one-broker overlay fed faster than it drains."""
    overlay = BrokerOverlay.chain(1)
    overlay.attach(0, parse_xpath("/a"))
    overlay.advertise(PerSubscriptionPolicy())
    corpus = DocumentCorpus(
        [doc("<a><b/></a>", doc_id) for doc_id in range(12)]
    )
    engine = DeliveryEngine(overlay, service=service)
    engine.publish_corpus(corpus, rate=100.0)
    return engine


class TestBatchedEngine:
    def test_saturation_forms_batches(self):
        engine = saturated_engine(
            BatchServiceModel(base=1.0, per_match=0.01, max_batch=4)
        )
        stats = engine.run()
        assert stats.serviced_documents == 12
        assert stats.service_batches < 12
        assert 1.0 < stats.mean_batch_size <= 4.0
        assert stats.deliveries == 12

    def test_max_batch_one_still_counts_batches(self):
        engine = saturated_engine(
            BatchServiceModel(base=1.0, per_match=0.01, max_batch=1)
        )
        stats = engine.run()
        assert stats.service_batches == 12
        assert stats.mean_batch_size == 1.0

    def test_affine_model_reports_unbatched_stats(self):
        engine = saturated_engine(ServiceModel(base=1.0, per_match=0.01))
        stats = engine.run()
        assert stats.service_batches == 12
        assert stats.serviced_documents == 12
        assert stats.mean_batch_size == 1.0

    def test_batched_delivery_equals_unbatched(self):
        unbatched = saturated_engine(ServiceModel(base=1.0, per_match=0.01))
        unbatched.run()
        batched = saturated_engine(
            BatchServiceModel(base=1.0, per_match=0.01, max_batch=4)
        )
        batched.run()
        assert batched.delivered_sets() == unbatched.delivered_sets()

    def test_idle_stats_batch_size_zero(self):
        overlay = BrokerOverlay.chain(1)
        overlay.attach(0, parse_xpath("/a"))
        overlay.advertise(PerSubscriptionPolicy())
        engine = DeliveryEngine(
            overlay, service=BatchServiceModel(max_batch=2)
        )
        stats = engine.run()
        assert stats.service_batches == 0
        assert stats.mean_batch_size == 0.0
