"""Property suite: batched matching is invisible except in its cost.

Three layers, one contract each:

* ``PatternTrie.match_batch`` is extensionally the per-document
  ``match`` — same destinations, same patterns — with attributed
  operations that sum to the batch total and never exceed the summed
  sequential cost;
* ``RoutingTable.destinations_for_batch`` returns exactly the
  ``destinations_for`` lists (order included) in both matching modes,
  under arbitrary covering churn;
* a :class:`BatchServiceModel` engine delivers exactly the per-document
  sets of the synchronous walk (the unbatched engine's proven
  reference) under all three advertisement policies and across a
  mid-stream broker leave — batching may only change *when* documents
  are serviced, never *what* is delivered.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.engine import BatchServiceModel, DeliveryEngine, LinkModel
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import PerSubscriptionPolicy
from repro.routing.table import RoutingTable
from repro.routing.trie import PatternTrie
from repro.xmltree.corpus import DocumentCorpus
from tests.strategies import (
    any_order_xml_trees,
    property_max_examples,
    tree_patterns,
)
from tests.test_selectivity_properties import corpora
from tests.test_topology_properties import POLICIES, churn, seeded_overlay

DESTINATIONS = ("link-0", "link-1", "link-2")


def churned_table(patterns, data, matching="trie"):
    """A routing table after a random covering-churn interleaving."""
    table = RoutingTable(matching=matching)
    for step in range(data.draw(st.integers(1, 10), label="table ops")):
        op = data.draw(
            st.sampled_from(["add", "add", "add", "remove", "rename"]),
            label=f"table op{step}",
        )
        if op == "add":
            table.add(
                data.draw(st.sampled_from(patterns), label=f"p{step}"),
                data.draw(st.sampled_from(DESTINATIONS), label=f"d{step}"),
            )
        elif op == "remove":
            destination = data.draw(
                st.sampled_from(DESTINATIONS), label=f"d{step}"
            )
            held = table.patterns_for(destination)
            if held:
                table.remove_pattern(
                    data.draw(st.sampled_from(held), label=f"p{step}"),
                    destination,
                )
        else:
            source = data.draw(
                st.sampled_from(DESTINATIONS), label=f"src{step}"
            )
            spare = f"renamed-{step}"
            if table.rename_destination(source, spare):
                table.rename_destination(spare, source)
    return table


class TestTrieBatchEquivalence:
    @settings(max_examples=property_max_examples(20), deadline=None)
    @given(
        st.lists(tree_patterns(), min_size=1, max_size=6),
        st.lists(any_order_xml_trees(), min_size=1, max_size=5),
        st.data(),
    )
    def test_match_batch_is_the_per_document_match(
        self, patterns, documents, data
    ):
        trie = PatternTrie()
        for index, pattern in enumerate(patterns):
            trie.add(pattern, DESTINATIONS[index % len(DESTINATIONS)])
        batch = trie.match_batch(documents)
        singles = [trie.match(document) for document in documents]
        assert [r.destinations for r in batch.results] == [
            s.destinations for s in singles
        ]
        assert [r.patterns for r in batch.results] == [
            s.patterns for s in singles
        ]
        # Attributed per-document ops partition the batch total, and
        # sharing can only make the batch cheaper than the sequence.
        assert batch.operations == sum(r.operations for r in batch.results)
        assert batch.operations <= sum(s.operations for s in singles)

    @settings(max_examples=property_max_examples(20), deadline=None)
    @given(
        st.lists(tree_patterns(), min_size=1, max_size=6),
        any_order_xml_trees(),
        st.integers(2, 5),
    )
    def test_repeated_documents_cost_once(self, patterns, document, copies):
        trie = PatternTrie()
        for pattern in patterns:
            trie.add(pattern, "link-0")
        batch = trie.match_batch([document] * copies)
        assert batch.operations == trie.match(document).operations
        assert all(r.operations == 0 for r in batch.results[1:])


class TestTableBatchEquivalence:
    @settings(max_examples=property_max_examples(15), deadline=None)
    @given(
        st.lists(tree_patterns(), min_size=1, max_size=6),
        st.lists(any_order_xml_trees(), min_size=1, max_size=4),
        st.sampled_from(["trie", "linear"]),
        st.data(),
    )
    def test_batch_lists_equal_sequential_lists_under_churn(
        self, patterns, documents, matching, data
    ):
        table = churned_table(patterns, data, matching)
        expected = [
            table.destinations_for(document).destinations
            for document in documents
        ]
        sequential_ops = sum(
            table.destinations_for(document).operations
            for document in documents
        )
        batch = table.destinations_for_batch(documents)
        assert [step.destinations for step in batch.steps] == expected
        assert batch.total_operations <= sequential_ops


def batched_engine(overlay, rate, corpus, leave=None):
    engine = DeliveryEngine(
        overlay,
        service=BatchServiceModel(
            base=0.4, per_match=0.05, per_doc=0.1, max_batch=3
        ),
        links=LinkModel(default=0.5),
    )
    engine.publish_corpus(corpus, rate=rate)
    if leave is not None:
        when, retiring = leave
        engine.schedule_leave(when, retiring)
    return engine


class TestBatchedEngineEquivalence:
    @settings(max_examples=property_max_examples(8), deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=5),
        st.sampled_from([name for name, _ in POLICIES]),
        st.sampled_from([0.4, 6.0]),
        st.data(),
    )
    def test_batched_run_equals_sync_walk_after_churn(
        self, docs, patterns, policy_name, rate, data
    ):
        # The sync walk is the unbatched engine's proven reference
        # (test_sync_walk_equals_event_engine_after_churn), so equality
        # here is equality with the unbatched engine — at high rate the
        # drains genuinely batch, at low rate they degrade to singles.
        corpus = DocumentCorpus(docs)
        policy = dict(POLICIES)[policy_name]()
        provider = corpus if policy.uses_similarity else None
        overlay = seeded_overlay(
            "random_tree", 3, patterns, policy, provider, data
        )
        for _ in churn(overlay, patterns, data):
            pass
        order = sorted(overlay.brokers)
        expected = {
            index: frozenset(
                overlay.route(document, order[index % len(order)])[0]
            )
            for index, document in enumerate(corpus.documents)
        }
        engine = batched_engine(overlay, rate, corpus)
        engine.run()
        assert engine.delivered_sets() == expected, policy_name

    @settings(max_examples=property_max_examples(8), deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=4),
        st.sampled_from([2.0, 8.0]),
        st.data(),
    )
    def test_leave_mid_batch_never_loses_deliveries(
        self, docs, patterns, rate, data
    ):
        # A broker retiring while a batch is queued or in service must
        # reinject every job of the batch — exact delivery survives.
        corpus = DocumentCorpus(docs)
        overlay = BrokerOverlay.build("random_tree", 4, seed=9)
        subscriptions = [
            overlay.attach(
                data.draw(st.integers(0, 3), label="home"), pattern
            )
            for pattern in patterns
        ]
        overlay.advertise(PerSubscriptionPolicy())
        wanted = {
            index: frozenset(
                subscription
                for subscription, pattern in zip(subscriptions, patterns, strict=True)
                if document.doc_id in corpus.match_set(pattern)
            )
            for index, document in enumerate(corpus.documents)
        }
        retiring = data.draw(st.integers(0, 3), label="retiring")
        when = data.draw(st.sampled_from([0.3, 1.1, 2.7]), label="when")
        engine = batched_engine(
            overlay, rate, corpus, leave=(when, retiring)
        )
        stats = engine.run()
        assert engine.delivered_sets() == wanted
        assert stats.serviced_documents >= len(corpus.documents)
