"""Property suite for the delivery view: broker steps decoded from masks.

A broker step is decoded straight from its table match's rank mask,
through a per-rank delivery view the table rebuilds whenever the trie's
destination ranks change.  This suite pins that decode against the split
the overlay made before, kept here as :func:`reference_step`: the union
of the matched deliver groups and the forward links, read off the
table-order destination list.

Hypothesis interleaves subscribe / unsubscribe with broker joins and
leaves under all three advertisement policies (a corpus as the
selectivity provider), long enough for ranks to retire and compact.
After every event, for every document and every arrival link of every
broker, in trie and in linear mode:

* the split of the mask equals the reference split of the decoded list,
  and the overlay's ``process_at`` / ``process_batch_at`` steps equal
  the reference steps;
* a match computed before the event whose table's rank list the event
  changed refuses to decode (``ValueError``) instead of naming the wrong
  destinations.
"""

from __future__ import annotations

from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pattern_parser import parse_xpath
from repro.routing.overlay import BrokerOverlay, BrokerStep
from repro.routing.policy import PerSubscriptionPolicy
from repro.routing.table import DELIVER, FORWARD, TableBatchMatch
from repro.xmltree.corpus import DocumentCorpus
from repro.xmltree.parser import parse_xml
from tests.strategies import property_max_examples, tree_patterns
from tests.test_selectivity_properties import corpora
from tests.test_topology_properties import POLICIES, churn, seeded_overlay

MODES = ("trie", "linear")


def reference_step(destinations, operations):
    """Split a broker's table-order destinations into its step: the
    union of the matched deliver groups, and the forward links in
    table order (the overlay's split before steps came from masks)."""
    return BrokerStep(
        deliveries=frozenset(
            chain.from_iterable(
                [members for kind, members in destinations if kind == DELIVER]
            )
        ),
        forwards=tuple(
            [link for kind, link in destinations if kind == FORWARD]
        ),
        match_operations=operations,
    )


def arrivals(overlay, broker_id):
    """Every way a document can reach *broker_id*: published there, or
    forwarded over each of its links."""
    return [None, *overlay.brokers[broker_id].neighbors]


def excluded(origin):
    return () if origin is None else ((FORWARD, origin),)


def assert_steps_match_reference(overlay, documents):
    for broker_id in sorted(overlay.brokers):
        table = overlay.brokers[broker_id].table
        origins = arrivals(overlay, broker_id)
        for document in documents:
            for origin in origins:
                for mode in MODES:
                    match = table.destinations_for(
                        document, exclude=excluded(origin), matching=mode
                    )
                    expected = reference_step(
                        match.destinations, match.operations
                    )
                    assert match.split() == (
                        expected.deliveries,
                        expected.forwards,
                    ), (broker_id, origin, mode)
                    if mode == "trie":
                        step = overlay.process_at(broker_id, document, origin)
                        assert step == expected, (broker_id, origin)
            batch = overlay.process_batch_at(
                broker_id, [document] * len(origins), origins
            )
            trie_steps = [
                reference_step(match.destinations, match.operations)
                for match in (
                    table.destinations_for(document, exclude=excluded(origin))
                    for origin in origins
                )
            ]
            # A batch attributes repeated work to its first document, so
            # only the decoded halves are compared per document.
            assert [(s.deliveries, s.forwards) for s in batch] == [
                (s.deliveries, s.forwards) for s in trie_steps
            ]


def pending_matches(overlay, document):
    """One undecoded match per broker and mode, with the rank list it was
    computed under."""
    return [
        (
            node.table,
            node.table._trie.ranked_destinations(),
            node.table.destinations_for(document, matching=mode),
        )
        for node in overlay.brokers.values()
        for mode in MODES
    ]


def assert_stale_matches_refuse(pending):
    for table, ranked, match in pending:
        if table._trie.ranked_destinations() != ranked:
            with pytest.raises(ValueError):
                match.split()
            with pytest.raises(ValueError):
                _ = match.destinations


class TestDeliveryViewEqualsReferenceSplit:
    @settings(max_examples=property_max_examples(15), deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=5),
        st.sampled_from(["chain", "star", "random_tree"]),
        st.integers(min_value=1, max_value=5),
        st.sampled_from([name for name, _ in POLICIES]),
        st.data(),
    )
    def test_every_event_decodes_like_the_reference(
        self, docs, patterns, topology, n_brokers, policy_name, data
    ):
        corpus = DocumentCorpus(docs)
        policy = dict(POLICIES)[policy_name]()
        provider = corpus if policy.uses_similarity else None
        overlay = seeded_overlay(
            topology, n_brokers, patterns, policy, provider, data
        )
        assert_steps_match_reference(overlay, corpus.documents)
        pending = pending_matches(overlay, corpus.documents[0])
        for _ in churn(overlay, patterns, data, max_ops=12):
            assert_stale_matches_refuse(pending)
            assert_steps_match_reference(overlay, corpus.documents)
            pending = pending_matches(overlay, corpus.documents[0])


class TestRankChanges:
    def test_compaction_moves_the_epoch_and_steps_survive_it(self):
        # One broker, per-subscription deliver groups: every retired
        # subscription retires its rank, and once retired ranks
        # outnumber live ones the trie renumbers the rest.
        overlay = BrokerOverlay(1, [])
        keep = overlay.attach(0, parse_xpath("/a"))
        victims = [overlay.attach(0, parse_xpath("/a/b")) for _ in range(3)]
        overlay.advertise(PerSubscriptionPolicy())
        document = parse_xml("<a><b/></a>")
        table = overlay.brokers[0].table
        allocated = len(table._trie.ranked_destinations())
        compacted = False
        for victim in victims:
            before = table.destinations_for(document)
            overlay.unsubscribe(victim)
            with pytest.raises(ValueError):
                before.split()
            ranked = table._trie.ranked_destinations()
            compacted |= len(ranked) < allocated
            allocated = len(ranked)
            match = table.destinations_for(document)
            expected = reference_step(match.destinations, match.operations)
            assert overlay.process_at(0, document) == expected
        assert compacted
        assert overlay.process_at(0, document).deliveries == {keep}

    def test_forwards_keep_table_order_across_a_rename(self):
        # The hub ranks its links as their advertisements arrive; the
        # split of 0—1 renames link 1 to the newcomer, which ranks last.
        overlay = BrokerOverlay.star(4)
        for leaf in (1, 2, 3):
            overlay.attach(leaf, parse_xpath("/a"))
        overlay.advertise(PerSubscriptionPolicy())
        joined = overlay.add_broker(0, split=1)
        document = parse_xml("<a/>")
        match = overlay.brokers[0].table.destinations_for(document)
        expected = reference_step(match.destinations, match.operations)
        assert expected.forwards == (2, 3, joined)
        assert overlay.process_at(0, document) == expected

    def test_decoded_list_outlives_the_epoch(self):
        overlay = BrokerOverlay(1, [])
        overlay.attach(0, parse_xpath("/a"))
        victim = overlay.attach(0, parse_xpath("/a"))
        overlay.advertise(PerSubscriptionPolicy())
        table = overlay.brokers[0].table
        match = table.destinations_for(parse_xml("<a/>"))
        decoded = match.destinations
        overlay.unsubscribe(victim)
        # Read before the change: the cached list stays as it was.
        assert match.destinations is decoded
        with pytest.raises(ValueError):
            match.split()

    def test_batch_built_outside_a_table_does_not_decode(self):
        batch = TableBatchMatch([0b1], [1])
        with pytest.raises(ValueError):
            _ = batch.destinations
        with pytest.raises(ValueError):
            batch.splits()
