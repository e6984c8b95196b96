"""Property suite for broker steps: table matches against the reference.

A broker step is its table's match, set when the match is made: the
member ids the accepted trie entries name, united, and the link of each
forward destination some accepted entry holds, in table order.  This
suite pins both halves against :func:`reference_step`, the step read
off the match's table-order destination list: the union of the matched
deliver groups and the forward links in list order, compared as
``(deliveries, forwards, operations)`` tuples.

Hypothesis interleaves subscribe / unsubscribe with broker joins and
leaves under all three advertisement policies (a corpus as the
selectivity provider), on chains, stars and random trees, and on a star
whose hub links to seven leaves that subscribe in a drawn order, so one
visit tests many links, in a table order their ids do not give.  After
every event, for every document and every arrival link of every broker,
in trie and in linear mode:

* the match's ``deliveries`` and ``forwards`` equal the reference step
  of its ``destinations``, the trie-mode list equals the linear-mode
  list, and the overlay's ``process_at`` / ``process_batch_at`` steps
  and the steps of ``destinations_for_batch`` equal the reference
  steps;
* a step taken before the event — by ``process_at``, by
  ``process_batch_at`` and by ``destinations_for_batch`` — is unchanged
  after it, and so are the two halves of a match made before it;
* a trie match made before the event refuses to decode its
  ``destinations`` (``ValueError``) once the event changed the table,
  and decodes as a fresh match does when the event left it alone.

A step holds the member collections of what it matched and unites them
only when read, so :class:`TestStepsOutliveChanges` reads steps for the
first time after the changes that touch those collections: an
unsubscribe from a pattern two subscribers share, a new subscription to
it, a broker leave that re-homes a third, and a leave in the middle of
an engine batch's service.
"""

from __future__ import annotations

from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pattern_parser import parse_xpath
from repro.routing.engine import BatchServiceModel, DeliveryEngine, LinkModel
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import PerSubscriptionPolicy
from repro.routing.table import DELIVER, FORWARD, TableMatch
from repro.xmltree.corpus import DocumentCorpus
from repro.xmltree.parser import parse_xml
from tests.strategies import property_max_examples, tree_patterns
from tests.test_selectivity_properties import corpora
from tests.test_topology_properties import POLICIES, churn, seeded_overlay

MODES = ("trie", "linear")

#: Leaves of the wide star, each homing subscriptions.
WIDE_LEAVES = 7


def reference_step(destinations, operations):
    """Split a broker's table-order destinations into its step, as
    ``(deliveries, forwards, operations)``: the union of the matched
    deliver groups, and the forward links in table order."""
    return (
        frozenset(
            chain.from_iterable(
                [members for kind, members in destinations if kind == DELIVER]
            )
        ),
        tuple([link for kind, link in destinations if kind == FORWARD]),
        operations,
    )


def arrivals(overlay, broker_id):
    """Every way a document can reach *broker_id*: published there, or
    forwarded over each of its links."""
    return [None, *overlay.brokers[broker_id].neighbors]


def excluded(origin):
    return () if origin is None else ((FORWARD, origin),)


def halves(step):
    return step.deliveries, step.forwards


def fields(step):
    """*step* as ``(deliveries, forwards, operations)``, the shape of
    :func:`reference_step`."""
    return step.deliveries, step.forwards, step.operations


def assert_steps_match_reference(overlay, documents):
    for broker_id in sorted(overlay.brokers):
        table = overlay.brokers[broker_id].table
        origins = arrivals(overlay, broker_id)
        for document in documents:
            for origin in origins:
                lists = []
                for mode in MODES:
                    match = table.destinations_for(
                        document, exclude=excluded(origin), matching=mode
                    )
                    expected = reference_step(
                        match.destinations, match.operations
                    )
                    assert halves(match) == expected[:2], (
                        broker_id,
                        origin,
                        mode,
                    )
                    lists.append(match.destinations)
                    if mode == "trie":
                        step = overlay.process_at(broker_id, document, origin)
                        assert fields(step) == expected, (broker_id, origin)
                assert lists[0] == lists[1], (broker_id, origin)
            excludes = [excluded(origin) for origin in origins]
            for mode in MODES:
                batch = table.destinations_for_batch(
                    [document] * len(origins), excludes, matching=mode
                )
                singles = [
                    table.destinations_for(document, exclude=skip, matching=mode)
                    for skip in excludes
                ]
                assert [m.destinations for m in batch.steps] == [
                    m.destinations for m in singles
                ]
                # A batch attributes repeated work to its first document,
                # so only the step halves are compared per document.
                assert [halves(m) for m in batch.steps] == [
                    reference_step(m.destinations, m.operations)[:2]
                    for m in singles
                ], (broker_id, mode)
            steps = overlay.process_batch_at(
                broker_id, [document] * len(origins), origins
            )
            assert [halves(step) for step in steps] == [
                halves(overlay.process_at(broker_id, document, origin))
                for origin in origins
            ], broker_id


def pending_steps(overlay, document):
    """Per broker, arrival link and mode, before an event: a match whose
    ``destinations`` is left unread, a ``process_at`` and a
    ``process_batch_at`` step (trie mode), a one-document
    ``destinations_for_batch``, the reference step of a second match,
    and what the table holds.  None of the steps is read yet."""
    pending = []
    for broker_id in sorted(overlay.brokers):
        table = overlay.brokers[broker_id].table
        for origin in arrivals(overlay, broker_id):
            for mode in MODES:
                probe = table.destinations_for(
                    document, exclude=excluded(origin), matching=mode
                )
                expected = reference_step(probe.destinations, probe.operations)
                steps = (
                    (
                        overlay.process_at(broker_id, document, origin),
                        overlay.process_batch_at(broker_id, [document], [origin])[0],
                    )
                    if mode == "trie"
                    else ()
                )
                batch = table.destinations_for_batch(
                    [document], [excluded(origin)], matching=mode
                )
                match = table.destinations_for(
                    document, exclude=excluded(origin), matching=mode
                )
                pending.append(
                    (
                        table,
                        list(table),
                        table._version,
                        (document, origin, mode),
                        match,
                        steps,
                        batch,
                        expected,
                        probe.destinations,
                    )
                )
    return pending


def assert_pending_steps(pending):
    for (
        table,
        entries,
        version,
        (document, origin, mode),
        match,
        steps,
        batch,
        expected,
        listed,
    ) in pending:
        # Set when they were made: the event cannot move them.
        assert halves(match) == expected[:2]
        for step in steps:
            assert fields(step) == expected
        assert halves(batch.steps[0]) == expected[:2]
        if mode == "linear":
            # The scan found its list when it matched.
            assert match.destinations == listed
        elif list(table) != entries or table._version != version:
            with pytest.raises(ValueError):
                _ = match.destinations
        else:
            fresh = table.destinations_for(
                document, exclude=excluded(origin), matching=mode
            )
            assert match.destinations == fresh.destinations == listed


def run_churn(overlay, patterns, documents, data):
    assert_steps_match_reference(overlay, documents)
    pending = pending_steps(overlay, documents[0])
    for _ in churn(overlay, patterns, data, max_ops=12):
        assert_pending_steps(pending)
        assert_steps_match_reference(overlay, documents)
        pending = pending_steps(overlay, documents[0])


def united(step):
    """*step* with its deliveries united now, as its one member
    collection."""
    return TableMatch(
        (step.deliveries,), step.forwards, step.operations, lambda: step.destinations
    )


class TestBrokerSteps:
    @settings(max_examples=property_max_examples(15), deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=5),
        st.sampled_from(["chain", "star", "random_tree"]),
        st.integers(min_value=1, max_value=5),
        st.sampled_from([name for name, _ in POLICIES]),
        st.data(),
    )
    def test_every_event_steps_like_the_reference(
        self, docs, patterns, topology, n_brokers, policy_name, data
    ):
        corpus = DocumentCorpus(docs)
        policy = dict(POLICIES)[policy_name]()
        provider = corpus if policy.uses_similarity else None
        overlay = seeded_overlay(
            topology, n_brokers, patterns, policy, provider, data
        )
        run_churn(overlay, patterns, corpus.documents, data)

    @settings(max_examples=property_max_examples(8), deadline=None)
    @given(
        corpora(max_docs=4),
        st.lists(tree_patterns(), min_size=1, max_size=4),
        st.sampled_from([name for name, _ in POLICIES]),
        st.data(),
    )
    def test_a_wide_star_steps_like_the_reference(
        self, docs, patterns, policy_name, data
    ):
        corpus = DocumentCorpus(docs)
        policy = dict(POLICIES)[policy_name]()
        provider = corpus if policy.uses_similarity else None
        # Broker 0 is the hub.  Each leaf then subscribes, in a drawn
        # order, so the hub's links enter its table in that order.
        overlay = seeded_overlay(
            "star",
            WIDE_LEAVES + 1,
            patterns,
            policy,
            provider,
            data,
            seeds=[patterns[0]],
        )
        assert len(overlay.brokers[0].neighbors) == WIDE_LEAVES
        leaves = data.draw(
            st.permutations(range(1, WIDE_LEAVES + 1)), label="leaf order"
        )
        for leaf in leaves:
            pattern = data.draw(st.sampled_from(patterns), label=f"leaf{leaf}")
            overlay.subscribe(leaf, pattern)
        run_churn(overlay, patterns, corpus.documents, data)


class TestTableChanges:
    def test_forwards_keep_table_order_across_a_rename(self):
        # The hub's links enter its table as their advertisements
        # arrive; the split of 0—1 renames link 1 to the newcomer, which
        # goes last.
        overlay = BrokerOverlay.star(4)
        for leaf in (1, 2, 3):
            overlay.attach(leaf, parse_xpath("/a"))
        overlay.advertise(PerSubscriptionPolicy())
        joined = overlay.add_broker(0, split=1)
        document = parse_xml("<a/>")
        match = overlay.brokers[0].table.destinations_for(document)
        expected = reference_step(match.destinations, match.operations)
        assert expected[1] == (2, 3, joined)
        assert fields(overlay.process_at(0, document)) == expected

    def test_forwards_follow_table_order_not_link_ids(self):
        # Link 1's first advertisement reaches the hub after links 2
        # and 3 hold entries, so it sorts last.
        overlay = BrokerOverlay.star(4)
        for leaf in (2, 3):
            overlay.attach(leaf, parse_xpath("/a"))
        overlay.advertise(PerSubscriptionPolicy())
        overlay.subscribe(1, parse_xpath("/a"))
        document = parse_xml("<a/>")
        match = overlay.brokers[0].table.destinations_for(document)
        assert match.forwards == (2, 3, 1)
        expected = reference_step(match.destinations, match.operations)
        assert fields(overlay.process_at(0, document)) == expected

    def test_a_list_read_before_a_change_outlives_it(self):
        overlay = BrokerOverlay(1, [])
        keep = overlay.attach(0, parse_xpath("/a"))
        victim = overlay.attach(0, parse_xpath("/a"))
        overlay.advertise(PerSubscriptionPolicy())
        table = overlay.brokers[0].table
        document = parse_xml("<a/>")
        match = table.destinations_for(document)
        unread = table.destinations_for(document)
        decoded = match.destinations
        overlay.unsubscribe(victim)
        # Read before the change: the cached list stays as it was.
        assert match.destinations is decoded
        with pytest.raises(ValueError):
            _ = unread.destinations
        assert unread.deliveries == match.deliveries == {keep, victim}


#: Two subscribers at broker 1 share this pattern, so the table keeps
#: its trie entry's members as a member -> count dict.
SHARED = parse_xpath("/a")


class TestStepsOutliveChanges:
    """Steps made before a change to the member collections they hold,
    and first read after it."""

    DOCUMENT = parse_xml("<a><b/></a>")

    @staticmethod
    def deployment():
        """A chain 0 — 1 — 2: two subscribers of :data:`SHARED` and one
        of ``//b`` at broker 1, one of :data:`SHARED` at broker 2."""
        overlay = BrokerOverlay.chain(3)
        shared = [overlay.attach(1, SHARED), overlay.attach(1, SHARED)]
        other = [overlay.attach(1, parse_xpath("//b")), overlay.attach(2, SHARED)]
        overlay.advertise(PerSubscriptionPolicy())
        return overlay, shared, other

    def unread_steps(self, overlay):
        """At broker 1: a ``process_at`` step, a ``process_batch_at``
        step and a ``destinations_for_batch`` match, none read yet."""
        return (
            overlay.process_at(1, self.DOCUMENT),
            overlay.process_batch_at(1, [self.DOCUMENT])[0],
            overlay.brokers[1].table.destinations_for_batch([self.DOCUMENT]),
        )

    def delivered(self, overlay):
        return overlay.process_at(1, self.DOCUMENT).deliveries

    def assert_kept(self, steps, deliveries):
        step, batched, batch = steps
        assert step.deliveries == batched.deliveries == deliveries
        assert [m.deliveries for m in batch.steps] == [deliveries]

    def test_steps_keep_their_deliveries_across_member_changes(self):
        overlay, (first, second), (third, fourth) = self.deployment()
        before = self.delivered(overlay)
        assert before == {first, second, third}

        steps = self.unread_steps(overlay)
        overlay.unsubscribe(first)
        self.assert_kept(steps, before)
        before = self.delivered(overlay)
        assert before == {second, third}

        steps = self.unread_steps(overlay)
        fifth = overlay.subscribe(1, SHARED)
        self.assert_kept(steps, before)
        before = self.delivered(overlay)
        assert before == {second, third, fifth}

        # Broker 2 leaves into broker 1, which takes its subscriber of
        # the shared pattern over.
        steps = self.unread_steps(overlay)
        overlay.remove_broker(2, merge_into=1)
        self.assert_kept(steps, before)
        assert self.delivered(overlay) == {second, third, fourth, fifth}

    def test_a_leave_during_a_batch_delivers_as_eager_steps_do(self):
        """Broker 2 leaves into broker 1 while broker 1 services the
        document.  Broker 1's step was made before the leave, so it
        delivers to its two subscribers and forwards to broker 2's
        merge target, itself, where the second visit reaches the
        subscriber it took over — as in an engine whose steps unite
        their deliveries when they are made."""

        def run(eager):
            overlay, shared, other = self.deployment()
            if eager:
                batch_at = overlay.process_batch_at

                def process_batch_at(broker_id, documents, arrived_from=None):
                    return [
                        united(step)
                        for step in batch_at(broker_id, documents, arrived_from)
                    ]

                overlay.process_batch_at = process_batch_at
            engine = DeliveryEngine(
                overlay,
                service=BatchServiceModel(base=5.0, max_batch=4),
                links=LinkModel(default=1.0),
            )
            engine.publish(self.DOCUMENT, at_broker=1, time=0.0)
            engine.schedule_leave(1.0, 2, merge_into=1)
            stats = engine.run()
            return engine.delivered_sets(), stats, sorted(shared + other)

        delivered, stats, subscribers = run(eager=False)
        assert delivered == {0: frozenset(subscribers)}
        assert (delivered, stats) == run(eager=True)[:2]
