"""Property suite for the dynamic broker topology (the PR's headline).

Hypothesis generates interleavings of ``add_broker`` / ``remove_broker``
/ ``subscribe`` / ``unsubscribe`` over random workloads and all three
advertisement policies, and asserts the three guarantees that make
topology churn safe:

* **rebuild equality** — after every operation, each broker's routing
  table equals one of a from-scratch rebuild of the final topology over
  the surviving subscriptions (broker and subscriber ids relabelled by
  rank, since the lived-in overlay mints fresh ids), and each broker's
  advertised record lists its subscriptions in home order;
* **member upkeep** — before the first operation of a churn run and
  after every one, each table's per-entry deliver members equal the
  members of that pattern's active deliver destinations, recomputed
  from the table's entry lists (:func:`assert_member_sets`, which every
  suite driving :func:`churn` runs);
* **flat matching** — routed delivery equals flat evaluation of the
  per-broker aggregation state: multi-hop forwarding with covering
  loses nothing and invents nothing;
* **sync ≡ engine** — the discrete-event engine delivers exactly the
  synchronous walk's subscriber sets over the churned topology, and
  per-subscription delivery survives broker leaves scheduled
  *mid-simulation* (in-flight documents are re-routed, not lost).
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pattern_parser import parse_xpath
from repro.routing.engine import DeliveryEngine, LinkModel, ServiceModel
from repro.routing.overlay import BrokerId, BrokerOverlay, SubscriptionId
from repro.routing.policy import (
    CommunityPolicy,
    HybridPolicy,
    PerSubscriptionPolicy,
)
from repro.routing.table import DELIVER
from repro.xmltree.corpus import DocumentCorpus
from tests.strategies import property_max_examples, tree_patterns
from tests.test_selectivity_properties import corpora

POLICIES = (
    ("per_subscription", lambda: PerSubscriptionPolicy()),
    ("community", lambda: CommunityPolicy(0.5)),
    ("hybrid", lambda: HybridPolicy(0.5, aggregate_above=2)),
)


def relabeled_signature(overlay):
    """Rank-relabelled routing state (the library's own comparator)."""
    return overlay.topology_signature()


def rebuild(overlay, policy, provider):
    """A fresh overlay over *overlay*'s final topology and membership.

    Delegates to :meth:`BrokerOverlay.rebuilt` with the policy made
    explicit, so a drifting ``overlay.policy`` attribute could not mask
    a divergence from the policy the test advertised with.
    """
    return overlay.rebuilt(policy, provider)


def flat_delivered(overlay, corpus, document):
    """Delivery by flat evaluation of every broker's aggregation state."""
    delivered = set()
    for node in overlay.brokers.values():
        for advertised, members in node.communities:
            if document.doc_id in corpus.match_set(advertised):
                delivered.update(members)
    return delivered


def assert_advertised_records(overlay):
    """Each broker lists its subscribers in ascending id order, and its
    advertised record lists its advertised subscribers in that order,
    each with its pattern.  Every subscription of this suite is
    advertised: seeded before the bulk advertisement, or subscribed
    under the live policy."""
    for broker_id, node in overlay.brokers.items():
        assert node.local_subscribers == sorted(node.local_subscribers), broker_id
        assert list(node.advertised) == node.local_subscribers, broker_id
        for subscription_id, pattern in node.advertised.items():
            assert pattern == overlay.subscriptions[subscription_id][1]


def assert_member_sets(overlay):
    """Each table keeps, in every trie entry, the members of that
    pattern's active ``(DELIVER, members)`` destinations, each counted
    once per destination naming it — recomputed here from the table's
    per-destination entry lists."""
    for broker_id, node in overlay.brokers.items():
        table = node.table
        expected = {}
        for destination, patterns in table._by_destination.items():
            kind, members = destination
            if kind == DELIVER:
                for pattern in patterns:
                    expected.setdefault(pattern, Counter()).update(members)
        # A tuple lists each member once per naming destination; a dict
        # maps each member to that count.
        kept = {
            pattern: Counter(entry.members)
            for pattern, entry in table._trie._entries.items()
            if entry.members is not None
        }
        assert kept == {p: c for p, c in expected.items() if c}, broker_id


def churn(overlay, patterns, data, max_ops=6):
    """Drive one random interleaving of the four lifecycle operations.

    Yields after every operation so callers can assert invariants at
    each step, not just at the end; the tables' deliver members are
    audited (:func:`assert_member_sets`) before the first operation and
    after every one.
    """
    assert_member_sets(overlay)
    live = list(overlay.subscriptions)
    for step in range(data.draw(st.integers(1, max_ops), label="ops")):
        choices = ["subscribe", "join"]
        if live:
            choices.append("unsubscribe")
        if len(overlay.brokers) > 1:
            choices.append("leave")
        op = data.draw(st.sampled_from(choices), label=f"op{step}")
        if op == "subscribe":
            home = data.draw(
                st.sampled_from(sorted(overlay.brokers)), label="home"
            )
            pattern = data.draw(st.sampled_from(patterns), label="pattern")
            live.append(overlay.subscribe(home, pattern))
        elif op == "unsubscribe":
            victim = data.draw(st.sampled_from(live), label="victim")
            live.remove(victim)
            overlay.unsubscribe(victim)
        elif op == "join":
            parent = data.draw(
                st.sampled_from(sorted(overlay.brokers)), label="parent"
            )
            split = None
            neighbors = overlay.brokers[parent].neighbors
            if neighbors and data.draw(st.booleans(), label="split?"):
                split = data.draw(st.sampled_from(neighbors), label="split")
            overlay.add_broker(parent, split=split)
        else:
            retiring = data.draw(
                st.sampled_from(sorted(overlay.brokers)), label="retiring"
            )
            merge_into = None
            if data.draw(st.booleans(), label="explicit merge?"):
                merge_into = data.draw(
                    st.sampled_from(overlay.brokers[retiring].neighbors),
                    label="merge_into",
                )
            overlay.remove_broker(retiring, merge_into=merge_into)
        assert_member_sets(overlay)
        yield op


def seeded_overlay(
    topology, n_brokers, patterns, policy, provider, data, seeds=None
):
    if seeds is None:
        seeds = data.draw(
            st.lists(st.sampled_from(patterns), max_size=4), label="seeds"
        )
    overlay = BrokerOverlay.build(topology, n_brokers, seed=3)
    for position, pattern in enumerate(seeds):
        overlay.attach(position % n_brokers, pattern)
    overlay.advertise(policy, provider)
    return overlay


class TestRebuildEquality:
    @settings(max_examples=property_max_examples(10), deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=5),
        st.sampled_from(["chain", "star", "random_tree"]),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([name for name, _ in POLICIES]),
        st.data(),
    )
    def test_every_operation_matches_fresh_rebuild(
        self, docs, patterns, topology, n_brokers, policy_name, data
    ):
        corpus = DocumentCorpus(docs)
        policy = dict(POLICIES)[policy_name]()
        provider = corpus if policy.uses_similarity else None
        overlay = seeded_overlay(
            topology, n_brokers, patterns, policy, provider, data
        )
        for op in churn(overlay, patterns, data):
            assert_advertised_records(overlay)
            fresh = rebuild(overlay, policy, provider)
            assert relabeled_signature(overlay) == relabeled_signature(
                fresh
            ), (op, policy_name)

    @settings(max_examples=property_max_examples(10), deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=5),
        st.sampled_from([name for name, _ in POLICIES]),
        st.data(),
    )
    def test_lifecycle_handles_stay_typed(
        self, docs, patterns, policy_name, data
    ):
        corpus = DocumentCorpus(docs)
        policy = dict(POLICIES)[policy_name]()
        provider = corpus if policy.uses_similarity else None
        overlay = seeded_overlay("chain", 2, patterns, policy, provider, data)
        joined = overlay.add_broker(0)
        assert isinstance(joined, BrokerId)
        subscription = overlay.subscribe(joined, patterns[0])
        assert isinstance(subscription, SubscriptionId)
        target = overlay.remove_broker(joined)
        assert isinstance(target, BrokerId)
        # The re-homed subscription is still retirable.
        assert overlay.unsubscribe(subscription) == patterns[0]


class TestTransplantRegressions:
    def test_leave_refloods_no_advertisement_into_sibling_subtrees(self):
        # Broker 0 is the hub of a star and merges into broker 3.  The
        # instance /a/a from broker 1 died at broker 3 (covered there by
        # /a), so it comes out active in broker 3's re-keyed link to 1
        # and must be flooded on.  Broker 2 already holds it through the
        # retiring hub: a flood that reached it too would leave a
        # duplicate behind, and retiring subscription 3 (/a) would then
        # withdraw only that duplicate.
        overlay = BrokerOverlay.build("star", 4, seed=3)
        for position, xpath in enumerate(("/a/a", "/a/a", "/a", "/a")):
            overlay.attach(position % 4, parse_xpath(xpath))
        overlay.advertise(PerSubscriptionPolicy())
        overlay.remove_broker(0)
        assert relabeled_signature(overlay) == relabeled_signature(
            overlay.rebuilt()
        )
        overlay.unsubscribe(SubscriptionId(3))
        assert relabeled_signature(overlay) == relabeled_signature(
            overlay.rebuilt()
        )


class TestDeliveryEquivalence:
    @settings(max_examples=property_max_examples(8), deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=5),
        st.sampled_from(["chain", "star", "random_tree"]),
        st.sampled_from([name for name, _ in POLICIES]),
        st.data(),
    )
    def test_routed_delivery_equals_flat_matching(
        self, docs, patterns, topology, policy_name, data
    ):
        corpus = DocumentCorpus(docs)
        policy = dict(POLICIES)[policy_name]()
        provider = corpus if policy.uses_similarity else None
        overlay = seeded_overlay(topology, 3, patterns, policy, provider, data)
        for _ in churn(overlay, patterns, data):
            pass
        order = sorted(overlay.brokers)
        for index, document in enumerate(corpus.documents):
            delivered, _, _ = overlay.route(
                document, order[index % len(order)]
            )
            assert delivered == flat_delivered(
                overlay, corpus, document
            ), policy_name

    @settings(max_examples=property_max_examples(8), deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=5),
        st.sampled_from([name for name, _ in POLICIES]),
        st.sampled_from([0.4, 4.0]),
        st.data(),
    )
    def test_sync_walk_equals_event_engine_after_churn(
        self, docs, patterns, policy_name, rate, data
    ):
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
        engine = DeliveryEngine(
            overlay,
            service=ServiceModel(base=0.2, per_match=0.1),
            links=LinkModel(default=0.5),
        )
        engine.publish_corpus(corpus, rate=rate)
        engine.run()
        assert engine.delivered_sets() == expected, policy_name


class TestMidSimulationChurn:
    @settings(max_examples=property_max_examples(8), deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=5),
        st.sampled_from([0.5, 3.0]),
        st.data(),
    )
    def test_leave_mid_stream_never_loses_deliveries(
        self, docs, patterns, rate, data
    ):
        # Per-subscription advertisement: delivery is exact matching, so
        # the delivered sets must survive a broker retiring while its
        # documents are queued, in service, or on the wire.
        corpus = DocumentCorpus(docs)
        overlay = BrokerOverlay.build("random_tree", 4, seed=9)
        homes = [
            data.draw(st.integers(0, 3), label="home") for _ in patterns
        ]
        subscriptions = [
            overlay.attach(home, pattern)
            for home, pattern in zip(homes, patterns, strict=True)
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
        engine = DeliveryEngine(
            overlay,
            service=ServiceModel(base=0.4, per_match=0.1),
            links=LinkModel(default=1.0),
        )
        engine.publish_corpus(corpus, rate=rate)
        retiring = data.draw(st.integers(0, 3), label="retiring")
        when = data.draw(
            st.sampled_from([0.3, 1.1, 2.7]), label="leave time"
        )
        engine.schedule_leave(when, retiring)
        engine.run()
        assert engine.delivered_sets() == wanted
        assert engine.topology_log[0][1].action == "leave"

    @settings(max_examples=property_max_examples(6), deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=4),
        st.sampled_from([name for name, _ in POLICIES]),
        st.data(),
    )
    def test_pre_stream_topology_events_equal_pre_churned_overlay(
        self, docs, patterns, policy_name, data
    ):
        # Topology events that fire before the first publish must leave
        # the engine equivalent to one built over the already-churned
        # overlay — for every policy.
        corpus = DocumentCorpus(docs)
        policy = dict(POLICIES)[policy_name]()
        provider = corpus if policy.uses_similarity else None

        seeds = data.draw(
            st.lists(st.sampled_from(patterns), max_size=4), label="seeds"
        )
        churned = seeded_overlay(
            "chain", 3, patterns, policy, provider, data, seeds=seeds
        )
        retiring = data.draw(st.sampled_from([0, 1, 2]), label="retiring")
        churned.add_broker(retiring)
        churned.remove_broker(retiring)
        order = sorted(churned.brokers)
        expected = {
            index: frozenset(
                churned.route(document, order[index % len(order)])[0]
            )
            for index, document in enumerate(corpus.documents)
        }

        # Same seeds, same churn — but applied as engine events at t=0.
        staged = seeded_overlay(
            "chain", 3, patterns, policy, provider, data, seeds=seeds
        )
        engine = DeliveryEngine(staged)
        engine.schedule_join(0.0, retiring)
        engine.schedule_leave(0.0, retiring)
        engine.publish_corpus(corpus, rate=2.0, start=0.5)
        engine.run()
        assert engine.delivered_sets() == expected, policy_name
