"""Multi-broker overlay routing over the Figure 2 corpus."""

from dataclasses import dataclass

import pytest

from repro.core.pattern_parser import parse_xpath
from repro.routing.overlay import TOPOLOGIES, BrokerOverlay, SubscriptionId
from repro.routing.policy import CommunityPolicy, PerSubscriptionPolicy
from repro.xmltree.corpus import DocumentCorpus


@pytest.fixture()
def corpus(figure2_documents):
    return DocumentCorpus(figure2_documents)


@pytest.fixture()
def subscriptions():
    return [
        parse_xpath("/a/b"),
        parse_xpath("/a/b/e"),
        parse_xpath("/a/b/e/k"),
        parse_xpath("/a/d"),
        parse_xpath("/a/d/e/m"),
        parse_xpath("/a"),
    ]


def build_overlay(topology, subscriptions, n_brokers=3):
    overlay = BrokerOverlay.build(topology, n_brokers, seed=7)
    overlay.attach_round_robin(subscriptions)
    return overlay


def table_signature(overlay):
    """Per-broker routing state, comparable across id histories.

    Forward entries are kept verbatim; deliver payload subscriber ids are
    renumbered by survivor rank, so an overlay that lived through churn
    compares equal to one freshly built from the surviving subscriptions.
    """
    rank = {
        subscriber_id: position
        for position, subscriber_id in enumerate(sorted(overlay.subscriptions))
    }
    signature = {}
    for broker_id, node in overlay.brokers.items():
        entries = set()
        for entry in node.table:
            kind, payload = entry.destination
            if kind == "deliver":
                # Departed subscribers (stale tables) map to unique
                # negative ranks so they never collide with survivors.
                payload = tuple(
                    sorted(rank.get(member, -1 - member) for member in payload)
                )
            entries.add((entry.pattern, kind, payload))
        signature[broker_id] = frozenset(entries)
    return signature


def rebuild_from_survivors(overlay, topology, n_brokers=3, community=None):
    """A fresh overlay advertised from *overlay*'s surviving subscriptions
    alone (same homes, same order)."""
    fresh = BrokerOverlay.build(topology, n_brokers, seed=7)
    for home_id, pattern in overlay.subscriptions.values():
        fresh.attach(home_id, pattern)
    if community is None:
        fresh.advertise(PerSubscriptionPolicy())
    else:
        provider, threshold = community
        fresh.advertise(CommunityPolicy(threshold), provider)
    return fresh


class TestTopologies:
    def test_chain_degrees(self):
        overlay = BrokerOverlay.chain(4)
        degrees = sorted(node.degree() for node in overlay.brokers.values())
        assert degrees == [1, 1, 2, 2]

    def test_star_hub(self):
        overlay = BrokerOverlay.star(5)
        assert overlay.brokers[0].degree() == 4
        assert all(overlay.brokers[i].degree() == 1 for i in range(1, 5))

    def test_random_tree_is_connected_tree(self):
        overlay = BrokerOverlay.random_tree(12, seed=3)
        total_degree = sum(node.degree() for node in overlay.brokers.values())
        assert total_degree == 2 * 11  # n-1 edges

    def test_random_tree_seed_determinism(self):
        a = BrokerOverlay.random_tree(10, seed=5)
        b = BrokerOverlay.random_tree(10, seed=5)
        assert [n.neighbors for n in a.brokers.values()] == [
            n.neighbors for n in b.brokers.values()
        ]

    def test_single_broker(self):
        overlay = BrokerOverlay.chain(1)
        assert len(overlay.brokers) == 1

    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            BrokerOverlay.build("hypercube", 4)

    def test_rejects_non_tree_edge_count(self):
        with pytest.raises(ValueError):
            BrokerOverlay(3, [(0, 1)])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            BrokerOverlay(4, [(0, 1), (0, 1), (2, 3)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            BrokerOverlay(2, [(0, 0)])


class TestSubscriptions:
    def test_attach_assigns_sequential_ids(self, subscriptions):
        overlay = BrokerOverlay.chain(2)
        ids = [overlay.attach(0, p) for p in subscriptions]
        assert ids == list(range(len(subscriptions)))

    def test_attach_homes_on_the_named_broker(self, subscriptions):
        overlay = BrokerOverlay(3, [(0, 1), (1, 2)])
        overlay.attach(2, subscriptions[0])
        overlay.attach(0, subscriptions[1])
        assert overlay.brokers[2].local_subscribers == [0]
        assert overlay.brokers[0].local_subscribers == [1]

    def test_attach_unknown_broker(self, subscriptions):
        overlay = BrokerOverlay.chain(2)
        with pytest.raises(ValueError):
            overlay.attach(9, subscriptions[0])

    def test_round_robin_spreads_evenly(self, subscriptions):
        overlay = build_overlay("chain", subscriptions)
        sizes = [
            len(node.local_subscribers) for node in overlay.brokers.values()
        ]
        assert sizes == [2, 2, 2]

    def test_route_without_advertisement_raises(self, corpus, subscriptions):
        overlay = build_overlay("chain", subscriptions)
        with pytest.raises(ValueError):
            overlay.route_corpus(corpus)


class TestPerSubscriptionRouting:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_exact_delivery_everywhere(self, corpus, subscriptions, topology):
        overlay = build_overlay(topology, subscriptions)
        overlay.advertise(PerSubscriptionPolicy())
        stats = overlay.route_corpus(corpus)
        assert stats.precision == 1.0
        assert stats.recall == 1.0
        assert stats.mode == "per_subscription"

    @pytest.mark.parametrize("publish_at", [0, 1, 2, "round_robin"])
    def test_publish_point_never_affects_delivery(
        self, corpus, subscriptions, publish_at
    ):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(PerSubscriptionPolicy())
        stats = overlay.route_corpus(corpus, publish_at=publish_at)
        assert stats.precision == 1.0
        assert stats.recall == 1.0

    def test_covering_prunes_advertisements(self):
        # Ten identical subscriptions at the end of a long chain: the first
        # advertisement installs state everywhere, the rest die at the
        # first hop, so ads stay far below the no-covering flood.
        overlay = BrokerOverlay.chain(6)
        for _ in range(10):
            overlay.attach(5, parse_xpath("/a/b"))
        overlay.advertise(PerSubscriptionPolicy())
        no_covering_flood = 10 * 5
        assert overlay.advertisement_messages == 5 + 9
        assert overlay.advertisement_messages < no_covering_flood
        # Forward state: one entry per chain link.
        stats_tables = [
            len(overlay.brokers[i].table) for i in range(6)
        ]
        assert stats_tables == [1, 1, 1, 1, 1, 10]

    def test_general_subscription_covers_narrow_ones(self, corpus):
        overlay = BrokerOverlay.chain(3)
        overlay.attach(2, parse_xpath("/a"))
        overlay.attach(2, parse_xpath("/a/b"))
        overlay.advertise(PerSubscriptionPolicy())
        # Brokers 0 and 1 only need the maximal pattern /a per link.
        assert len(overlay.brokers[0].table) == 1
        assert len(overlay.brokers[1].table) == 1
        stats = overlay.route_corpus(corpus)
        assert stats.recall == 1.0
        assert stats.precision == 1.0


class TestProcessAt:
    """The broker-local step shared by route() and the event engine."""

    def test_step_reports_deliveries_forwards_and_cost(
        self, figure2_documents, subscriptions
    ):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(PerSubscriptionPolicy())
        document = figure2_documents[0]
        step = overlay.process_at(1, document)
        assert step.operations > 0
        assert all(isinstance(s, int) for s in step.deliveries)
        assert set(step.forwards) <= set(overlay.brokers[1].neighbors)

    def test_arrival_link_is_never_forwarded_back(
        self, figure2_documents, subscriptions
    ):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(PerSubscriptionPolicy())
        document = figure2_documents[0]
        step = overlay.process_at(1, document, arrived_from=0)
        assert 0 not in step.forwards

    def test_stepwise_walk_reproduces_route(
        self, figure2_documents, subscriptions
    ):
        overlay = build_overlay("random_tree", subscriptions)
        overlay.advertise(PerSubscriptionPolicy())
        for document in figure2_documents:
            delivered, operations, forwards = overlay.route(document, 0)
            seen = set()
            total_operations = 0
            total_forwards = 0
            frontier = [(0, None)]
            while frontier:
                broker_id, origin = frontier.pop()
                step = overlay.process_at(broker_id, document, origin)
                seen |= step.deliveries
                total_operations += step.operations
                total_forwards += len(step.forwards)
                frontier.extend(
                    (neighbor, broker_id) for neighbor in step.forwards
                )
            assert seen == delivered
            assert total_operations == sum(operations.values())
            assert total_forwards == forwards

    def test_unknown_broker_rejected(self, figure2_documents, subscriptions):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(PerSubscriptionPolicy())
        with pytest.raises(ValueError):
            overlay.process_at(9, figure2_documents[0])


class TestCommunityRouting:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_aggregation_shrinks_state_keeps_recall(
        self, corpus, subscriptions, topology
    ):
        overlay = build_overlay(topology, subscriptions)
        overlay.advertise(PerSubscriptionPolicy())
        baseline = overlay.route_corpus(corpus)
        overlay.advertise(CommunityPolicy(0.5), corpus)
        aggregated = overlay.route_corpus(corpus)
        assert aggregated.total_table_entries <= baseline.total_table_entries
        assert aggregated.match_operations <= baseline.match_operations
        assert aggregated.recall >= 0.9

    def test_threshold_one_is_near_exact(self, corpus, subscriptions):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(CommunityPolicy(1.0), corpus)
        stats = overlay.route_corpus(corpus)
        # Equivalence-class communities deliver exactly the right documents.
        assert stats.precision == 1.0
        assert stats.recall == 1.0

    def test_communities_recorded_per_broker(self, corpus, subscriptions):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(CommunityPolicy(0.5), corpus)
        communities = [
            community
            for node in overlay.brokers.values()
            for community in node.communities
        ]
        members = sorted(
            subscriber
            for _, group in communities
            for subscriber in group
        )
        assert members == list(range(len(subscriptions)))

    def test_mode_label_carries_threshold(self, corpus, subscriptions):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(CommunityPolicy(0.7), corpus)
        assert overlay.route_corpus(corpus).mode == "community(threshold=0.7)"

    def test_cluster_threshold_feeds_ratio_prefilter(
        self, corpus, subscriptions
    ):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(CommunityPolicy(0.5), corpus)
        for node in overlay.brokers.values():
            assert node.index.prune_below == 0.5

    def test_ratio_prefilter_opt_out(self, corpus, subscriptions):
        # Estimator-backed callers can keep their provider's raw
        # clustering: no bound is installed and no pair is ratio-pruned.
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(CommunityPolicy(0.5, ratio_prefilter=False), corpus)
        overlay.route_corpus(corpus)
        for node in overlay.brokers.values():
            assert node.index.prune_below is None
            assert node.index.stats.joint_ratio_pruned == 0

    def test_ratio_prefilter_never_changes_aggregation(
        self, corpus, subscriptions
    ):
        # On an exact provider the bound is sound: each broker's clustering
        # equals one computed with the bound disabled.
        from repro.core.similarity import SimilarityIndex
        from repro.routing.community import leader_clustering

        for threshold in (0.3, 0.5, 0.7):
            overlay = build_overlay("chain", subscriptions)
            overlay.advertise(CommunityPolicy(threshold), corpus)
            for node in overlay.brokers.values():
                local = {
                    subscriber: overlay.subscriptions[subscriber][1]
                    for subscriber in node.local_subscribers
                }
                expected = leader_clustering(
                    local, SimilarityIndex(corpus), threshold
                )
                assert (
                    leader_clustering(local, node.index, threshold).communities
                    == expected.communities
                )


class TestSubscriptionLifecycle:
    def test_subscribe_returns_subscription_id(self, subscriptions):
        overlay = BrokerOverlay.chain(2)
        subscription = overlay.subscribe(0, subscriptions[0])
        assert isinstance(subscription, SubscriptionId)
        assert subscription == 0
        assert "SubscriptionId" in repr(subscription)

    def test_subscribe_before_advertisement_is_membership_only(
        self, subscriptions
    ):
        overlay = BrokerOverlay.chain(3)
        overlay.subscribe(0, subscriptions[0])
        assert all(len(n.table) == 0 for n in overlay.brokers.values())

    def test_unsubscribe_unknown_raises(self, subscriptions):
        overlay = BrokerOverlay.chain(2)
        with pytest.raises(ValueError):
            overlay.unsubscribe(7)
        subscription = overlay.subscribe(0, subscriptions[0])
        overlay.unsubscribe(subscription)
        with pytest.raises(ValueError):
            overlay.unsubscribe(subscription)

    def test_unsubscribe_refuses_a_home_list_out_of_id_order(self, subscriptions):
        # The home broker finds the id by bisection, so a list that has
        # lost its ascending order is reported instead of searched.
        overlay = BrokerOverlay.chain(2)
        ids = [overlay.subscribe(0, pattern) for pattern in subscriptions[:3]]
        overlay.brokers[0].local_subscribers.reverse()
        with pytest.raises(RuntimeError, match="ascending"):
            overlay.unsubscribe(ids[0])

    def test_unsubscribe_accepts_plain_int(self, subscriptions):
        overlay = BrokerOverlay.chain(2)
        subscription = overlay.subscribe(1, subscriptions[0])
        assert overlay.unsubscribe(int(subscription)) == subscriptions[0]
        assert len(overlay.subscriptions) == 0

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_churned_per_subscription_routing_stays_exact(
        self, corpus, subscriptions, topology
    ):
        overlay = build_overlay(topology, subscriptions[:4])
        overlay.advertise(PerSubscriptionPolicy())
        late = [overlay.subscribe(2, p) for p in subscriptions[4:]]
        stats = overlay.route_corpus(corpus)
        assert stats.subscribers == len(subscriptions)
        assert stats.precision == 1.0 and stats.recall == 1.0
        overlay.unsubscribe(late[0])
        stats = overlay.route_corpus(corpus)
        assert stats.subscribers == len(subscriptions) - 1
        assert stats.precision == 1.0 and stats.recall == 1.0

    def test_subscribe_advertises_incrementally(self, subscriptions):
        overlay = BrokerOverlay.chain(3)
        overlay.advertise(PerSubscriptionPolicy())
        before = overlay.advertisement_messages
        overlay.subscribe(0, subscriptions[0])
        # One advertisement travelled the two links of the chain.
        assert overlay.advertisement_messages == before + 2
        assert all(len(n.table) >= 1 for n in overlay.brokers.values())

    def test_unsubscribe_restores_covered_entry_downstream(self, corpus):
        # /a (broker 2) covers /a/b (broker 2) at brokers 0 and 1; when /a
        # leaves, the covered advertisement must be resurrected and
        # re-announced all the way down the chain.
        overlay = BrokerOverlay.chain(3)
        wide = overlay.attach(2, parse_xpath("/a"))
        overlay.attach(2, parse_xpath("/a/b"))
        overlay.advertise(PerSubscriptionPolicy())
        assert overlay.brokers[0].table.patterns_for(("forward", 1)) == [
            parse_xpath("/a")
        ]
        overlay.unsubscribe(wide)
        assert overlay.brokers[0].table.patterns_for(("forward", 1)) == [
            parse_xpath("/a/b")
        ]
        assert overlay.brokers[1].table.patterns_for(("forward", 2)) == [
            parse_xpath("/a/b")
        ]
        stats = overlay.route_corpus(corpus)
        assert stats.precision == 1.0 and stats.recall == 1.0

    def test_duplicate_subscription_unsubscribe_keeps_shared_state(self):
        # Ten identical subscriptions share one advertisement flood; nine
        # departures are absorbed locally, the last clears the chain.
        overlay = BrokerOverlay.chain(6)
        ids = [overlay.attach(5, parse_xpath("/a/b")) for _ in range(10)]
        overlay.advertise(PerSubscriptionPolicy())
        for subscription in ids[:9]:
            overlay.unsubscribe(subscription)
            assert [len(overlay.brokers[i].table) for i in range(5)] == [1] * 5
        overlay.unsubscribe(ids[9])
        assert all(len(n.table) == 0 for n in overlay.brokers.values())

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_unsubscribe_matches_rebuild_per_subscription(
        self, subscriptions, topology
    ):
        # The ISSUE acceptance: after unsubscribing, every broker's routing
        # table equals one built from the surviving subscriptions alone.
        overlay = build_overlay(topology, subscriptions)
        overlay.advertise(PerSubscriptionPolicy())
        for victim in (5, 1, 2):  # includes /a, which covers everything
            overlay.unsubscribe(victim)
            rebuilt = rebuild_from_survivors(overlay, topology)
            assert table_signature(overlay) == table_signature(rebuilt)

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 1.0])
    def test_unsubscribe_matches_rebuild_community(
        self, corpus, subscriptions, threshold
    ):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(CommunityPolicy(threshold), corpus)
        for victim in (0, 5, 3):
            overlay.unsubscribe(victim)
            rebuilt = rebuild_from_survivors(
                overlay, "chain", community=(corpus, threshold)
            )
            assert table_signature(overlay) == table_signature(rebuilt)

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 1.0])
    def test_subscribe_matches_rebuild_community(
        self, corpus, subscriptions, threshold
    ):
        overlay = build_overlay("chain", subscriptions[:3])
        overlay.advertise(CommunityPolicy(threshold), corpus)
        for position, pattern in enumerate(subscriptions[3:]):
            overlay.subscribe(position % 3, pattern)
            rebuilt = rebuild_from_survivors(
                overlay, "chain", community=(corpus, threshold)
            )
            assert table_signature(overlay) == table_signature(rebuilt)

    def test_community_churn_reaggregates_home_broker_only(
        self, corpus, subscriptions
    ):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(CommunityPolicy(0.5), corpus)
        others_before = {
            broker_id: list(node.communities)
            for broker_id, node in overlay.brokers.items()
            if broker_id != 1
        }
        overlay.subscribe(1, parse_xpath("/a/b/e"))
        for broker_id, communities in others_before.items():
            assert overlay.brokers[broker_id].communities == communities

    def test_community_churn_reuses_index_memo(self, corpus, subscriptions):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(CommunityPolicy(0.5), corpus)
        node = overlay.brokers[1]
        decided_before = node.index.stats.joint_evaluated
        population = len(node.local_subscribers)
        subscription = overlay.subscribe(1, parse_xpath("/a/b/e/k"))
        # The arrival decides at most its own pairs against the population.
        decided = node.index.stats.joint_evaluated - decided_before
        assert decided <= population
        # Departure decides nothing new at all.
        decided_before = node.index.stats.joint_evaluated
        overlay.unsubscribe(subscription)
        assert node.index.stats.joint_evaluated == decided_before

    def test_unsubscribe_of_unadvertised_attachment_is_membership_only(self):
        # A subscriber attached after the bulk advertisement has no
        # advertisement state; unsubscribing it must not strip the state
        # of a surviving subscriber with the same pattern.
        overlay = BrokerOverlay.chain(3)
        overlay.attach(0, parse_xpath("/a/b"))
        overlay.advertise(PerSubscriptionPolicy())
        late = overlay.attach(0, parse_xpath("/a/b"))
        overlay.unsubscribe(late)
        assert len(overlay.subscriptions) == 1
        assert overlay.brokers[1].table.patterns_for(("forward", 0)) == [
            parse_xpath("/a/b")
        ]
        assert overlay.brokers[2].table.patterns_for(("forward", 1)) == [
            parse_xpath("/a/b")
        ]

    def test_unsubscribe_of_unadvertised_attachment_community(
        self, corpus, subscriptions
    ):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(CommunityPolicy(0.5), corpus)
        before = {
            broker_id: frozenset(
                (entry.pattern, entry.destination) for entry in node.table
            )
            for broker_id, node in overlay.brokers.items()
        }
        late = overlay.attach(1, parse_xpath("/a/b"))
        overlay.unsubscribe(late)  # must not raise, must not touch tables
        assert late not in overlay.subscriptions
        after = {
            broker_id: frozenset(
                (entry.pattern, entry.destination) for entry in node.table
            )
            for broker_id, node in overlay.brokers.items()
        }
        assert after == before

    def test_member_join_costs_no_advertisement_traffic(self, corpus):
        # A subscriber joining an existing community whose advertised
        # pattern survives only swaps the home broker's deliver entry; the
        # rest of the overlay routes on the pattern, so no unadvertise /
        # re-flood traffic is spent.
        overlay = BrokerOverlay.chain(8)
        overlay.attach(0, parse_xpath("/a/b"))
        overlay.advertise(CommunityPolicy(0.0), corpus)
        before = overlay.advertisement_messages
        joined = overlay.subscribe(0, parse_xpath("/a/b/e"))
        assert overlay.advertisement_messages == before
        ((advertised, members),) = overlay.brokers[0].communities
        assert advertised == parse_xpath("/a/b") and joined in members
        overlay.unsubscribe(joined)
        assert overlay.advertisement_messages == before

    def test_unadvertised_attachment_stays_out_of_aggregation(
        self, corpus, subscriptions
    ):
        # An attach-ed (never advertised) member must not be pulled into
        # community advertisements by unrelated churn at its broker, or
        # its later unsubscribe could not withdraw it.
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(CommunityPolicy(0.5), corpus)
        silent = overlay.attach(1, parse_xpath("/a/b"))
        churner = overlay.subscribe(1, parse_xpath("/a/b/e"))  # reaggregates
        members = {
            member
            for _, group in overlay.brokers[1].communities
            for member in group
        }
        assert churner in members and silent not in members
        overlay.unsubscribe(silent)
        overlay.unsubscribe(churner)
        rebuilt = rebuild_from_survivors(
            overlay, "chain", community=(corpus, 0.5)
        )
        assert table_signature(overlay) == table_signature(rebuilt)

    def test_detach_retires_community_index_entry(self, corpus, subscriptions):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(CommunityPolicy(0.5), corpus)
        node = overlay.brokers[1]
        population_before = len(node.advertised)
        tables_before = {
            broker_id: frozenset(
                (entry.pattern, entry.destination) for entry in n.table
            )
            for broker_id, n in overlay.brokers.items()
        }
        victim = node.local_subscribers[0]
        overlay.detach(victim)
        # Broker-internal state shrinks; routing tables stay (stale).
        assert len(node.advertised) == population_before - 1
        assert victim not in node.advertised
        assert {
            broker_id: frozenset(
                (entry.pattern, entry.destination) for entry in n.table
            )
            for broker_id, n in overlay.brokers.items()
        } == tables_before

    def test_detach_leaves_tables_stale(self, corpus, subscriptions):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(PerSubscriptionPolicy())
        entries_before = table_signature(overlay)
        overlay.detach(0)
        # Membership shrank but no unadvertise happened: state is stale.
        assert len(overlay.subscriptions) == len(subscriptions) - 1
        stale = {
            broker_id: {
                (pattern, kind, payload)
                for pattern, kind, payload in entries
                if kind == "forward"
            }
            for broker_id, entries in entries_before.items()
        }
        now = {
            broker_id: {
                (pattern, kind, payload)
                for pattern, kind, payload in entries
                if kind == "forward"
            }
            for broker_id, entries in table_signature(overlay).items()
        }
        assert now == stale

    @pytest.mark.parametrize("event", ["subscribe", "unsubscribe"])
    def test_single_event_after_detach_withdraws_the_stale_entry(
        self, event
    ):
        # A detached subscriber's entry stays installed.  The next event
        # at its home diffs the full aggregation, exactly as a burst
        # would, instead of applying only its own single change.
        overlay = BrokerOverlay.chain(2)
        silent = overlay.attach(0, parse_xpath("/a/b"))
        other = overlay.attach(0, parse_xpath("/a/c"))
        overlay.attach(1, parse_xpath("/a"))
        overlay.advertise(PerSubscriptionPolicy())
        overlay.detach(silent)
        node = overlay.brokers[0]
        assert node.stale and silent in node.aggregation
        if event == "subscribe":
            overlay.subscribe(0, parse_xpath("/a/d"))
        else:
            overlay.unsubscribe(other)
        assert not node.stale and silent not in node.aggregation
        assert (
            overlay.topology_signature()
            == overlay.rebuilt().topology_signature()
        )

    def test_a_policy_repeating_a_member_group_is_refused(self):
        # A broker's aggregation is recorded by leader, each group's first
        # member, so a policy that returns two aggregates of one group is
        # refused before the broker's routing state changes.
        repeated = parse_xpath("/a/d")

        @dataclass(frozen=True)
        class Repeating(PerSubscriptionPolicy):
            def single_change(self, *event):
                return None  # always re-aggregate

            def aggregate(self, advertised, index, clusters=None):
                aggregates = super().aggregate(advertised, index, clusters)
                if repeated in advertised.values():
                    aggregates.append(aggregates[0])
                return aggregates

        overlay = BrokerOverlay.chain(2)
        overlay.attach(0, parse_xpath("/a/b"))
        overlay.attach(1, parse_xpath("/a"))
        overlay.advertise(Repeating())

        def state():
            return (
                {
                    broker_id: (list(node.table), dict(node.aggregation))
                    for broker_id, node in overlay.brokers.items()
                },
                overlay.advertisement_messages,
            )

        before = state()
        with pytest.raises(ValueError, match="member group"):
            overlay.subscribe(0, repeated)
        assert state() == before
        fresh = BrokerOverlay.chain(2)
        fresh.attach(0, repeated)
        with pytest.raises(ValueError, match="member group"):
            fresh.advertise(Repeating())


class TestBatchChurn:
    """subscribe_many / unsubscribe_many: one diff per touched broker."""

    def test_subscribe_many_before_advertisement_is_membership_only(
        self, subscriptions
    ):
        overlay = BrokerOverlay.chain(3)
        ids = overlay.subscribe_many(1, subscriptions[:3])
        assert ids == [0, 1, 2]
        assert all(len(n.table) == 0 for n in overlay.brokers.values())

    def test_empty_batches_are_no_ops(self, corpus, subscriptions):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(CommunityPolicy(0.5), corpus)
        before = overlay.advertisement_messages
        assert overlay.subscribe_many(0, []) == []
        assert overlay.unsubscribe_many([]) == []
        assert overlay.advertisement_messages == before

    def test_unsubscribe_many_rejects_unknown_and_duplicate_ids(
        self, corpus, subscriptions
    ):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(CommunityPolicy(0.5), corpus)
        with pytest.raises(ValueError):
            overlay.unsubscribe_many([0, 99])
        with pytest.raises(ValueError):
            overlay.unsubscribe_many([0, 0])
        # The failed batches changed nothing.
        assert len(overlay.subscriptions) == len(subscriptions)

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 1.0])
    def test_batch_matches_rebuild_community(
        self, corpus, subscriptions, threshold
    ):
        overlay = build_overlay("chain", subscriptions[:3])
        overlay.advertise(CommunityPolicy(threshold), corpus)
        ids = overlay.subscribe_many(1, subscriptions[3:])
        rebuilt = rebuild_from_survivors(
            overlay, "chain", community=(corpus, threshold)
        )
        assert table_signature(overlay) == table_signature(rebuilt)
        assert overlay.unsubscribe_many(ids) == subscriptions[3:]
        rebuilt = rebuild_from_survivors(
            overlay, "chain", community=(corpus, threshold)
        )
        assert table_signature(overlay) == table_signature(rebuilt)

    def test_batch_matches_rebuild_per_subscription(self, subscriptions):
        overlay = build_overlay("random_tree", subscriptions[:3])
        overlay.advertise(PerSubscriptionPolicy())
        ids = overlay.subscribe_many(2, subscriptions[3:])
        rebuilt = rebuild_from_survivors(overlay, "random_tree")
        assert table_signature(overlay) == table_signature(rebuilt)
        overlay.unsubscribe_many(ids)
        rebuilt = rebuild_from_survivors(overlay, "random_tree")
        assert table_signature(overlay) == table_signature(rebuilt)

    def test_unsubscribe_many_spans_brokers(self, corpus, subscriptions):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(CommunityPolicy(0.5), corpus)
        # One victim homed on each broker, retired in one batch.
        victims = [0, 1, 2]
        patterns = [overlay.subscriptions[v][1] for v in victims]
        assert overlay.unsubscribe_many(victims) == patterns
        rebuilt = rebuild_from_survivors(
            overlay, "chain", community=(corpus, 0.5)
        )
        assert table_signature(overlay) == table_signature(rebuilt)

    def test_batch_reaggregates_once_per_broker(self, corpus, subscriptions):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(CommunityPolicy(0.5), corpus)
        node = overlay.brokers[1]
        advertised_before = len(node.advertised)
        burst = [parse_xpath("/a/b/e"), parse_xpath("/a/b/e/k")]
        overlay.subscribe_many(1, burst)
        # Both arrivals joined the advertised record; other brokers
        # untouched.
        assert len(node.advertised) == advertised_before + len(burst)
        for broker_id in (0, 2):
            other = overlay.brokers[broker_id]
            assert list(other.advertised) == other.local_subscribers

    def test_unadvertised_attachments_skip_batch_reaggregation(
        self, corpus, subscriptions
    ):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(CommunityPolicy(0.5), corpus)
        silent = overlay.attach(1, parse_xpath("/a/b"))
        before = {
            broker_id: frozenset(
                (entry.pattern, entry.destination) for entry in node.table
            )
            for broker_id, node in overlay.brokers.items()
        }
        assert overlay.unsubscribe_many([silent]) == [parse_xpath("/a/b")]
        after = {
            broker_id: frozenset(
                (entry.pattern, entry.destination) for entry in node.table
            )
            for broker_id, node in overlay.brokers.items()
        }
        assert after == before


class TestStats:
    def test_flooding_baseline(self, corpus, subscriptions):
        overlay = build_overlay("chain", subscriptions)
        stats = overlay.flooding_stats(corpus)
        assert stats.recall == 1.0
        assert stats.precision < 1.0
        assert stats.match_operations == 0
        assert stats.forwards == len(corpus) * 2

    def test_per_broker_accounting_sums_to_totals(self, corpus, subscriptions):
        overlay = build_overlay("star", subscriptions)
        overlay.advertise(PerSubscriptionPolicy())
        stats = overlay.route_corpus(corpus)
        assert sum(stats.match_operations_by_broker.values()) == (
            stats.match_operations
        )
        assert stats.total_table_entries == sum(stats.table_sizes.values())
        assert stats.matches_per_document == pytest.approx(
            stats.match_operations / len(corpus)
        )
        assert stats.forwards_per_document == pytest.approx(
            stats.forwards / len(corpus)
        )

    def test_reset_routing_clears_state(self, corpus, subscriptions):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(PerSubscriptionPolicy())
        overlay.reset_routing()
        assert overlay.mode is None
        assert all(len(n.table) == 0 for n in overlay.brokers.values())
        with pytest.raises(ValueError):
            overlay.route_corpus(corpus)


class TestTopologyLifecycle:
    """Broker join/leave: graft, split, merge, and their bookkeeping."""

    def test_add_broker_mints_fresh_ids(self, subscriptions):
        from repro.routing.overlay import BrokerId

        overlay = BrokerOverlay.chain(3)
        first = overlay.add_broker(0)
        assert isinstance(first, BrokerId) and first == 3
        assert "BrokerId" in repr(first)
        overlay.remove_broker(first)
        # Ids are never reused, even after a removal.
        assert overlay.add_broker(0) == 4
        assert sorted(overlay.brokers) == [0, 1, 2, 4]

    def test_add_broker_validates_parent_and_split(self):
        overlay = BrokerOverlay.chain(3)
        with pytest.raises(ValueError):
            overlay.add_broker(9)
        with pytest.raises(ValueError):
            overlay.add_broker(0, split=2)  # 0 — 2 is not an edge

    def test_remove_broker_validates_victim_and_target(self):
        overlay = BrokerOverlay.chain(3)
        with pytest.raises(ValueError):
            overlay.remove_broker(9)
        with pytest.raises(ValueError):
            overlay.remove_broker(0, merge_into=2)  # not a neighbour
        single = BrokerOverlay.chain(1)
        with pytest.raises(ValueError):
            single.remove_broker(0)

    def test_rebuilt_keeps_the_matching_mode(
        self, figure2_documents, subscriptions
    ):
        # A linear overlay's rebuild matches pattern by pattern too, so a
        # document costs the same operations at every broker of both.
        overlay = BrokerOverlay.chain(3, matching="linear")
        overlay.attach_round_robin(subscriptions[:4])
        overlay.advertise(PerSubscriptionPolicy())
        rebuilt = overlay.rebuilt()
        assert rebuilt.matching == "linear"
        assert all(
            node.table.matching == "linear" for node in rebuilt.brokers.values()
        )
        for document in figure2_documents:
            assert rebuilt.route(document, 0) == overlay.route(document, 0)

    def test_membership_only_surgery_keeps_tables_empty(self, subscriptions):
        overlay = BrokerOverlay.chain(2)
        overlay.attach(1, subscriptions[0])
        joined = overlay.add_broker(1)
        overlay.remove_broker(1, merge_into=joined)
        assert all(len(n.table) == 0 for n in overlay.brokers.values())
        # The re-homed subscription followed its broker's merge.
        assert overlay.subscriptions[0][0] == joined
        assert overlay.brokers[joined].local_subscribers == [0]

    def test_graft_seeds_existing_advertisements(self, corpus, subscriptions):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(PerSubscriptionPolicy())
        before = overlay.advertisement_messages
        joined = overlay.add_broker(2)
        # The newcomer learned the overlay's state over its single link
        # (one message per forwarded instance), and nothing re-flooded.
        node = overlay.brokers[joined]
        assert len(node.table) > 0
        assert overlay.advertisement_messages > before
        assert all(
            destination == ("forward", 2)
            for destination in node.table.destinations()
        )
        stats = overlay.route_corpus(corpus)
        assert stats.precision == 1.0 and stats.recall == 1.0

    def test_split_edge_rekeys_link_state(self, corpus, subscriptions):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(PerSubscriptionPolicy())
        mid = overlay.add_broker(0, split=1)
        assert overlay.brokers[0].neighbors == [mid]
        assert overlay.brokers[1].neighbors == [2, mid]
        assert sorted(overlay.brokers[mid].neighbors) == [0, 1]
        # Both endpoints now route through the newcomer.
        for broker_id in (0, 1):
            table = overlay.brokers[broker_id].table
            assert ("forward", mid) in table.destinations()
        stats = overlay.route_corpus(corpus)
        assert stats.precision == 1.0 and stats.recall == 1.0

    def test_remove_rehomes_subscriptions_and_index(
        self, corpus, subscriptions
    ):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(CommunityPolicy(0.5), corpus)
        moved = list(overlay.brokers[1].local_subscribers)
        target = overlay.remove_broker(1, merge_into=2)
        assert target == 2
        node = overlay.brokers[2]
        for subscription_id in moved:
            assert overlay.subscriptions[subscription_id][0] == 2
            assert subscription_id in node.advertised
        assert node.local_subscribers == sorted(node.local_subscribers)
        # The adopted patterns joined the target's advertised record.
        assert list(node.advertised) == node.local_subscribers

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_join_leave_matches_rebuild_per_subscription(
        self, subscriptions, topology
    ):
        from tests.test_topology_properties import (
            rebuild,
            relabeled_signature,
        )

        overlay = build_overlay(topology, subscriptions)
        policy = PerSubscriptionPolicy()
        overlay.advertise(policy)
        joined = overlay.add_broker(1)
        assert relabeled_signature(overlay) == relabeled_signature(
            rebuild(overlay, policy, None)
        )
        overlay.subscribe(joined, parse_xpath("/a/b/e"))
        overlay.remove_broker(0)
        assert relabeled_signature(overlay) == relabeled_signature(
            rebuild(overlay, policy, None)
        )

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 1.0])
    def test_join_leave_matches_rebuild_community(
        self, corpus, subscriptions, threshold
    ):
        from tests.test_topology_properties import (
            rebuild,
            relabeled_signature,
        )

        overlay = build_overlay("chain", subscriptions)
        policy = CommunityPolicy(threshold)
        overlay.advertise(policy, corpus)
        mid = overlay.add_broker(1, split=2)
        overlay.subscribe(mid, parse_xpath("/a/d/e/m"))
        assert relabeled_signature(overlay) == relabeled_signature(
            rebuild(overlay, policy, corpus)
        )
        overlay.remove_broker(1)  # internal broker with subscriptions
        assert relabeled_signature(overlay) == relabeled_signature(
            rebuild(overlay, policy, corpus)
        )
        overlay.remove_broker(mid)
        assert relabeled_signature(overlay) == relabeled_signature(
            rebuild(overlay, policy, corpus)
        )

    def test_incremental_churn_cheaper_than_rebuild(
        self, corpus, subscriptions
    ):
        overlay = build_overlay("chain", subscriptions, n_brokers=6)
        overlay.advertise(CommunityPolicy(0.5), corpus)
        settled = overlay.advertisement_messages
        joined = overlay.add_broker(5)
        overlay.remove_broker(3)
        incremental = overlay.advertisement_messages - settled
        from tests.test_topology_properties import rebuild

        fresh = rebuild(overlay, CommunityPolicy(0.5), corpus)
        assert incremental < fresh.advertisement_messages
        assert joined in overlay.brokers

    @pytest.mark.parametrize("community", [False, True], ids=["persub", "community"])
    def test_leave_merges_advertised_records_in_id_order(
        self, corpus, subscriptions, community
    ):
        from tests.test_topology_properties import relabeled_signature

        # Round-robin over two brokers homes ids 0, 2, 4 on broker 0 and
        # 1, 3, 5 on broker 1: the merged record interleaves them.
        overlay = build_overlay("chain", subscriptions, n_brokers=2)
        if community:
            overlay.advertise(CommunityPolicy(0.5), corpus)
        else:
            overlay.advertise(PerSubscriptionPolicy())
        overlay.remove_broker(0, merge_into=1)
        target = overlay.brokers[1]
        assert list(target.advertised) == sorted(overlay.subscriptions)
        for subscription_id, pattern in target.advertised.items():
            assert pattern == overlay.subscriptions[subscription_id][1]
        assert relabeled_signature(overlay) == relabeled_signature(
            overlay.rebuilt()
        )

    def test_attach_only_members_survive_rehoming_unadvertised(
        self, corpus, subscriptions
    ):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(CommunityPolicy(0.5), corpus)
        silent = overlay.attach(1, parse_xpath("/a/b"))
        overlay.remove_broker(1, merge_into=0)
        # Membership moved, but the never-advertised member stays out of
        # the target's aggregation (and can still detach cleanly).
        assert overlay.subscriptions[silent][0] == 0
        members = {
            member
            for _, group in overlay.brokers[0].communities
            for member in group
        }
        assert silent not in members
        overlay.unsubscribe(silent)
        assert silent not in overlay.subscriptions

    def test_round_robin_skips_retired_ids(self, corpus, subscriptions):
        overlay = build_overlay("chain", subscriptions)
        overlay.advertise(PerSubscriptionPolicy())
        overlay.remove_broker(1)
        # Round-robin now rotates over the surviving ids only.
        ids = overlay.attach_round_robin(
            [parse_xpath("/a"), parse_xpath("/a/b")]
        )
        homes = [overlay.subscriptions[i][0] for i in ids]
        assert homes == [0, 2]
        stats = overlay.route_corpus(corpus)
        assert stats.brokers == 2
