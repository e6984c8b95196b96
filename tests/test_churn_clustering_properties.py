"""Incremental re-clustering under subscription churn equals clustering
from scratch.

A broker keeps its last leader clustering, with the member each
community elected to advertise, and updates both in place: an arrival
is placed first-fit against the current leaders and takes over its
community's election only with a strictly higher selectivity, a
departing non-leader just leaves its community (which elects again if
it was the elected member), and a departing leader's community
dissolves and is repaired locally: its followers are placed again, a
leader founded on the way may capture later members, and every
community whose membership changed elects again.  Hypothesis drives
random interleavings of ``subscribe`` / ``unsubscribe`` (plus bursts,
which take the full path) over a multi-broker overlay under every
candidate gate and regime, and resubscribe pairs over one broker
holding every ring pattern, and after every event checks that

* each broker's advertised communities equal a from-scratch aggregation
  of its current members through a fresh similarity index,
* the overlay's routing state equals a from-scratch rebuild,
* each broker's clustering record maps every member, in home order, to
  the community list holding it, and
* under a candidate gate, each broker's leader index holds exactly the
  leaders of its clustering record, each found by a lookup of its own
  pattern, and a hybrid broker at or under its cutoff keeps an empty
  record;

and, under every candidate gate, that no similarity index is ever
asked about a pair the gate rules out: the index has no gate of its
own, so the clustering and the placement are the only ones.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.routing.policy as policy_module
from repro.core.candidates import CandidateGenerator, ExactCandidates, LSHCandidates
from repro.core.pattern_parser import parse_xpath
from repro.core.similarity import SimilarityIndex
from repro.routing.community import LeaderClusters
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import CommunityPolicy, HybridPolicy
from repro.xmltree.corpus import DocumentCorpus
from repro.xmltree.tree import XMLTree
from tests.strategies import property_max_examples, tree_patterns
from tests.test_community_diff_properties import counter_diff
from tests.test_selectivity_properties import corpora

POLICIES = {
    "leader": lambda threshold, metric: CommunityPolicy(threshold, metric=metric),
    "leader-exact-prefilter": lambda threshold, metric: CommunityPolicy(
        threshold,
        metric=metric,
        candidates=ExactCandidates(prefilter_labels=True),
    ),
    "leader-lsh": lambda threshold, metric: CommunityPolicy(
        threshold, metric=metric, candidates=LSHCandidates()
    ),
    "leader-lsh-degenerate": lambda threshold, metric: CommunityPolicy(
        threshold, metric=metric, candidates=LSHCandidates.degenerate()
    ),
    "hybrid": lambda threshold, metric: HybridPolicy(
        threshold, metric=metric, aggregate_above=2
    ),
}

#: The candidate gates a policy can carry, by name; None compares every
#: leader.
GATES = {
    "none": lambda: None,
    "exact-prefilter": lambda: ExactCandidates(prefilter_labels=True),
    "lsh": LSHCandidates,
    "lsh-degenerate": LSHCandidates.degenerate,
}

THRESHOLDS = (0.0, 0.3, 0.5, 0.7, 1.0)

#: Five documents around a ring: document i holds tags i and i + 1, so
#: ``//a`` and ``//b`` share a document, ``//b`` and ``//c`` share one,
#: but ``//a`` and ``//c`` share none.  Similarity is then not
#: transitive, and a departing leader's followers, and the communities
#: founded after it, regroup differently without it.
RING = ("a", "b", "c", "d", "e")
RING_DOCUMENTS = [
    XMLTree.from_nested(("r", [tag, RING[(i + 1) % len(RING)]]), doc_id=i)
    for i, tag in enumerate(RING)
]
RING_PATTERNS = [
    *(parse_xpath(f"//{tag}") for tag in RING),
    parse_xpath("/r"),
    parse_xpath("/.[//a][//b]"),
    parse_xpath("/.[//c][//d]"),
]


@st.composite
def workloads(draw):
    """A corpus and a pattern pool: random, or around the ring."""
    if draw(st.booleans(), label="ring?"):
        pool = draw(
            st.lists(st.sampled_from(RING_PATTERNS), min_size=2, max_size=6, unique=True)
        )
        return RING_DOCUMENTS, pool
    return draw(corpora()), draw(st.lists(tree_patterns(), min_size=2, max_size=5))


class GateCheckedIndex(SimilarityIndex):
    """A similarity index that fails on each pair it is asked about
    which its policy's candidate gate rules out."""

    gate: CandidateGenerator

    def __call__(self, p, q):
        assert self.gate.is_candidate(p, q), ("ruled-out pair asked", p, q)
        return super().__call__(p, q)


@contextmanager
def gate_checked_indexes():
    """Every index a gated community policy makes checks each pair it
    is asked about against the policy's gate."""
    make_index = CommunityPolicy.make_index

    def checked(policy, provider):
        index = make_index(policy, provider)
        if policy.candidates is not None:
            index.__class__ = GateCheckedIndex
            index.gate = policy.candidates
        return index

    with mock.patch.object(CommunityPolicy, "make_index", checked):
        yield


def from_scratch(overlay: BrokerOverlay, broker_id: int) -> list:
    """The broker's aggregation recomputed with no clustering record and
    a fresh index."""
    node = overlay.brokers[broker_id]
    advertised = {
        member: overlay.subscriptions[member][1]
        for member in node.local_subscribers
        if member in node.advertised
    }
    policy = overlay.policy
    return policy.aggregate(advertised, policy.make_index(overlay.provider))


def assert_leader_indexes_hold_the_leaders(overlay: BrokerOverlay) -> None:
    """Each clustered broker's record maps every advertised member, in
    home order, to the community list that holds it.  Under a gated
    policy, its leader index holds exactly the leaders of the record:
    its size is their count, and a lookup of each leader's own pattern
    finds it among them.  A hybrid broker at or under its cutoff, gated
    or not, keeps an empty record."""
    policy = overlay.policy
    for broker_id, node in overlay.brokers.items():
        clusters = node.clusters
        if (
            isinstance(policy, HybridPolicy)
            and len(node.advertised) <= policy.aggregate_above
        ):
            assert clusters == LeaderClusters(), broker_id
            continue
        assert list(clusters.group_of) == list(node.advertised), broker_id
        for group in clusters.communities:
            for member in group:
                assert clusters.group_of[member] is group, (broker_id, member)
        if policy.candidates is None:
            continue
        leaders = {group[0] for group in clusters.communities}
        index = clusters.leader_index
        if index is None:
            # Only a broker no placement has reached yet lacks one.
            assert not leaders, broker_id
            continue
        assert len(index) == len(clusters.communities), broker_id
        for leader in leaders:
            found = index.candidates_of(overlay.subscriptions[leader][1])
            assert leader in found, (broker_id, leader)
            assert found <= leaders, (broker_id, leader)


def assert_matches_from_scratch(overlay: BrokerOverlay) -> None:
    for broker_id, node in overlay.brokers.items():
        assert node.communities == from_scratch(overlay, broker_id), broker_id
    assert overlay.topology_signature() == overlay.rebuilt().topology_signature()
    assert_leader_indexes_hold_the_leaders(overlay)


def pick_victim(overlay: BrokerOverlay, data: st.DataObject) -> int:
    """A live subscription: a broker's first or last member, one of its
    community leaders, or any member."""
    homes = [
        broker_id
        for broker_id in sorted(overlay.brokers)
        if overlay.brokers[broker_id].local_subscribers
    ]
    node = overlay.brokers[data.draw(st.sampled_from(homes), label="home")]
    members = node.local_subscribers
    leaders = [group[0] for _, group in node.communities]
    kind = data.draw(
        st.sampled_from(("first", "last", "leader", "any")), label="victim kind"
    )
    if kind == "first":
        return members[0]
    if kind == "last":
        return members[-1]
    if kind == "leader" and leaders:
        return data.draw(st.sampled_from(leaders), label="leader")
    return data.draw(st.sampled_from(members), label="member")


def churn(overlay: BrokerOverlay, pool: list, data: st.DataObject, steps: int):
    """Apply *steps* random churn events, checking after each one."""
    brokers = sorted(overlay.brokers)
    for step in range(steps):
        choices = ["subscribe", "subscribe_many"]
        if overlay.subscriptions:
            choices += ["unsubscribe", "unsubscribe", "unsubscribe_many"]
        op = data.draw(st.sampled_from(choices), label=f"op{step}")
        if op == "subscribe":
            home = data.draw(st.sampled_from(brokers), label="home")
            overlay.subscribe(home, data.draw(st.sampled_from(pool), label="pattern"))
        elif op == "subscribe_many":
            home = data.draw(st.sampled_from(brokers), label="home")
            burst = data.draw(
                st.lists(st.sampled_from(pool), min_size=1, max_size=3),
                label="burst",
            )
            overlay.subscribe_many(home, burst)
        elif op == "unsubscribe":
            overlay.unsubscribe(pick_victim(overlay, data))
        else:
            live = list(overlay.subscriptions)
            overlay.unsubscribe_many(
                data.draw(
                    st.lists(
                        st.sampled_from(live), min_size=1, max_size=3, unique=True
                    ),
                    label="departures",
                )
            )
        assert_matches_from_scratch(overlay)


class TestIncrementalEqualsFromScratch:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    @settings(max_examples=property_max_examples(30), deadline=None)
    @given(
        workloads(),
        st.sampled_from(THRESHOLDS),
        st.sampled_from(("M1", "M2", "M3")),
        st.data(),
    )
    def test_every_churn_event(self, name, workload, threshold, metric, data):
        docs, pool = workload
        overlay = BrokerOverlay.chain(2)
        overlay.attach_round_robin(
            data.draw(
                st.lists(st.sampled_from(pool), max_size=12), label="initial"
            )
        )
        with gate_checked_indexes():
            overlay.advertise(POLICIES[name](threshold, metric), DocumentCorpus(docs))
            assert_matches_from_scratch(overlay)
            churn(overlay, pool, data, data.draw(st.integers(1, 10), label="steps"))

    def test_equivalent_advertisements_match_the_rebuild(self):
        # /a and /.[a][a] contain each other.  The departure splits
        # broker 1's community into both, and broker 0 hears /.[a][a]
        # while /a is still installed; a rebuild sends them in the other
        # order.  Both must leave the same entry for the link.
        plain, doubled = parse_xpath("/a"), parse_xpath("/.[a][a]")
        overlay = BrokerOverlay.chain(2)
        overlay.attach_round_robin([plain, plain, plain, doubled, plain, plain])
        overlay.advertise(
            HybridPolicy(0.0, metric="M1", aggregate_above=2),
            DocumentCorpus([XMLTree.from_nested(("r", []), doc_id=0)]),
        )
        overlay.unsubscribe(overlay.brokers[1].local_subscribers[0])
        assert_matches_from_scratch(overlay)

    @settings(max_examples=property_max_examples(30), deadline=None)
    @given(workloads(), st.sampled_from(THRESHOLDS), st.data())
    def test_hybrid_crossing_its_cutoff(self, workload, threshold, data):
        # Two subscriptions per broker sit at the cutoff: every single
        # event moves a broker across it in one direction or the other.
        docs, pool = workload
        gate = GATES[data.draw(st.sampled_from(sorted(GATES)), label="gate")]
        overlay = BrokerOverlay.chain(2)
        overlay.attach_round_robin(
            [data.draw(st.sampled_from(pool), label="initial") for _ in range(4)]
        )
        overlay.advertise(
            HybridPolicy(threshold, candidates=gate(), aggregate_above=2),
            DocumentCorpus(docs),
        )
        churn(overlay, pool, data, data.draw(st.integers(2, 12), label="steps"))

    @pytest.mark.parametrize("gate", sorted(set(GATES) - {"none"}))
    def test_brokers_that_start_empty_get_a_leader_index(self, gate):
        # Broker 1 homes nothing when the policy is advertised, and
        # broker 2 is grafted after it: each record has no leader index
        # until its first placement builds one.
        ring = {tag: parse_xpath(f"//{tag}") for tag in RING}
        overlay = BrokerOverlay.chain(2)
        for tag in "abc":
            overlay.attach(0, ring[tag])
        overlay.advertise(
            CommunityPolicy(0.3, candidates=GATES[gate]()),
            DocumentCorpus(RING_DOCUMENTS),
        )
        grafted = overlay.add_broker(1)
        for broker_id in (1, grafted):
            assert overlay.brokers[broker_id].clusters.leader_index is None
        for broker_id in (1, grafted):
            first = overlay.subscribe(broker_id, ring["a"])
            assert len(overlay.brokers[broker_id].clusters.leader_index) == 1
            assert_matches_from_scratch(overlay)
            for tag in "bcd":
                overlay.subscribe(broker_id, ring[tag])
                assert_matches_from_scratch(overlay)
            overlay.unsubscribe(first)
            assert_matches_from_scratch(overlay)


class TestChurnCost:
    """What one churn event costs, in clusterings."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted: list[int] = []
        original = policy_module.leader_clustering

        def counting(pattern_of, *args, **kwargs):
            counted.append(len(pattern_of))
            return original(pattern_of, *args, **kwargs)

        monkeypatch.setattr(policy_module, "leader_clustering", counting)
        return counted

    @pytest.fixture
    def overlay(self, calls, figure2_documents):
        overlay = BrokerOverlay.chain(2)
        for expression in ("/a/b", "/a/b", "/a/d", "/a/d", "/a/b", "/a/d"):
            overlay.attach(0, parse_xpath(expression))
        overlay.advertise(CommunityPolicy(0.9), DocumentCorpus(figure2_documents))
        return overlay

    def groups(self, overlay):
        return [list(group) for _, group in overlay.brokers[0].communities]

    def test_advertise_clusters_the_populated_broker_once(self, calls, overlay):
        assert calls == [6]
        assert [len(group) for group in self.groups(overlay)] == [3, 3]

    def test_subscribe_places_against_leaders_only(self, calls, overlay):
        calls.clear()
        fresh = overlay.subscribe(0, parse_xpath("/a/b"))
        assert calls == []
        assert fresh in self.groups(overlay)[0]

    def test_non_leader_departure_reclusters_nothing(self, calls, overlay):
        calls.clear()
        overlay.unsubscribe(self.groups(overlay)[0][1])
        assert calls == []

    def test_leader_departure_reclusters_nothing(self, calls, overlay):
        first, second = self.groups(overlay)
        calls.clear()
        overlay.unsubscribe(second[0])
        overlay.unsubscribe(first[0])
        assert calls == []
        assert self.groups(overlay) == [first[1:], second[1:]]
        assert_matches_from_scratch(overlay)

    def test_burst_reclusters_from_scratch(self, calls, overlay):
        calls.clear()
        overlay.subscribe_many(0, [parse_xpath("/a/b"), parse_xpath("/a/d")])
        assert calls == [8]

    def test_burst_of_one_reclusters_nothing(self, calls, overlay):
        calls.clear()
        (fresh,) = overlay.subscribe_many(0, [parse_xpath("/a/b")])
        assert calls == []
        assert fresh in self.groups(overlay)[0]
        overlay.unsubscribe_many([fresh])
        assert calls == []
        assert_matches_from_scratch(overlay)


def elected_members(overlay: BrokerOverlay, broker_id: int) -> list[int]:
    """Each community's elected member: the first whose pattern the
    community advertises."""
    return [
        next(
            member
            for member in group
            if overlay.subscriptions[member][1] == advertised
        )
        for advertised, group in overlay.brokers[broker_id].communities
    ]


class TestRingOnOneBroker:
    """Every ring pattern homed on one broker, then resubscribe pairs.

    ``//a`` … ``//e`` have equal selectivities, ``/r`` a higher one and
    the two conjunctions a lower one, so an arrival often ties with its
    community's elected member, and a departing leader often leaves a
    later community with a different best member: the cases where a
    broker's record of elected members must change or must stand.
    """

    @settings(max_examples=property_max_examples(30), deadline=None)
    @given(
        st.permutations(RING_PATTERNS),
        st.sampled_from(THRESHOLDS),
        st.sampled_from(("M1", "M2", "M3")),
        st.data(),
    )
    def test_resubscribe_pairs(self, order, threshold, metric, data):
        gate = GATES[data.draw(st.sampled_from(sorted(GATES)), label="gate")]
        overlay = BrokerOverlay.chain(2)
        for pattern in order:
            overlay.attach(0, pattern)
        overlay.advertise(
            CommunityPolicy(threshold, metric=metric, candidates=gate()),
            DocumentCorpus(RING_DOCUMENTS),
        )
        assert_matches_from_scratch(overlay)
        for step in range(data.draw(st.integers(1, 8), label="pairs")):
            node = overlay.brokers[0]
            victims = {
                "leader": [group[0] for _, group in node.communities],
                "elected": elected_members(overlay, 0),
                "any": node.local_subscribers,
            }
            kind = data.draw(st.sampled_from(sorted(victims)), label=f"kind{step}")
            overlay.unsubscribe(
                data.draw(st.sampled_from(victims[kind]), label="victim")
            )
            overlay.subscribe(
                0, data.draw(st.sampled_from(RING_PATTERNS), label="arrival")
            )
            assert_matches_from_scratch(overlay)

    @pytest.mark.parametrize(
        "order",
        [
            # The lost /r joins //c's community, which elected //c.
            ("//a", "//c", "/r"),
            # The lost //b founds a community and captures the leader //c.
            ("//a", "//b", "//c"),
            # ... and captures //c, a follower of //d.
            ("//a", "//b", "//d", "//c"),
            # ... and captures //c, the member the conjunction's community
            # elected.
            ("//a", "//b", "/.[//c][//d]", "//c"),
            # The lost //b joins //c's community ahead of //d.
            ("//a", "//c", "//b", "//d"),
        ],
    )
    def test_retiring_the_first_leader(self, order):
        for gate in GATES.values():
            self.retire_the_first_leader(order, gate())

    def retire_the_first_leader(self, order, gate):
        overlay = BrokerOverlay.chain(2)
        for xpath in order:
            overlay.attach(0, parse_xpath(xpath))
        overlay.advertise(
            CommunityPolicy(0.3, candidates=gate), DocumentCorpus(RING_DOCUMENTS)
        )
        before = overlay.brokers[0].communities
        applied = []
        apply_change = BrokerOverlay._apply_change

        def recording(self, broker_id, departed, unmatched):
            applied.append((list(departed), list(unmatched)))
            return apply_change(self, broker_id, departed, unmatched)

        with mock.patch.object(BrokerOverlay, "_apply_change", recording):
            overlay.unsubscribe(overlay.brokers[0].local_subscribers[0])
        assert_matches_from_scratch(overlay)
        # The entries of the communities the repair touched leave and
        # arrive in the order the diff of the two full aggregations lists
        # them.
        assert applied == [counter_diff(before, overlay.brokers[0].communities)]
