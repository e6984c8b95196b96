"""Per-event churn cost under the per-subscription and community
policies, pinned by call counts.

Under :class:`~repro.routing.policy.PerSubscriptionPolicy` one
resubscribe pair — an unsubscribe and a subscribe — costs O(change), not
O(broker): the policy names the one entry each event adds or retires, so
no aggregation is built or diffed, and each hop of the unadvertise finds
the instance it retires through the routing table's retirement index
instead of comparing the pattern with every absorbed instance.  Wall
time is too noisy to pin that in a tier-1 test, so these tests count
calls — of ``aggregate``, of the aggregation diff, of
``TreePattern.__eq__`` and of ``TreePattern.__hash__`` — for resubscribe
pairs on brokers holding 300 and 3,000 subscribers each, drawn from a
few patterns.

The first retirement on a link builds that link's retirement index,
hashing each absorbed instance once, so the first pair's hash count
grows with the broker; from the second pair on, nothing does.

The routing table keeps each trie entry's deliver members beside the
trie, so a pair takes its member out of one entry's members and puts
the fresh one into one entry's; the next publish reads the accepted
entries' members as they stand, with nothing to rebuild.

The probe subscription is the last one homed on broker 0, behind the
population, in three layouts of the neighbouring broker's table:

* ``unique`` — the probe's pattern is held by no one else, and its
  instance sits last under the cover that absorbed it;
* ``active-cover`` — the probe duplicates the active cover whose record
  holds the population, and the duplicate to retire sits last in it;
* ``several-covers`` — instances of the probe's pattern sit under two
  covers, and the one to retire sits behind the population in the older
  record.

In each, a scan of the cover records would compare the probe's pattern
with every instance of the population before reaching the one it
retires.

Under :class:`~repro.routing.policy.CommunityPolicy` a broker keeps its
clustering and each community's elected representative across events,
and a single event hands the overlay the aggregates of the communities
it touched, so neither a pair that retires an ordinary member nor one
that retires a leader ahead of the population calls
``CommunityPolicy.aggregate`` or the aggregation diff, at 300
subscribers per broker or at 3,000.  A pair that neither retires a
leader or an elected member nor founds a community makes as many
``SimilarityIndex.selectivity`` calls at 3,000 subscribers per broker as
at 300, and under an ``LSHCandidates`` gate it asks the broker's leader
index once (``candidates_of``) and calls ``is_candidate`` not at all; a
pair that retires the elected member elects its community again and no
other.  That leader index is the one ``leader_clustering`` filled when
the policy was advertised, one ``LSHCandidates.add`` per leader.  A
pair that retires a leader ahead of the population re-places only the
members that leader's departure can move, so its ``SimilarityIndex``
calls do not grow with the broker either.

A burst that brings or takes one advertised member per broker is
that member's single event and builds no aggregation; a larger burst
builds one per broker.

A :class:`~repro.routing.policy.HybridPolicy` broker that stays above
its cutoff takes the community path, calling neither
``HybridPolicy.aggregate`` nor ``leader_clustering``; a pair that
carries it across its cutoff and back aggregates it in full both ways.
"""

from __future__ import annotations

from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Optional
from unittest import mock

import pytest

import repro.routing.overlay as overlay_module
import repro.routing.policy as policy_module
import repro.routing.table as table_module
from repro.core.candidates import ExactCandidates, LSHCandidates
from repro.core.pattern import TreePattern
from repro.core.pattern_parser import parse_xpath
from repro.core.similarity import SimilarityIndex
from repro.routing.community import leader_clustering
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import CommunityPolicy, HybridPolicy, PerSubscriptionPolicy
from repro.xmltree.corpus import DocumentCorpus
from repro.xmltree.tree import XMLTree


@dataclass(frozen=True)
class Layout:
    """Who the brokers home: every broker a population drawn round-robin
    from *body*; broker 0 homes *before* ahead of it, *after* behind it
    and the *probe* last."""

    body: tuple[str, ...]
    probe: str
    before: tuple[str, ...] = ()
    after: tuple[str, ...] = ()


LAYOUTS = {
    # /a covers /a/b and /a/c on every link; /a/e is the probe's alone.
    "unique": Layout(body=("/a", "/a/b", "/a/c", "//d"), probe="/a/e"),
    # The first /a is the active cover of the population's /a/b and /a/c,
    # and the probe, another /a, is its one duplicate.
    "active-cover": Layout(
        body=("/a/b", "/a/c", "//d"), probe="/a", before=("/a",)
    ),
    # /a/b covers the population's /a/b/d and three /a/b/c; //c arrives,
    # then /a evicts /a/b and takes over its record, and the probe's
    # /a/b/c lands under //c, ahead of /a in table order.  /a's record is
    # the older one, so its first /a/b/c goes.
    "several-covers": Layout(
        body=("/a/b/d", "//e"),
        probe="/a/b/c",
        before=("/a/b",),
        after=("/a/b/c",) * 3 + ("//c", "/a"),
    ),
}


def deployed(
    layout: Layout, population: int, shared: bool
) -> tuple[BrokerOverlay, int]:
    """A three-broker chain homing *layout* with *population*
    subscribers per broker, advertised per subscription.

    With *shared*, subscribers holding one pattern share one pattern
    object; otherwise each parses its own, equal but distinct.
    """
    overlay = BrokerOverlay.chain(3)
    parsed: dict[str, TreePattern] = {}

    def pattern(xpath: str) -> TreePattern:
        if not shared:
            return parse_xpath(xpath)
        return parsed.setdefault(xpath, parse_xpath(xpath))

    for broker_id in sorted(overlay.brokers):
        if broker_id == 0:
            for xpath in layout.before:
                overlay.attach(0, pattern(xpath))
        for position in range(population):
            overlay.attach(
                broker_id, pattern(layout.body[position % len(layout.body)])
            )
        if broker_id == 0:
            for xpath in layout.after:
                overlay.attach(0, pattern(xpath))
    probe = overlay.attach(0, parse_xpath(layout.probe))
    overlay.advertise(PerSubscriptionPolicy())
    return overlay, probe


def counting(calls: Counter, name: str, wrapped):
    """*wrapped*, counting its calls in ``calls[name]``."""

    def count(*args, **kwargs):
        calls[name] += 1
        return wrapped(*args, **kwargs)

    return count


def pair_calls(
    overlay: BrokerOverlay, probe: int, xpath: str
) -> tuple[Counter, int]:
    """Calls one resubscribe pair of the probe makes; returns them and
    the fresh probe's id."""
    calls: Counter = Counter()
    pattern = parse_xpath(xpath)
    with ExitStack() as stack:
        for owner, name in (
            (PerSubscriptionPolicy, "aggregate"),
            (overlay_module, "_aggregation_diff"),
            (TreePattern, "__eq__"),
            (TreePattern, "__hash__"),
        ):
            stack.enter_context(
                mock.patch.object(
                    owner, name, counting(calls, name, getattr(owner, name))
                )
            )
        overlay.unsubscribe(probe)
        fresh = overlay.subscribe(0, pattern)
    return calls, fresh


POPULATIONS = (300, 3_000)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "distinct"])
@pytest.mark.parametrize("layout", list(LAYOUTS.values()), ids=list(LAYOUTS))
def test_resubscribe_pair_cost_does_not_grow_with_the_broker(layout, shared):
    first: dict[int, Counter] = {}
    steady: dict[int, Counter] = {}
    for population in POPULATIONS:
        overlay, probe = deployed(layout, population, shared)
        first[population], probe = pair_calls(overlay, probe, layout.probe)
        steady[population], fresh = pair_calls(overlay, probe, layout.probe)
        for calls in (first[population], steady[population]):
            assert calls["aggregate"] == 0, population
            assert calls["_aggregation_diff"] == 0, population
        # The pairs did their work: the fresh probe is advertised and the
        # routing state is the one a rebuild would install.
        assert overlay.brokers[0].aggregation[fresh] == (
            parse_xpath(layout.probe),
            (fresh,),
        )
        assert probe not in overlay.subscriptions
        if population == POPULATIONS[0]:
            assert (
                overlay.topology_signature()
                == overlay.rebuilt().topology_signature()
            )
    small, large = POPULATIONS
    assert first[large]["__eq__"] == first[small]["__eq__"]
    assert steady[large]["__eq__"] == steady[small]["__eq__"]
    assert steady[large]["__hash__"] == steady[small]["__hash__"]
    # The index build is the one part that grows, and only once.
    assert first[large]["__hash__"] > first[small]["__hash__"]


def test_resubscribe_pair_updates_one_member_set_each_way():
    layout = LAYOUTS["unique"]
    for population in POPULATIONS:
        overlay, probe = deployed(layout, population, shared=True)
        calls: Counter = Counter()
        with ExitStack() as stack:
            for name in ("_add_members", "_remove_members"):
                wrapped = counting(calls, name, getattr(table_module, name))
                stack.enter_context(
                    mock.patch.object(table_module, name, wrapped)
                )
            overlay.unsubscribe(probe)
            overlay.subscribe(0, parse_xpath(layout.probe))
        assert calls == Counter(_add_members=1, _remove_members=1), population


def burst_aggregations(population: int, burst) -> int:
    """The ``PerSubscriptionPolicy.aggregate`` calls *burst* makes on a
    ``unique`` layout of *population* subscribers per broker, which it
    leaves equal to its rebuild; *burst* takes the overlay and the
    probe's id."""
    overlay, probe = deployed(LAYOUTS["unique"], population, shared=True)
    calls: Counter = Counter()
    aggregate = counting(calls, "aggregate", PerSubscriptionPolicy.aggregate)
    with mock.patch.object(PerSubscriptionPolicy, "aggregate", aggregate):
        burst(overlay, probe)
    assert (
        overlay.topology_signature() == overlay.rebuilt().topology_signature()
    )
    return calls["aggregate"]


def test_a_burst_still_takes_the_full_path():
    def twice(overlay, probe):
        pattern = overlay.subscriptions[probe][1]
        overlay.unsubscribe_many([probe, overlay.brokers[0].local_subscribers[0]])
        overlay.subscribe_many(0, [pattern, pattern])

    assert burst_aggregations(8, twice) == 2


def test_a_burst_of_one_member_per_broker_is_a_single_event():
    def singly(overlay, probe):
        pattern = overlay.subscriptions[probe][1]
        # One departure on each of two brokers, then one arrival.
        overlay.unsubscribe_many([probe, overlay.brokers[1].local_subscribers[0]])
        overlay.subscribe_many(0, [pattern])

    assert burst_aggregations(8, singly) == 0


# ----------------------------------------------------------------------
# community elections
# ----------------------------------------------------------------------

#: ``//a`` matches three of the four documents and ``//b`` two of them,
#: both inside ``//a``'s, so M3(//a, //b) = 2/3 puts them in one
#: community at threshold 0.5, which advertises ``//a``; ``//c`` shares
#: no document with either and founds its own.
ELECTION_DOCUMENTS = [
    XMLTree.from_nested(("r", tags), doc_id=position)
    for position, tags in enumerate((["a"], ["a", "b"], ["a", "b"], ["c"]))
]

#: A broker's population round-robin from these: ``//b`` leads the
#: first community and its first ``//a`` is the elected member.
ELECTION_BODY = ("//b", "//a", "//c")


def community_deployed(
    population: int, policy: Optional[CommunityPolicy] = None
) -> tuple[BrokerOverlay, int]:
    """A two-broker chain homing *population* subscribers per broker
    under *policy*, ``CommunityPolicy(0.5)`` by default, and a ``//b``
    probe homed last on broker 0: neither a leader nor the elected
    member."""
    overlay = BrokerOverlay.chain(2)
    parsed = {xpath: parse_xpath(xpath) for xpath in ELECTION_BODY}
    for broker_id in sorted(overlay.brokers):
        for position in range(population):
            overlay.attach(
                broker_id, parsed[ELECTION_BODY[position % len(ELECTION_BODY)]]
            )
    probe = overlay.attach(0, parse_xpath("//b"))
    overlay.advertise(
        policy or CommunityPolicy(0.5), DocumentCorpus(ELECTION_DOCUMENTS)
    )
    return overlay, probe


def community_pair_calls(
    overlay: BrokerOverlay, victim: int, xpath: str
) -> tuple[Counter, list[tuple[int, ...]], int]:
    """Calls one resubscribe pair of *victim* on broker 0 makes — of
    ``SimilarityIndex`` (``selectivity`` and ``__call__``), of
    ``LSHCandidates`` (``candidates_of`` and ``is_candidate``), of
    ``CommunityPolicy.aggregate`` and of the aggregation diff — and the
    groups it elects; returns them and the fresh id."""
    calls: Counter = Counter()
    elections: list[tuple[int, ...]] = []
    elect = CommunityPolicy._elect

    def recording(policy, group, pattern_of, index):
        elections.append(tuple(group))
        return elect(policy, group, pattern_of, index)

    with ExitStack() as stack:
        for owner, name in (
            (SimilarityIndex, "selectivity"),
            (SimilarityIndex, "__call__"),
            (LSHCandidates, "candidates_of"),
            (LSHCandidates, "is_candidate"),
            (CommunityPolicy, "aggregate"),
            (overlay_module, "_aggregation_diff"),
        ):
            wrapped = counting(calls, name, getattr(owner, name))
            stack.enter_context(mock.patch.object(owner, name, wrapped))
        stack.enter_context(mock.patch.object(CommunityPolicy, "_elect", recording))
        overlay.unsubscribe(victim)
        fresh = overlay.subscribe(0, parse_xpath(xpath))
    return calls, elections, fresh


def first_community(overlay: BrokerOverlay) -> tuple[TreePattern, tuple[int, ...]]:
    """Broker 0's ``//b``-led community, as ``(advertised, members)``."""
    node = overlay.brokers[0]
    return next(
        community
        for community in node.communities
        if overlay.subscriptions[community[1][0]][1] == parse_xpath("//b")
    )


def probe_pair_calls(overlay: BrokerOverlay, probe: int, population: int) -> Counter:
    """The calls of one ``//b`` resubscribe pair of *probe*, checking
    that the fresh ``//b`` joined the first community, that its election
    stood, and that neither event aggregated the broker or diffed its
    aggregation."""
    calls, elections, fresh = community_pair_calls(overlay, probe, "//b")
    advertised, members = first_community(overlay)
    assert fresh in members
    assert advertised == parse_xpath("//a")
    assert elections == []
    assert calls["aggregate"] == calls["_aggregation_diff"] == 0
    if population == POPULATIONS[0]:
        assert (
            overlay.topology_signature() == overlay.rebuilt().topology_signature()
        )
    return calls


def test_community_pair_pays_for_its_community_only():
    counts: dict[int, int] = {}
    for population in POPULATIONS:
        overlay, probe = community_deployed(population)
        counts[population] = probe_pair_calls(overlay, probe, population)[
            "selectivity"
        ]
    small, large = POPULATIONS
    assert counts[large] == counts[small]


def election_tokens(pattern: TreePattern) -> list[tuple]:
    """Shingle *pattern* by the election documents it matches, so that
    LSH pairs ``//a`` with ``//b`` and neither with ``//c``."""
    matched = DocumentCorpus(ELECTION_DOCUMENTS).match_set(pattern)
    return [("doc", position) for position in sorted(matched)]


def test_lsh_community_pair_asks_the_leader_index_once():
    for population in POPULATIONS:
        gate = LSHCandidates(tokens=election_tokens)
        overlay, probe = community_deployed(
            population, CommunityPolicy(0.5, candidates=gate)
        )
        calls = probe_pair_calls(overlay, probe, population)
        # The departure placed nothing; the arrival asked the broker's
        # leader index once, tested no leader pairwise and compared the
        # one leader the index returned.
        assert calls["candidates_of"] == 1, population
        assert calls["is_candidate"] == 0, population
        assert calls["__call__"] == 1, population


def test_a_gated_advertisement_indexes_each_leader_once():
    calls: Counter = Counter()
    add = counting(calls, "add", LSHCandidates.add)
    with mock.patch.object(LSHCandidates, "add", add):
        overlay, _ = community_deployed(
            30, CommunityPolicy(0.5, candidates=LSHCandidates(tokens=election_tokens))
        )
    records = [node.clusters for node in overlay.brokers.values()]
    leaders = sum(len(clusters.communities) for clusters in records)
    assert leaders == 4
    # The clustering's own leader index is the broker's: one add each.
    assert calls["add"] == leaders
    assert [len(clusters.leader_index) for clusters in records] == [2, 2]


def test_a_gated_clustering_returns_the_index_of_its_leaders():
    pattern_of = {
        member: parse_xpath(xpath)
        for member, xpath in enumerate(ELECTION_BODY * 3 + ("//d",))
    }
    clusters = leader_clustering(
        pattern_of,
        SimilarityIndex(DocumentCorpus(ELECTION_DOCUMENTS)),
        0.5,
        candidates=LSHCandidates(tokens=election_tokens),
    )
    leaders = [group[0] for group in clusters.communities]
    assert leaders == [0, 2, 9]
    index = clusters.leader_index
    assert len(index) == len(leaders)
    for leader in leaders:
        assert leader in index.candidates_of(pattern_of[leader])
    found = set().union(*map(index.candidates_of, pattern_of.values()))
    assert found == set(leaders)


def test_retiring_the_elected_member_reelects_its_community_alone():
    overlay, _ = community_deployed(POPULATIONS[0])
    advertised, members = first_community(overlay)
    elected = next(
        member
        for member in members
        if overlay.subscriptions[member][1] == advertised
    )
    assert elected != members[0]
    _, elections, fresh = community_pair_calls(overlay, elected, "//a")
    remaining = tuple(member for member in members if member != elected)
    assert elections == [remaining]
    assert fresh in first_community(overlay)[1]
    assert (
        overlay.topology_signature() == overlay.rebuilt().topology_signature()
    )


# ----------------------------------------------------------------------
# hybrid brokers
# ----------------------------------------------------------------------


def hybrid_pair_calls(overlay: BrokerOverlay, probe: int) -> tuple[Counter, int]:
    """The ``HybridPolicy.aggregate`` and ``leader_clustering`` calls of
    one ``//b`` resubscribe pair of *probe* on broker 0; returns them and
    the fresh id."""
    calls: Counter = Counter()
    with ExitStack() as stack:
        for owner, name in (
            (HybridPolicy, "aggregate"),
            (policy_module, "leader_clustering"),
        ):
            wrapped = counting(calls, name, getattr(owner, name))
            stack.enter_context(mock.patch.object(owner, name, wrapped))
        overlay.unsubscribe(probe)
        fresh = overlay.subscribe(0, parse_xpath("//b"))
    return calls, fresh


def test_hybrid_pair_above_the_cutoff_takes_the_community_rows():
    population = POPULATIONS[0]
    # The pair takes broker 0 from the population and the probe down to
    # the population and back up: above a cutoff one under the
    # population it stays a community broker throughout, while at a
    # cutoff equal to the population it crosses down and back.
    for cutoff, expected in (
        (population - 1, Counter()),
        (population, Counter(aggregate=2, leader_clustering=1)),
    ):
        overlay, probe = community_deployed(
            population, HybridPolicy(0.5, aggregate_above=cutoff)
        )
        calls, fresh = hybrid_pair_calls(overlay, probe)
        assert calls == expected, cutoff
        assert fresh in first_community(overlay)[1]
        assert (
            overlay.topology_signature() == overlay.rebuilt().topology_signature()
        )


# ----------------------------------------------------------------------
# leader departures
# ----------------------------------------------------------------------

#: ``/r/a`` matches documents 0 and 3, ``/r/b`` 0 and 1 and ``/r/c`` 1
#: and 2, so at threshold 0.3 M3 puts ``/r/b`` with either of the others
#: (1/3) and never ``/r/a`` with ``/r/c`` (0).  The population's
#: ``/s/x`` shares no label with them, so the label prefilter never
#: pairs it with one.
CASCADE_DOCUMENTS = [
    XMLTree.from_nested(("r", tags), doc_id=position)
    for position, tags in enumerate((["a", "b"], ["b", "c"], ["c"], ["a"]))
] + [XMLTree.from_nested(("s", ["x"]), doc_id=4)]


def cascade_deployed(population: int) -> tuple[BrokerOverlay, list[int]]:
    """A two-broker chain under :class:`CommunityPolicy` with the label
    prefilter.  Broker 0 homes ``/r/a`` and ``/r/b``,
    then *population* ``/s/x``, then ``/r/c``; broker 1 homes
    *population* ``/s/x``.  ``/r/b`` follows ``/r/a`` and ``/r/c`` leads
    a community of its own.  Returns the overlay and broker 0's three
    ``/r`` subscribers in home order."""
    overlay = BrokerOverlay.chain(2)
    body = parse_xpath("/s/x")
    probes = [overlay.attach(0, parse_xpath(xpath)) for xpath in ("/r/a", "/r/b")]
    for broker_id in sorted(overlay.brokers):
        for _ in range(population):
            overlay.attach(broker_id, body)
    probes.append(overlay.attach(0, parse_xpath("/r/c")))
    overlay.advertise(
        CommunityPolicy(0.3, candidates=ExactCandidates(prefilter_labels=True)),
        DocumentCorpus(CASCADE_DOCUMENTS),
    )
    return overlay, probes


def test_leader_departure_pays_for_the_members_it_moves():
    counts: dict[int, Counter] = {}
    for population in POPULATIONS:
        overlay, (leader, follower, later_leader) = cascade_deployed(population)
        groups = [members for _, members in overlay.brokers[0].communities]
        assert (leader, follower) in groups
        assert (later_leader,) in groups
        calls, _, fresh = community_pair_calls(overlay, leader, "/r/a")
        # Without /r/a, /r/b founded a community that captured /r/c, and
        # the fresh /r/a joined it.
        groups = [members for _, members in overlay.brokers[0].communities]
        assert (follower, later_leader, fresh) in groups
        assert calls["aggregate"] == calls["_aggregation_diff"] == 0
        counts[population] = calls
        if population == POPULATIONS[0]:
            assert (
                overlay.topology_signature()
                == overlay.rebuilt().topology_signature()
            )
    small, large = POPULATIONS
    for name in ("__call__", "selectivity"):
        assert counts[large][name] == counts[small][name], name
