"""Every change the overlay applies equals the full multiset diff.

On every churn event ``BrokerOverlay._reaggregate`` changes a broker's
deliver entries and advertisements by the difference between its
aggregation before and after the event.  It gets that difference one of
two ways: a single event under the per-subscription policy or the
community policy has its policy name the aggregates it
changes (``_edited_record``), and any other event compares the previous
aggregation record with a fresh one under each leader, a group's first
member (``_aggregation_diff``).  This suite pins that the departed and
arriving entries still equal, element for element and in order, the
full ``Counter`` diff of the two aggregations as lists:

* on arbitrary pairs of records, each with unique leaders, where edits
  add, drop and reorder groups and keep a leader while changing its
  group or its pattern — the case a diff that looked at the leaders
  alone would miss;
* on every change a live overlay applies under the per-subscription,
  community and hybrid policies across subscribe, unsubscribe and burst
  interleavings, against the diff of each broker's aggregation
  recomputed from scratch before and after the event.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.routing.overlay as overlay_module
from repro.core.pattern_parser import parse_xpath
from repro.routing.overlay import BrokerOverlay
from repro.xmltree.corpus import DocumentCorpus
from tests.strategies import property_max_examples, tree_patterns
from tests.test_selectivity_properties import corpora
from tests.test_topology_properties import POLICIES


def counter_diff(old, fresh):
    """The full-list multiset diff (the reference)."""
    surplus_old = Counter(old) - Counter(fresh)
    surplus_fresh = Counter(fresh) - Counter(old)
    departed = []
    for entry in old:
        if surplus_old[entry] > 0:
            surplus_old[entry] -= 1
            departed.append(entry)
    unmatched = []
    for entry in fresh:
        if surplus_fresh[entry] > 0:
            surplus_fresh[entry] -= 1
            unmatched.append(entry)
    return departed, unmatched


XPATHS = ("/a", "/a/b", "//c")
GROUPS = ((0,), (1,), (2,), (0, 1), (1, 2))


@st.composite
def edited_records(draw):
    """An aggregation record and an edit of it, over few member groups.

    Each record keys its entries by leader, so ``(0,)`` and ``(0, 1)``
    compete for one key.  Each pattern is parsed afresh, so equal
    patterns are distinct objects.
    """

    def entry(group, label):
        return parse_xpath(draw(st.sampled_from(XPATHS), label=label)), group

    groups = draw(
        st.lists(st.sampled_from(GROUPS), unique_by=lambda group: group[0]),
        label="old",
    )
    old = {group[0]: entry(group, f"old{group}") for group in groups}
    fresh = dict(old)
    for step in range(draw(st.integers(0, 4), label="edits")):
        kind = draw(st.sampled_from(["set", "drop", "shuffle"]))
        group = draw(st.sampled_from(GROUPS), label=f"group{step}")
        if kind == "set":
            # A kept leader keeps its place and may change its group or
            # its pattern.
            fresh[group[0]] = entry(group, f"new{step}")
        elif kind == "drop":
            fresh.pop(group[0], None)
        else:
            fresh = dict(
                draw(st.permutations(list(fresh.items())), label=f"order{step}")
            )
    return old, fresh


def full_aggregation(overlay, broker_id):
    """The broker's aggregation recomputed from scratch: the live policy
    over its advertised subscriptions in home order, with a fresh index
    and no clustering record."""
    # Every subscription of this suite is advertised: the seeds before
    # the bulk advertisement, the rest through the live policy.
    advertised = {
        member: overlay.subscriptions[member][1]
        for member in overlay.brokers[broker_id].local_subscribers
    }
    index = None
    if overlay.policy.uses_similarity:
        index = overlay.policy.make_index(overlay.provider)
    return overlay.policy.aggregate(advertised, index)


def full_aggregations(overlay):
    return {
        broker_id: full_aggregation(overlay, broker_id)
        for broker_id in overlay.brokers
    }


def churn_ops(overlay, patterns, data):
    """Subscribe, unsubscribe and burst events in a random interleaving.

    Yields after every event.
    """
    live = list(overlay.subscriptions)
    homes = sorted(overlay.brokers)
    for step in range(data.draw(st.integers(1, 6), label="ops")):
        choices = ["subscribe", "burst-subscribe"]
        if live:
            choices += ["unsubscribe", "burst-unsubscribe"]
        op = data.draw(st.sampled_from(choices), label=f"op{step}")
        if op == "subscribe":
            live.append(
                overlay.subscribe(
                    data.draw(st.sampled_from(homes), label="home"),
                    data.draw(st.sampled_from(patterns), label="pattern"),
                )
            )
        elif op == "burst-subscribe":
            home = data.draw(st.sampled_from(homes), label="home")
            arrivals = data.draw(
                st.lists(st.sampled_from(patterns), min_size=1, max_size=3),
                label="arrivals",
            )
            live.extend(overlay.subscribe_many(home, arrivals))
        elif op == "unsubscribe":
            victim = data.draw(st.sampled_from(live), label="victim")
            live.remove(victim)
            overlay.unsubscribe(victim)
        else:
            victims = data.draw(
                st.lists(st.sampled_from(live), min_size=1, unique=True),
                label="victims",
            )
            for victim in victims:
                live.remove(victim)
            overlay.unsubscribe_many(victims)
        yield op


class TestCommunityDiff:
    @settings(max_examples=property_max_examples(200), deadline=None)
    @given(edited_records())
    def test_keyed_diff_equals_counter_diff(self, records):
        old, fresh = records
        assert overlay_module._aggregation_diff(old, fresh) == counter_diff(
            list(old.values()), list(fresh.values())
        )

    @settings(max_examples=property_max_examples(200), deadline=None)
    @given(edited_records(), st.data())
    def test_single_event_edit_equals_counter_diff(self, records, data):
        # Both records ascend by leader, as every policy's aggregation
        # does; the edit names, in ascending order, each leader whose
        # entry changed, and maybe some whose entry stands.
        old, fresh = (dict(sorted(record.items())) for record in records)
        edit = {
            leader: fresh.get(leader)
            for leader in sorted(old.keys() | fresh.keys())
            if old.get(leader) != fresh.get(leader)
            or data.draw(st.booleans(), label=f"names {leader}")
        }
        record, departed, unmatched = overlay_module._edited_record(
            dict(old), edit
        )
        assert list(record.items()) == list(fresh.items())
        assert (departed, unmatched) == counter_diff(
            list(old.values()), list(fresh.values())
        )

    @settings(max_examples=property_max_examples(15), deadline=None)
    @given(
        corpora(),
        st.lists(tree_patterns(), min_size=1, max_size=5),
        st.sampled_from([name for name, _ in POLICIES]),
        st.data(),
    )
    def test_every_churn_diff_equals_counter_diff(
        self, docs, patterns, policy_name, data
    ):
        corpus = DocumentCorpus(docs)
        policy = dict(POLICIES)[policy_name]()
        overlay = BrokerOverlay.build("random_tree", 3, seed=3)
        seeds = data.draw(
            st.lists(st.sampled_from(patterns), max_size=6), label="seeds"
        )
        for position, pattern in enumerate(seeds):
            overlay.attach(position % 3, pattern)
        overlay.advertise(policy, corpus if policy.uses_similarity else None)
        diffs = []
        applied = []
        apply_change = BrokerOverlay._apply_change

        def recording(self, broker_id, departed, unmatched):
            applied.append((broker_id, list(departed), list(unmatched)))
            return apply_change(self, broker_id, departed, unmatched)

        before = full_aggregations(overlay)
        with mock.patch.object(BrokerOverlay, "_apply_change", recording):
            for op in churn_ops(overlay, patterns, data):
                after = full_aggregations(overlay)
                changed = {
                    broker_id
                    for broker_id, aggregation in after.items()
                    if aggregation != before[broker_id]
                }
                touched = [broker_id for broker_id, _, _ in applied]
                # One change per broker the event moved, applied once.
                assert len(set(touched)) == len(touched), op
                assert changed <= set(touched), op
                for broker_id, departed, unmatched in applied:
                    assert (departed, unmatched) == counter_diff(
                        before[broker_id], after[broker_id]
                    ), (op, broker_id)
                diffs.extend(applied)
                applied.clear()
                before = after
        assert diffs
