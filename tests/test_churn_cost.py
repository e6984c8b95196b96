"""Per-event churn cost under the per-subscription policy, pinned by
call counts.

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
"""

from __future__ import annotations

from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass
from unittest import mock

import pytest

import repro.routing.overlay as overlay_module
from repro.core.pattern import TreePattern
from repro.core.pattern_parser import parse_xpath
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import PerSubscriptionPolicy


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
        assert overlay.brokers[0].aggregation[(fresh,)] == (
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


def test_a_burst_still_takes_the_full_path():
    layout = LAYOUTS["unique"]
    overlay, probe = deployed(layout, 8, shared=True)
    calls: Counter = Counter()
    aggregate = counting(calls, "aggregate", PerSubscriptionPolicy.aggregate)
    with mock.patch.object(PerSubscriptionPolicy, "aggregate", aggregate):
        overlay.unsubscribe_many([probe])
        overlay.subscribe_many(0, [parse_xpath(layout.probe)])
    assert calls["aggregate"] == 2
    assert (
        overlay.topology_signature() == overlay.rebuilt().topology_signature()
    )
