"""Dynamic broker topology: join/leave with state split and merge.

A long-lived pub/sub deployment does not just churn subscribers — the
broker fleet itself grows, shrinks and reorganises.  This walkthrough
drives the topology lifecycle end to end:

1. build an NITF corpus and a 4-broker overlay with community-aggregated
   advertisement;
2. **grow** the fleet: graft a leaf broker under a loaded one (it is
   seeded with exactly the advertisement state its parent has forwarded
   — nothing re-floods elsewhere), then split a congested edge with a
   relay broker (pure re-keying, zero advertisement traffic for the
   rename);
3. migrate subscribers onto the newcomers with the ordinary
   subscription lifecycle;
4. **shrink** it again: retire brokers, letting ``remove_broker``
   withdraw their advertisements, re-home their subscribers and
   transplant their reversible-covering state onto a merge target;
5. verify the headline property after every operation: routing state is
   identical to a from-scratch rebuild of the surviving topology, yet
   the overlay never paid for a full re-flood;
6. replay a broker leave *mid-simulation* through the event engine —
   in-flight documents are re-routed to the merge target, and every
   delivery still happens.

Run:  PYTHONPATH=src python examples/topology_churn.py
"""

from __future__ import annotations

from repro import BrokerOverlay, CommunityPolicy, DeliveryEngine
from repro.dtd.builtin import nitf_dtd
from repro.experiments.config import DOC_GENERATOR_PRESETS
from repro.generators.docgen import generate_documents
from repro.generators.workload import WorkloadBuilder
from repro.routing.engine import LinkModel, ServiceModel
from repro.xmltree.corpus import DocumentCorpus

N_DOCUMENTS = 200
N_INITIAL = 20
N_BROKERS = 4
THRESHOLD = 0.5


def assert_rebuild_equal(overlay: BrokerOverlay) -> None:
    """The zero-decay check: churned state equals a fresh rebuild."""
    rebuilt = overlay.rebuilt()
    assert overlay.topology_signature() == rebuilt.topology_signature()


def main() -> None:
    dtd = nitf_dtd()
    print(f"generating {N_DOCUMENTS} NITF documents ...")
    documents = generate_documents(
        dtd, N_DOCUMENTS, seed=51, config=DOC_GENERATOR_PRESETS["nitf"]
    )
    corpus = DocumentCorpus(documents)
    workload = WorkloadBuilder(dtd, corpus, seed=52).build(
        n_positive=N_INITIAL + 6, n_negative=0
    )
    patterns = workload.positive
    initial, reserve = patterns[:N_INITIAL], patterns[N_INITIAL:]

    overlay = BrokerOverlay.random_tree(N_BROKERS, seed=53)
    overlay.attach_round_robin(initial)
    overlay.advertise(CommunityPolicy(THRESHOLD), corpus)
    settled = overlay.advertisement_messages
    print(
        f"day 0: {len(overlay.brokers)} brokers, "
        f"{len(overlay.subscriptions)} subscribers, "
        f"{settled} advertisement messages to settle"
    )

    # -- grow ----------------------------------------------------------
    busiest = max(
        overlay.brokers,
        key=lambda b: len(overlay.brokers[b].local_subscribers),
    )
    leaf = overlay.add_broker(busiest)
    grafted = overlay.advertisement_messages - settled
    print(
        f"grafted broker {int(leaf)} under {busiest}: seeded with "
        f"{grafted} messages over its one link, nothing re-flooded"
    )
    assert_rebuild_equal(overlay)

    edge_end = overlay.brokers[busiest].neighbors[0]
    before = overlay.advertisement_messages
    relay = overlay.add_broker(busiest, split=edge_end)
    print(
        f"split edge {busiest} — {edge_end} with relay {int(relay)}: "
        f"{overlay.advertisement_messages - before} messages "
        "(re-keying the link state is free; only the relay is seeded)"
    )
    assert_rebuild_equal(overlay)

    for position, pattern in enumerate(reserve):
        overlay.subscribe(leaf if position % 2 else relay, pattern)
    stats = overlay.route_corpus(corpus)
    print(
        f"after migration: {len(overlay.brokers)} brokers, "
        f"precision {stats.precision:.3f}, recall {stats.recall:.3f}"
    )

    # -- shrink --------------------------------------------------------
    before = overlay.advertisement_messages
    target = overlay.remove_broker(relay)
    print(
        f"retired relay {int(relay)} into {int(target)}: "
        f"{overlay.advertisement_messages - before} messages to withdraw, "
        "transplant and re-aggregate"
    )
    assert_rebuild_equal(overlay)

    before = overlay.advertisement_messages
    overlay.remove_broker(busiest)
    print(
        f"retired the (ex-)busiest broker {busiest}: "
        f"{overlay.advertisement_messages - before} messages; its "
        "subscribers now live on the merge target"
    )
    assert_rebuild_equal(overlay)
    stats = overlay.route_corpus(corpus)
    print(
        f"after shrinking: {len(overlay.brokers)} brokers, "
        f"precision {stats.precision:.3f}, recall {stats.recall:.3f} — "
        "tables still equal a from-scratch rebuild"
    )

    # -- a leave in the middle of a live simulation --------------------
    overlay = BrokerOverlay.chain(4)
    overlay.attach_round_robin(initial)
    overlay.advertise(CommunityPolicy(THRESHOLD), corpus)
    engine = DeliveryEngine(
        overlay,
        ServiceModel(base=0.3, per_match=0.02),
        LinkModel(default=1.0),
    )
    engine.publish_corpus(corpus, rate=4.0)
    retiring = 1
    engine.schedule_leave(5.0, retiring)
    timing = engine.run()
    when, event, merged = engine.topology_log[0]
    print(
        f"mid-simulation: broker {event.broker_id} left at t={when:g}, "
        f"merged into {merged}; {timing.deliveries} deliveries completed "
        f"(p95 latency {timing.latency_p95:.2f}), none lost to the churn"
    )


if __name__ == "__main__":
    main()
