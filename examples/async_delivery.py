"""Event-driven delivery walkthrough: latency under load.

The overlay benchmarks count match operations; a subscriber cares about
*when* documents arrive.  This example publishes the same NITF stream
through the discrete-event engine at a gentle and at a punishing rate,
under both advertisement regimes, and watches queueing turn routing-table
size into delay:

1. generate an NITF corpus and subscriber patterns, spread over a
   five-broker random tree;
2. advertise per-subscription (exact routing, big tables) and replay the
   stream through :class:`~repro.routing.engine.DeliveryEngine` — FIFO
   queues per broker, service time growing with match operations;
3. aggregate into semantic communities and replay the *identical*
   publish schedule;
4. compare latency percentiles, queueing delay and throughput — and
   verify both runs delivered exactly what the synchronous path routes.

Run:  PYTHONPATH=src python examples/async_delivery.py
"""

from __future__ import annotations

from repro import (
    BrokerOverlay,
    CommunityPolicy,
    DeliveryEngine,
    LinkModel,
    PerSubscriptionPolicy,
    ServiceModel,
)
from repro.dtd.builtin import nitf_dtd
from repro.experiments.config import DOC_GENERATOR_PRESETS
from repro.generators.docgen import generate_documents
from repro.generators.workload import WorkloadBuilder
from repro.xmltree.corpus import DocumentCorpus

N_DOCUMENTS = 200
N_SUBSCRIBERS = 40
N_BROKERS = 5
THRESHOLD = 0.5
RATES = (0.25, 4.0)
SERVICE = ServiceModel(base=0.2, per_match=0.05)
LINKS = LinkModel(default=1.0)


def replay(overlay: BrokerOverlay, corpus: DocumentCorpus, rate: float):
    """One engine run; returns (stats, delivered sets)."""
    engine = DeliveryEngine(overlay, SERVICE, LINKS)
    engine.publish_corpus(corpus, rate=rate)
    return engine.run(), engine.delivered_sets()


def describe(label: str, stats) -> None:
    print(
        f"  {label:20s} p50={stats.latency_p50:7.2f}  "
        f"p95={stats.latency_p95:7.2f}  p99={stats.latency_p99:7.2f}  "
        f"queue delay={stats.queue_delay_mean:6.2f}  "
        f"peak depth={stats.peak_queue_depth:3d}  "
        f"throughput={stats.throughput:5.2f}/t"
    )


def main() -> None:
    dtd = nitf_dtd()
    print(f"generating {N_DOCUMENTS} NITF documents ...")
    documents = generate_documents(
        dtd, N_DOCUMENTS, seed=41, config=DOC_GENERATOR_PRESETS["nitf"]
    )
    corpus = DocumentCorpus(documents)

    print(f"generating {N_SUBSCRIBERS} subscriber patterns ...")
    workload = WorkloadBuilder(dtd, corpus, seed=42).build(
        n_positive=N_SUBSCRIBERS, n_negative=0
    )

    print(f"overlay: {N_BROKERS} brokers in a random tree\n")

    policies = {
        "per_subscription": PerSubscriptionPolicy(),
        "community": CommunityPolicy(THRESHOLD),
    }
    outcomes: dict[str, dict[float, object]] = {}
    for regime, policy in policies.items():
        overlay = BrokerOverlay.random_tree(N_BROKERS, seed=43)
        overlay.attach_round_robin(workload.positive)
        overlay.advertise(policy, corpus)
        table_entries = sum(
            len(node.table) for node in overlay.brokers.values()
        )
        print(f"{regime} advertisement ({table_entries} table entries):")
        synchronous = {
            index: frozenset(
                overlay.route(document, index % N_BROKERS)[0]
            )
            for index, document in enumerate(corpus.documents)
        }
        outcomes[regime] = {}
        for rate in RATES:
            stats, delivered = replay(overlay, corpus, rate)
            outcomes[regime][rate] = stats
            # Whatever the load, the engine must agree with the
            # synchronous path on the full per-document delivery sets.
            assert delivered == synchronous, (regime, rate)
            describe(f"rate {rate:g}/t", stats)
        print()

    high = RATES[-1]
    baseline = outcomes["per_subscription"][high]
    aggregated = outcomes["community"][high]
    print(
        f"at rate {high:g}/t, community aggregation cuts mean queueing "
        f"delay from {baseline.queue_delay_mean:.2f} to "
        f"{aggregated.queue_delay_mean:.2f} time units and lifts "
        f"throughput from {baseline.throughput:.2f} to "
        f"{aggregated.throughput:.2f} documents/t —\n"
        "smaller routing tables mean shorter services, shorter queues, "
        "faster delivery."
    )


if __name__ == "__main__":
    main()
