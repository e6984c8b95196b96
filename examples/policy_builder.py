"""Policy-driven overlay composition: one deployment, swappable policies.

Everything the routing layer can vary is a first-class policy object
here, handed to the part it configures:

1. build an NITF corpus and subscriber population;
2. assemble the deployment from its parts: a broker tree
   (``BrokerOverlay.random_tree``), round-robin homes
   (``attach_round_robin``), an advertisement policy scored by a
   selectivity provider (``advertise(policy, provider)``), and a
   :class:`~repro.routing.engine.DeliveryEngine` with its timing models
   and scheduling policy;
3. compare three advertisement policies on the same membership —
   per-subscription, community, and the hybrid that aggregates only the
   brokers holding enough subscriptions to be worth it;
4. replay a class-tagged publish stream under FIFO and priority
   scheduling and watch the per-class latency percentiles split: the
   high class buys its tail latency with the low class's queueing time;
5. absorb a subscription burst through the batch churn API — one
   re-aggregation, one advertisement diff.

Run:  PYTHONPATH=src python examples/policy_builder.py
"""

from __future__ import annotations

from repro import (
    BrokerOverlay,
    CommunityPolicy,
    DeliveryEngine,
    FifoScheduling,
    HybridPolicy,
    LinkModel,
    PerSubscriptionPolicy,
    PriorityScheduling,
    ServiceModel,
)
from repro.dtd.builtin import nitf_dtd
from repro.experiments.config import DOC_GENERATOR_PRESETS
from repro.generators.docgen import generate_documents
from repro.generators.workload import WorkloadBuilder
from repro.xmltree.corpus import DocumentCorpus

N_DOCUMENTS = 200
N_SUBSCRIBERS = 36
N_BROKERS = 5
THRESHOLD = 0.5
RATE = 4.0
CLASSES = (0, 1, 2)
SERVICE = ServiceModel(base=0.2, per_match=0.05)
LINKS = LinkModel(default=1.0)


def main() -> None:
    dtd = nitf_dtd()
    print(f"generating {N_DOCUMENTS} NITF documents ...")
    documents = generate_documents(
        dtd, N_DOCUMENTS, seed=61, config=DOC_GENERATOR_PRESETS["nitf"]
    )
    corpus = DocumentCorpus(documents)
    workload = WorkloadBuilder(dtd, corpus, seed=62).build(
        n_positive=N_SUBSCRIBERS + 6, n_negative=0
    )
    patterns = workload.positive[:N_SUBSCRIBERS]
    burst = workload.positive[N_SUBSCRIBERS:]

    def deploy(policy):
        """A fresh overlay: the tree, the homes and *policy*'s tables."""
        overlay = BrokerOverlay.random_tree(N_BROKERS, seed=63)
        overlay.attach_round_robin(patterns)
        overlay.advertise(policy, corpus)
        return overlay

    # --- one membership, three advertisement policies -------------------
    print("\nadvertisement policies on the same membership:")
    header = f"  {'policy':44s} {'tables':>6s} {'precision':>9s} {'recall':>7s}"
    print(header)
    print("  " + "-" * (len(header) - 2))
    for policy in (
        PerSubscriptionPolicy(),
        CommunityPolicy(THRESHOLD),
        HybridPolicy(THRESHOLD, aggregate_above=8),
    ):
        overlay = deploy(policy)
        stats = overlay.route_corpus(corpus)
        print(
            f"  {overlay.mode:44s} {stats.total_table_entries:6d} "
            f"{stats.precision:9.3f} {stats.recall:7.3f}"
        )

    # --- one overlay, two scheduling policies ---------------------------
    overlay = deploy(PerSubscriptionPolicy())
    print(
        f"\nscheduling at rate {RATE:g}/t (classes cycle {CLASSES}, "
        "class 2 is the paying tier):"
    )
    for scheduling in (FifoScheduling(), PriorityScheduling()):
        engine = DeliveryEngine(overlay, SERVICE, LINKS, scheduling)
        engine.publish_corpus(corpus, rate=RATE, classes=CLASSES)
        stats = engine.run()
        digest = ", ".join(
            f"class {cls}: p99={d.p99:6.2f}"
            for cls, d in sorted(stats.latency_by_class.items())
        )
        print(f"  {scheduling!r:28} {digest}")

    # --- batch churn ----------------------------------------------------
    overlay = deploy(CommunityPolicy(THRESHOLD))
    before = overlay.advertisement_messages
    subscription_ids = overlay.subscribe_many(0, burst)
    print(
        f"\nbatch churn: {len(subscription_ids)} arrivals at broker 0 "
        f"absorbed in one re-aggregation "
        f"({overlay.advertisement_messages - before} ad messages)"
    )
    overlay.unsubscribe_many(subscription_ids)
    print(
        "burst retired again; total ad traffic "
        f"{overlay.advertisement_messages - before} messages for the "
        "round trip"
    )


if __name__ == "__main__":
    main()
