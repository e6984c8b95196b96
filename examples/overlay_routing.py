"""Multi-broker overlay routing walkthrough.

The full scalable-routing story of the paper, end to end:

1. generate an NITF news corpus and a population of subscriber patterns;
2. arrange five brokers in a random tree and spread the subscribers over
   them;
3. advertise under :class:`PerSubscriptionPolicy` first — exact routing,
   maximal state — and watch containment covering prune the
   advertisement flood;
4. then swap the advertisement policy: :class:`CommunityPolicy` clusters
   each broker's local subscribers into semantic communities over a live
   similarity index (fed by a *synopsis*, the only stream knowledge a
   real broker has) and advertises one pattern per community;
5. route the document stream end-to-end and compare filtering cost,
   routing state and delivery quality.

The regimes are first-class policy objects — switching regime is
``overlay.advertise(policy, provider)``, not a different code path.

Run:  PYTHONPATH=src python examples/overlay_routing.py
"""

from __future__ import annotations

from repro import (
    BrokerOverlay,
    CommunityPolicy,
    DocumentSynopsis,
    PerSubscriptionPolicy,
    SelectivityEstimator,
)
from repro.dtd.builtin import nitf_dtd
from repro.experiments.config import DOC_GENERATOR_PRESETS
from repro.generators.docgen import generate_documents
from repro.generators.workload import WorkloadBuilder
from repro.xmltree.corpus import DocumentCorpus

N_DOCUMENTS = 300
N_SUBSCRIBERS = 40
N_BROKERS = 5


def main() -> None:
    dtd = nitf_dtd()
    print(f"generating {N_DOCUMENTS} NITF documents ...")
    documents = generate_documents(
        dtd, N_DOCUMENTS, seed=31, config=DOC_GENERATOR_PRESETS["nitf"]
    )
    corpus = DocumentCorpus(documents)

    print(f"generating {N_SUBSCRIBERS} subscriber patterns ...")
    workload = WorkloadBuilder(dtd, corpus, seed=32).build(
        n_positive=N_SUBSCRIBERS, n_negative=0
    )

    overlay = BrokerOverlay.random_tree(N_BROKERS, seed=33)
    overlay.attach_round_robin(workload.positive)
    overlay.advertise(PerSubscriptionPolicy())
    print(f"\noverlay: {N_BROKERS} brokers in a random tree")
    for node in overlay.brokers.values():
        print(
            f"  broker {node.broker_id}: neighbors={node.neighbors} "
            f"local subscribers={len(node.local_subscribers)}"
        )

    # The brokers' knowledge of the stream: a synopsis, nothing exact.
    synopsis = DocumentSynopsis(mode="hashes", capacity=64, seed=34)
    for document in documents:
        synopsis.insert_document(document)
    estimator = SelectivityEstimator(synopsis)

    per_subscription = overlay.route_corpus(corpus)

    header = (
        f"{'regime':24s} {'ops':>7s} {'tables':>6s} {'ads':>5s} "
        f"{'precision':>9s} {'recall':>7s}"
    )
    print()
    print(header)
    print("-" * len(header))

    def show(stats, label):
        print(
            f"{label:24s} {stats.match_operations:7d} "
            f"{stats.total_table_entries:6d} "
            f"{stats.advertisement_messages:5d} "
            f"{stats.precision:9.3f} {stats.recall:7.3f}"
        )

    show(per_subscription, "per_subscription")
    for threshold in (0.7, 0.5, 0.3):
        # Synopsis joint estimates need not respect the min(P) bound the
        # selectivity-ratio prefilter relies on; keep the estimator's raw
        # clustering.
        policy = CommunityPolicy(threshold, ratio_prefilter=False)
        overlay.advertise(policy, provider=estimator)
        show(overlay.route_corpus(corpus), f"community(th={threshold})")

    print(
        "\nAggregating subscriptions into communities cuts the network-wide\n"
        "filtering cost, increasingly so as the threshold drops (routing\n"
        "state follows at the more aggressive thresholds), while delivery\n"
        "quality degrades gracefully — the scalability trade-off the\n"
        "similarity metrics let an overlay tune."
    )


if __name__ == "__main__":
    main()
