"""Semantic communities for content-based routing (the paper's motivation).

Builds the full pub/sub scenario from Section 1:

1. generate an NITF news corpus and a population of subscriber patterns;
2. estimate pairwise subscription similarities *from the synopsis only*
   (a real broker never sees exact match sets in advance);
3. cluster subscribers into semantic communities at several similarity
   thresholds;
4. route the corpus through a one-broker overlay and compare delivery
   precision/recall and filtering cost against per-subscription matching
   and flooding.

Run:  python examples/routing_communities.py
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


def main() -> None:
    dtd = nitf_dtd()
    print(f"generating {N_DOCUMENTS} NITF documents ...")
    documents = generate_documents(
        dtd, N_DOCUMENTS, seed=21, config=DOC_GENERATOR_PRESETS["nitf"]
    )
    corpus = DocumentCorpus(documents)

    print(f"generating {N_SUBSCRIBERS} subscriber patterns ...")
    workload = WorkloadBuilder(dtd, corpus, seed=22).build(
        n_positive=N_SUBSCRIBERS, n_negative=0
    )
    subscriptions = workload.positive

    # The broker's knowledge: a synopsis of the stream, nothing exact.
    synopsis = DocumentSynopsis(mode="hashes", capacity=64, seed=23)
    for document in documents:
        synopsis.insert_document(document)
    estimator = SelectivityEstimator(synopsis)

    # One broker matching pattern by pattern: one match operation per
    # routing-table entry.
    overlay = BrokerOverlay(1, [], matching="linear")
    overlay.attach_round_robin(subscriptions)
    overlay.advertise(PerSubscriptionPolicy())
    exact = overlay.route_corpus(corpus)
    flood = overlay.flooding_stats(corpus)

    print()
    header = (
        f"{'strategy':28s} {'comm.':>5s} {'precision':>9s} "
        f"{'recall':>7s} {'matches/doc':>11s}"
    )
    print(header)
    print("-" * len(header))

    def show(strategy, stats, communities="-"):
        print(
            f"{strategy:28s} {communities:>5} {stats.precision:9.3f} "
            f"{stats.recall:7.3f} {stats.matches_per_document:11.1f}"
        )

    show("per_subscription", exact)
    show("flooding", flood)
    for threshold in (0.9, 0.7, 0.5, 0.3):
        # Each community is filtered by its leader, the first member the
        # greedy clustering placed.
        overlay.advertise(
            CommunityPolicy(
                threshold, elect_by_selectivity=False, ratio_prefilter=False
            ),
            estimator,
        )
        stats = overlay.route_corpus(corpus)
        show(
            f"community(threshold={threshold})",
            stats,
            str(len(overlay.brokers[0].communities)),
        )

    print(
        "\nLower thresholds build fewer, larger communities: filtering cost\n"
        "(matches/doc) falls while precision/recall degrade gracefully —\n"
        "the trade-off the similarity metrics let a routing layer tune."
    )


if __name__ == "__main__":
    main()
