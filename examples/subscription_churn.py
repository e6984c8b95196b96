"""Subscription churn: the event-driven broker lifecycle, end to end.

A production pub/sub overlay never sees a frozen subscriber population —
consumers come and go continuously.  This walkthrough drives the
lifecycle API:

1. build an NITF corpus, a stream synopsis (the only knowledge a real
   broker has), and a 4-broker overlay with community-aggregated
   advertisement over per-broker live ``SimilarityIndex`` engines;
2. churn the population: ``subscribe`` events re-aggregate only the home
   broker's touched communities, ``unsubscribe`` events withdraw
   advertisements hop-by-hop, resurrecting entries their pattern covered;
3. verify the headline property: after arbitrary churn, the routing state
   is identical to a from-scratch rebuild over the survivors — tables
   never decay, yet no epoch-wide rebuild ever runs;
4. inspect the engine's accounting: how much pairwise similarity work the
   index memo and the tag-disjointness prefilter avoided.

Run:  PYTHONPATH=src python examples/subscription_churn.py
"""

from __future__ import annotations

import random

from repro import (
    BrokerOverlay,
    CommunityPolicy,
    DocumentSynopsis,
    SelectivityEstimator,
)
from repro.dtd.builtin import nitf_dtd
from repro.experiments.config import DOC_GENERATOR_PRESETS
from repro.generators.docgen import generate_documents
from repro.generators.workload import WorkloadBuilder
from repro.xmltree.corpus import DocumentCorpus

N_DOCUMENTS = 250
N_INITIAL = 24
N_BROKERS = 4
THRESHOLD = 0.5
EPOCHS = 4
CHURN_PER_EPOCH = 5


def routing_state(overlay: BrokerOverlay) -> dict:
    """Forward routing entries per broker (delivery groups vary with ids)."""
    return {
        broker_id: {
            entry.pattern
            for entry in node.table
            if entry.destination[0] == "forward"
        }
        for broker_id, node in overlay.brokers.items()
    }


def main() -> None:
    dtd = nitf_dtd()
    print(f"generating {N_DOCUMENTS} NITF documents ...")
    documents = generate_documents(
        dtd, N_DOCUMENTS, seed=41, config=DOC_GENERATOR_PRESETS["nitf"]
    )
    corpus = DocumentCorpus(documents)

    synopsis = DocumentSynopsis(mode="hashes", capacity=64, seed=42)
    for document in documents:
        synopsis.insert_document(document)
    estimator = SelectivityEstimator(synopsis)

    workload = WorkloadBuilder(dtd, corpus, seed=43).build(
        n_positive=N_INITIAL + EPOCHS * CHURN_PER_EPOCH, n_negative=0
    )
    patterns = workload.positive
    initial, reserve = patterns[:N_INITIAL], patterns[N_INITIAL:]

    # Synopsis joint estimates need not respect the min(P) bound the
    # selectivity-ratio prefilter relies on; keep the estimator's raw
    # clustering.
    policy = CommunityPolicy(THRESHOLD, ratio_prefilter=False)
    overlay = BrokerOverlay.random_tree(N_BROKERS, seed=44)
    overlay.attach_round_robin(initial)
    overlay.advertise(policy, estimator)
    stats = overlay.route_corpus(corpus)
    print(
        f"day 0: {len(overlay.subscriptions)} subscribers, "
        f"{stats.total_table_entries} table entries, "
        f"precision {stats.precision:.3f}, recall {stats.recall:.3f}"
    )

    rng = random.Random(45)
    arrivals = iter(reserve)
    for epoch in range(1, EPOCHS + 1):
        for victim in rng.sample(
            sorted(overlay.subscriptions), k=CHURN_PER_EPOCH
        ):
            overlay.unsubscribe(victim)
        for _ in range(CHURN_PER_EPOCH):
            overlay.subscribe(
                rng.randrange(N_BROKERS), next(arrivals)
            )
        stats = overlay.route_corpus(corpus)
        print(
            f"epoch {epoch}: churned {CHURN_PER_EPOCH}+{CHURN_PER_EPOCH}, "
            f"{stats.total_table_entries} table entries, "
            f"precision {stats.precision:.3f}, recall {stats.recall:.3f}, "
            f"{overlay.advertisement_messages} cumulative ad messages"
        )

    # The zero-decay property: rebuilding from the survivors changes nothing.
    rebuilt = BrokerOverlay.build("random_tree", N_BROKERS, seed=44)
    for home_id, pattern in overlay.subscriptions.values():
        rebuilt.attach(home_id, pattern)
    rebuilt.advertise(policy, provider=estimator)
    assert routing_state(overlay) == routing_state(rebuilt)
    print("zero decay: churned overlay matches a from-scratch rebuild")

    pairs = evaluated = pruned = 0
    for node in overlay.brokers.values():
        if node.index is None:
            continue
        population = len(node.advertised)
        pairs += population * (population - 1) // 2
        evaluated += node.index.stats.joint_evaluated
        pruned += node.index.stats.joint_pruned
    print(
        f"similarity engine: {evaluated} joint-selectivity probes served "
        f"every clustering across {EPOCHS * 2 * CHURN_PER_EPOCH} churn "
        f"events ({pairs} pairs still live, {pruned} pruned as tag-disjoint)"
    )


if __name__ == "__main__":
    main()
