"""Broker lifecycle: persistence, restart, and online subscriber placement.

A content-based broker in production needs more than the core estimator:

1. it must **survive restarts** without replaying the document stream —
   the synopsis serialises to JSON and reloads bit-identically;
2. it must **place newly arriving subscribers** into the best semantic
   community online — a top-k most-similar query against the existing
   subscription population, evaluated purely on the synopsis.

Run:  python examples/broker_lifecycle.py
"""

from __future__ import annotations

import heapq
import os
import tempfile

from repro import DocumentSynopsis, SelectivityEstimator
from repro.core.pattern_parser import parse_xpath, to_xpath
from repro.core.similarity import m3_joint_over_union
from repro.dtd.builtin import nitf_dtd
from repro.experiments.config import DOC_GENERATOR_PRESETS
from repro.generators.docgen import DocumentGenerator
from repro.generators.workload import WorkloadBuilder
from repro.routing.community import leader_clustering
from repro.synopsis.serialize import dump_synopsis, load_synopsis
from repro.xmltree.corpus import DocumentCorpus


def main() -> None:
    dtd = nitf_dtd()
    generator = DocumentGenerator(
        dtd, seed=51, config=DOC_GENERATOR_PRESETS["nitf"]
    )

    # --- day 1: the broker streams documents and serves subscribers -----
    synopsis = DocumentSynopsis(mode="hashes", capacity=64, seed=52)
    documents = list(generator.stream(250))
    for document in documents:
        synopsis.insert_document(document)

    corpus = DocumentCorpus(documents)
    subscriptions = WorkloadBuilder(dtd, corpus, seed=53).build(
        n_positive=25, n_negative=0
    ).positive

    estimator = SelectivityEstimator(synopsis)
    clusters = leader_clustering(
        dict(enumerate(subscriptions)),
        lambda p, q: m3_joint_over_union(estimator, p, q),
        threshold=0.7,
    )
    print(f"day 1: {len(documents)} documents, {len(subscriptions)} subscribers, "
          f"{len(clusters.communities)} semantic communities")

    # --- maintenance window: persist and restart -------------------------
    path = os.path.join(tempfile.mkdtemp(), "synopsis.json")
    dump_synopsis(synopsis, path)
    size_kb = os.path.getsize(path) / 1024
    print(f"persisted synopsis to {path} ({size_kb:.0f} kB)")

    restarted = load_synopsis(path)
    restored_estimator = SelectivityEstimator(restarted)
    check = parse_xpath("//p")
    original = SelectivityEstimator(synopsis).selectivity(check)
    recovered = restored_estimator.selectivity(check)
    print(f"restart check: P(//p) = {original:.4f} before, "
          f"{recovered:.4f} after reload")
    assert original == recovered

    # --- day 2: the restarted broker keeps streaming ---------------------
    for document in generator.stream(100, start_id=250):
        restarted.insert_document(document)
    print(f"day 2: streamed 100 more documents "
          f"({restarted.n_documents} total in the synopsis)")

    # --- a new subscriber arrives ----------------------------------------
    new_subscriber = parse_xpath("//body.content//p")
    scored = (
        (index, m3_joint_over_union(restored_estimator, new_subscriber, pattern))
        for index, pattern in enumerate(subscriptions)
    )
    # Most similar first; among equals, the earlier subscription.
    ranked = heapq.nlargest(3, scored, key=lambda pair: (pair[1], -pair[0]))
    print(f"\nnew subscription {to_xpath(new_subscriber)!r}: closest existing")
    for index, score in ranked:
        print(f"  M3={score:5.3f}  {to_xpath(subscriptions[index])}")

    best_index, best_score = ranked[0]
    community = clusters.group_of[best_index]
    print(
        f"\nplaced next to subscription #{best_index} "
        f"(similarity {best_score:.3f}) in a community of "
        f"{len(community)} members — no exact match sets were ever needed."
    )


if __name__ == "__main__":
    main()
