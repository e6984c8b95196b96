"""Batched queue drains walkthrough: amortising the hot documents.

A saturated broker rarely sees one document at a time — its FIFO holds a
backlog, and real feeds repeat their hot documents.  This example pushes
a Zipf-skewed NITF stream through the discrete-event engine twice:

1. unbatched — the affine :class:`~repro.routing.engine.ServiceModel`,
   one document per service interval, every match paid cold;
2. batched — a :class:`~repro.routing.engine.BatchServiceModel`: each
   freed broker drains up to ``max_batch`` queued documents through one
   shared trie memo pool, so the service interval's cost grows with the
   batch's *distinct* structure (the measured op count), not its length;

then compares measured match operations, batch sizes, queueing delay and
latency — and verifies both runs delivered exactly the same per-document
sets, because batching is a scheduling decision, not a routing one.

Run:  PYTHONPATH=src python examples/batched_delivery.py
"""

from __future__ import annotations

import random

from repro import (
    BatchServiceModel,
    BrokerOverlay,
    DeliveryEngine,
    LinkModel,
    PerSubscriptionPolicy,
    ServiceModel,
)
from repro.dtd.builtin import nitf_dtd
from repro.generators.docgen import DocumentGenerator
from repro.generators.querygen import PatternGenerator
from repro.generators.zipf import ZipfSampler
from repro.xmltree.corpus import DocumentCorpus
from repro.xmltree.tree import XMLTree

N_DOCUMENTS = 120
POOL_SIZE = 10
SKEW_THETA = 1.2
N_SUBSCRIBERS = 60
N_BROKERS = 4
RATE = 6.0
MAX_BATCH = 8


def skewed_corpus(dtd) -> DocumentCorpus:
    """A hot-document stream: Zipf-sampled repeats from a small pool."""
    pool_gen = DocumentGenerator(dtd, seed=33)
    pool = [pool_gen.generate() for _ in range(POOL_SIZE)]
    sampler = ZipfSampler(POOL_SIZE, theta=SKEW_THETA, rng=random.Random(5))
    documents = []
    for doc_id in range(N_DOCUMENTS):
        # Corpus ids must be unique, so each repeat is a fresh XMLTree
        # sharing the pooled document's structure arrays.
        hot = pool[sampler.sample()]
        documents.append(
            XMLTree(hot.labels, hot.parents, hot.children, doc_id=doc_id)
        )
    return DocumentCorpus(documents)


def replay(patterns, service: ServiceModel, corpus: DocumentCorpus):
    """One engine run over a freshly advertised overlay; returns (stats,
    delivered sets)."""
    overlay = BrokerOverlay.random_tree(N_BROKERS, seed=43)
    overlay.attach_round_robin(patterns)
    overlay.advertise(PerSubscriptionPolicy())
    engine = DeliveryEngine(overlay, service, LinkModel(default=0.5))
    engine.publish_corpus(corpus, rate=RATE)
    return engine.run(), engine.delivered_sets()


def main() -> None:
    dtd = nitf_dtd()
    print(
        f"generating a {N_DOCUMENTS}-document stream "
        f"({POOL_SIZE} distinct documents, Zipf θ={SKEW_THETA}) ..."
    )
    corpus = skewed_corpus(dtd)
    patterns = PatternGenerator(dtd, seed=7).generate_many(
        N_SUBSCRIBERS, distinct=False
    )

    print(f"overlay: {N_BROKERS} brokers in a random tree\n")

    unbatched_stats, unbatched_sets = replay(
        patterns, ServiceModel(base=0.3, per_match=0.01), corpus
    )
    batched_stats, batched_sets = replay(
        patterns,
        BatchServiceModel(
            base=0.3, per_match=0.01, per_doc=0.05, max_batch=MAX_BATCH
        ),
        corpus,
    )

    # Batching changes scheduling, never routing.
    assert batched_sets == unbatched_sets

    for label, stats in (
        ("unbatched", unbatched_stats),
        (f"batched (≤{MAX_BATCH})", batched_stats),
    ):
        print(
            f"  {label:14s} services={stats.service_batches:4d}  "
            f"mean batch={stats.mean_batch_size:4.2f}  "
            f"match ops={stats.match_operations:6d}  "
            f"queue delay={stats.queue_delay_mean:6.2f}  "
            f"p95 latency={stats.latency_p95:7.2f}"
        )

    saved = unbatched_stats.match_operations - batched_stats.match_operations
    print(
        f"\nsame {len(unbatched_sets)} delivery sets in both runs; the "
        f"shared memo pool saved {saved} match operations "
        f"({saved / unbatched_stats.match_operations:.0%}) and the "
        f"per-drain base cost amortised over "
        f"{batched_stats.mean_batch_size:.2f} documents a service —\n"
        "the queue's repetition becomes the broker's discount."
    )


if __name__ == "__main__":
    main()
