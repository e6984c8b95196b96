"""Golden digest of the matching kernel's observable outputs at NITF scale.

The trie/table hot path may be rewritten for speed only if it walks the
same traversal: the same table-order destination lists, the same trie
operation counts and, in batches, the same memo hits and misses.  This
test pins all of them for a fixed deployment — an 8-broker random tree
holding 1,000 per-subscription NITF patterns — against a sha256 cut on
the kernel before any such rewrite.  It complements the small
``capacity=None`` engine digest in ``tests/test_overload_properties.py``,
which pins the event schedule rather than the filtering kernel.
"""

from __future__ import annotations

import hashlib

from repro.dtd.builtin import nitf_dtd
from repro.generators.docgen import DocumentGenerator
from repro.generators.querygen import PatternGenerator
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import PerSubscriptionPolicy

BATCH = 8


def kernel_digest() -> str:
    """sha256 over every broker's per-document and per-batch outcomes."""
    dtd = nitf_dtd()
    overlay = BrokerOverlay.random_tree(8, seed=11)
    patterns = PatternGenerator(dtd, seed=7).generate_many(1000)
    overlay.attach_round_robin(patterns)
    overlay.advertise(PerSubscriptionPolicy())
    generator = DocumentGenerator(dtd, seed=7)
    documents = [generator.generate(doc_id=index) for index in range(40)]
    outcomes = []
    for broker_id in sorted(overlay.brokers):
        table = overlay.brokers[broker_id].table
        for document in documents:
            match = table.destinations_for(document)
            outcomes.append((match.destinations, match.operations))
        for start in range(0, len(documents), BATCH):
            batch = table.destinations_for_batch(
                documents[start : start + BATCH]
            )
            outcomes.append(
                (
                    [step.destinations for step in batch.steps],
                    [step.operations for step in batch.steps],
                    batch.memo_hits,
                    batch.memo_misses,
                )
            )
    return hashlib.sha256(repr(outcomes).encode()).hexdigest()


#: Cut on the kernel before the per-document index, cached trie dispatch
#: and rank-keyed destinations; a change to any traversal, op count or
#: memo decision moves it.
KERNEL_DIGEST = "524a73bec912314bd6ce93c3d9f883860abc0782b5d118921006d817e9aa0159"


def test_kernel_outputs_match_the_golden_digest():
    assert kernel_digest() == KERNEL_DIGEST
