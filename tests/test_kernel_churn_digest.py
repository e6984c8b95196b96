"""Golden digest of the matching kernel's outputs under interleaved churn.

``tests/test_kernel_digest.py`` pins the kernel on a deployment that never
changes after it is built, so a rewrite that keeps stale per-node state
after an ``add`` / ``discard`` — a cached child plan, a required-tag
summary, a destination left behind by a retired entry — can pass it.
This test pins the same observable outputs while the deployment churns:
the same 8-broker tree holding 1,000 per-subscription NITF patterns goes
through 120 resubscribe steps (retire a live subscription, subscribe a
fresh pattern on some broker), with a broker grafted on at step 60 and
one retired at step 90.  After every step each broker's table-order
destination list and trie operation count for one rotating document is
recorded; every 10th step, each broker's batched outcome over 8
documents (lists, operations, memo hits and misses) as well.  The sha256
was cut on the kernel before any rewrite of its liveness or destination
bookkeeping.
"""

from __future__ import annotations

import hashlib
import random

from repro.dtd.builtin import nitf_dtd
from repro.generators.docgen import DocumentGenerator
from repro.generators.querygen import PatternGenerator
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import PerSubscriptionPolicy

STEPS = 120
BATCH = 8
ADD_BROKER_AT = 60
REMOVE_BROKER_AT = 90


def churn_kernel_digest() -> str:
    """sha256 over every broker's outcomes after every churn step."""
    dtd = nitf_dtd()
    overlay = BrokerOverlay.random_tree(8, seed=11)
    live = overlay.attach_round_robin(
        PatternGenerator(dtd, seed=7).generate_many(1000)
    )
    overlay.advertise(PerSubscriptionPolicy())
    generator = DocumentGenerator(dtd, seed=7)
    documents = [generator.generate(doc_id=index) for index in range(40)]
    fresh = PatternGenerator(dtd, seed=8)
    rng = random.Random(5)
    outcomes: list[object] = []
    for step in range(STEPS):
        if step == ADD_BROKER_AT:
            parent = rng.choice(sorted(overlay.brokers))
            outcomes.append(("add", parent, overlay.add_broker(parent)))
        if step == REMOVE_BROKER_AT:
            leaving = rng.choice(sorted(overlay.brokers))
            outcomes.append(("remove", leaving, overlay.remove_broker(leaving)))
        position = rng.randrange(len(live))
        home = rng.choice(sorted(overlay.brokers))
        overlay.unsubscribe(live[position])
        live[position] = overlay.subscribe(home, fresh.generate())
        document = documents[step % len(documents)]
        for broker_id in sorted(overlay.brokers):
            table = overlay.brokers[broker_id].table
            match = table.destinations_for(document)
            outcomes.append((match.destinations, match.operations))
        if step % 10 == 9:
            start = (step // 10 * BATCH) % len(documents)
            batch_documents = documents[start : start + BATCH]
            for broker_id in sorted(overlay.brokers):
                table = overlay.brokers[broker_id].table
                batch = table.destinations_for_batch(batch_documents)
                outcomes.append(
                    (
                        [step.destinations for step in batch.steps],
                        [step.operations for step in batch.steps],
                        batch.memo_hits,
                        batch.memo_misses,
                    )
                )
    return hashlib.sha256(repr(outcomes).encode()).hexdigest()


#: Cut on the kernel before its bit-parallel rewrite (tag-mask liveness,
#: rank-mask destinations); a stale cache or destination left behind by
#: churn, or any change to a traversal, op count or memo decision, moves it.
CHURN_KERNEL_DIGEST = (
    "11c51e32376fbce2d8c8925af5a89bc60cb87d5371738d32d5cd670cbe2c6809"
)


def test_kernel_outputs_under_churn_match_the_golden_digest():
    assert churn_kernel_digest() == CHURN_KERNEL_DIGEST
