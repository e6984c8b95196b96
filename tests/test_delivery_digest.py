"""Golden digest of the delivery plane: who receives what, and when.

The kernel digests pin what each routing table answers; this one pins
what the overlay and the engine make of those answers.  It hashes, with
sha256:

* on the kernel-digest deployment (an 8-broker random tree holding 1,000
  per-subscription NITF patterns), every ``route()`` outcome of 40
  documents published at every broker — sorted delivered ids, per-broker
  operations and forwards — with 20 resubscribe pairs, one broker join
  and one broker leave interleaved, so steps cross every kind of table
  change: a destination created, dropped or renamed;
* the same outcomes on a smaller ``CommunityPolicy(0.5)`` overlay scored
  against the document corpus, whose deliver groups have many members;
* one batched :class:`~repro.routing.engine.DeliveryEngine` run of the 40
  documents over the churned first deployment: every ``LatencyStats``
  field (``repr`` spells each float exactly) plus ``delivered_sets()``.

A rewrite of how a match becomes a broker step, or of how the engine
keeps its latency samples, must leave the digest unchanged.
"""

from __future__ import annotations

import hashlib
import random

from repro.dtd.builtin import nitf_dtd
from repro.generators.docgen import DocumentGenerator
from repro.generators.querygen import PatternGenerator
from repro.routing.engine import BatchServiceModel, DeliveryEngine
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import CommunityPolicy, PerSubscriptionPolicy
from repro.xmltree.corpus import DocumentCorpus

DOCUMENTS = 40
PAIRS_EVERY = 2
ADD_BROKER_AT = 10
REMOVE_BROKER_AT = 30


def _routes(overlay, document):
    """Every broker's ``route()`` outcome for *document*, in id order."""
    outcomes = []
    for broker_id in sorted(overlay.brokers):
        delivered, operations, forwards = overlay.route(document, broker_id)
        outcomes.append(
            (
                broker_id,
                sorted(delivered),
                sorted(operations.items()),
                forwards,
            )
        )
    return outcomes


def _churned_routes(overlay, live, fresh, documents, rng):
    """Route every document from every broker, resubscribing one live
    subscription every :data:`PAIRS_EVERY` documents and grafting and
    retiring one broker on the way."""
    outcomes: list[object] = []
    for position, document in enumerate(documents):
        if position == ADD_BROKER_AT:
            parent = rng.choice(sorted(overlay.brokers))
            outcomes.append(("add", parent, overlay.add_broker(parent)))
        if position == REMOVE_BROKER_AT:
            leaving = rng.choice(sorted(overlay.brokers))
            outcomes.append(("remove", leaving, overlay.remove_broker(leaving)))
        if position % PAIRS_EVERY == 0:
            victim = rng.randrange(len(live))
            home = rng.choice(sorted(overlay.brokers))
            overlay.unsubscribe(live[victim])
            live[victim] = overlay.subscribe(home, fresh.generate())
        outcomes.append(_routes(overlay, document))
    return outcomes


def delivery_digest() -> str:
    """sha256 over the routed, community-routed and engine outcomes."""
    dtd = nitf_dtd()
    generator = DocumentGenerator(dtd, seed=7)
    documents = [generator.generate(doc_id=index) for index in range(DOCUMENTS)]
    outcomes: list[object] = []

    overlay = BrokerOverlay.random_tree(8, seed=11)
    live = overlay.attach_round_robin(
        PatternGenerator(dtd, seed=7).generate_many(1000)
    )
    overlay.advertise(PerSubscriptionPolicy())
    outcomes.extend(
        _churned_routes(
            overlay, live, PatternGenerator(dtd, seed=8), documents,
            random.Random(5),
        )
    )

    corpus = DocumentCorpus(documents)
    community = BrokerOverlay.random_tree(4, seed=2)
    members = community.attach_round_robin(
        PatternGenerator(dtd, seed=9).generate_many(160)
    )
    community.advertise(CommunityPolicy(0.5), corpus)
    outcomes.append(
        sorted(
            len(group)
            for node in community.brokers.values()
            for _, group in node.communities
        )
    )
    outcomes.extend(
        _churned_routes(
            community, members, PatternGenerator(dtd, seed=10), documents,
            random.Random(6),
        )
    )

    engine = DeliveryEngine(
        overlay, service=BatchServiceModel(0.2, 0.001, 0.05, 32)
    )
    engine.publish_corpus(corpus, rate=4.0)
    outcomes.append(repr(engine.run()))
    outcomes.append(
        sorted(
            (index, sorted(delivered))
            for index, delivered in engine.delivered_sets().items()
        )
    )
    return hashlib.sha256(repr(outcomes).encode()).hexdigest()


#: Cut on the delivery plane before its steps were decoded from the
#: trie's rank masks and before the engine kept latency runs.
DELIVERY_DIGEST = (
    "f5fb8bb8d370f7ee48d61105c7850d4485b79bc62ba93a719fa68fa31f00fc93"
)


def test_delivery_outcomes_match_the_golden_digest():
    assert delivery_digest() == DELIVERY_DIGEST
