"""Overload survival walkthrough: bounded queues and back-pressure.

The latency example (`async_delivery.py`) shows queues turning table
size into delay — but its queues are unbounded, so past the saturation
knee the backlog (and every later document's latency) grows without
limit.  Real brokers bound their queues and shed or refuse load.  This
example pushes the same NITF stream well past the knee and compares
survival strategies:

1. generate an NITF corpus and subscriber patterns on a four-broker
   random tree;
2. replay the stream at a punishing rate with **unbounded** queues —
   the baseline that "survives" by letting latency explode;
3. replay identically under a bounded :class:`~repro.QueuePolicy` in
   each overflow mode — ``drop-new`` (refuse arrivals), ``drop-oldest``
   (evict the stalest backlog), ``nack`` (refuse *and* tell the
   publisher) — and watch the admitted traffic's tail latency stay
   bounded while the conservation ledger accounts for every copy;
4. replay once more with a **closed-loop** AIMD publisher
   (:class:`~repro.ClosedLoopSource`) against the NACK policy: the
   window backs off on every NACK, so almost everything offered is
   admitted — back-pressure instead of loss;
5. under sustained overload, split the stream into two subscriber
   classes scheduled by :class:`~repro.WeightedFairScheduling` and
   check the completion shares track the provisioned 3:1 weights.

Run:  PYTHONPATH=src python examples/overload_survival.py
"""

from __future__ import annotations

from repro import (
    BrokerOverlay,
    ClosedLoopSource,
    DeliveryEngine,
    LinkModel,
    PerSubscriptionPolicy,
    QueuePolicy,
    ServiceModel,
    WeightedFairScheduling,
)
from repro.dtd.builtin import nitf_dtd
from repro.experiments.config import DOC_GENERATOR_PRESETS
from repro.generators.docgen import generate_documents
from repro.generators.workload import WorkloadBuilder
from repro.xmltree.corpus import DocumentCorpus

N_DOCUMENTS = 150
N_SUBSCRIBERS = 24
N_BROKERS = 4
RATE = 8.0
CAPACITY = 6
FAIR_WEIGHTS = {0: 3.0, 1: 1.0}
SERVICE = ServiceModel(base=0.2, per_match=0.05)
LINKS = LinkModel(default=1.0)


def ledger(stats) -> str:
    return (
        f"offered={stats.offered_jobs:4d}  "
        f"completed={stats.completed_jobs:4d}  "
        f"dropped={stats.dropped_jobs:3d}  nacked={stats.nacked_jobs:3d}  "
        f"admission={stats.admission_ratio:5.3f}"
    )


def describe(label: str, stats) -> None:
    print(
        f"  {label:22s} p99={stats.latency_p99:7.2f}  "
        f"peak depth={stats.peak_queue_depth:3d}  "
        f"deliveries={stats.deliveries:5d}"
    )
    print(f"  {'':22s} {ledger(stats)}")


def main() -> None:
    dtd = nitf_dtd()
    print(f"generating {N_DOCUMENTS} NITF documents ...")
    corpus = DocumentCorpus(
        generate_documents(
            dtd, N_DOCUMENTS, seed=41, config=DOC_GENERATOR_PRESETS["nitf"]
        )
    )
    print(f"generating {N_SUBSCRIBERS} subscriber patterns ...")
    workload = WorkloadBuilder(dtd, corpus, seed=42).build(
        n_positive=N_SUBSCRIBERS, n_negative=0
    )

    overlay = BrokerOverlay.random_tree(N_BROKERS, seed=43, matching="linear")
    overlay.attach_round_robin(workload.positive)
    overlay.advertise(PerSubscriptionPolicy())
    print(
        f"overlay: {N_BROKERS} brokers; publishing at {RATE:g} docs/t — "
        "well past the saturation knee\n"
    )

    print("open-loop stream, queue policy sweep:")
    policies = {
        "unbounded": QueuePolicy(None),
        f"drop-new(cap={CAPACITY})": QueuePolicy(CAPACITY, "drop-new"),
        f"drop-oldest(cap={CAPACITY})": QueuePolicy(CAPACITY, "drop-oldest"),
        f"nack(cap={CAPACITY})": QueuePolicy(CAPACITY, "nack"),
    }
    outcomes = {}
    for label, policy in policies.items():
        engine = DeliveryEngine(overlay, SERVICE, LINKS, queue_policy=policy)
        engine.publish_corpus(corpus, rate=RATE)
        stats = engine.run()
        # The conservation ledger: every copy born is accounted dead.
        assert stats.in_flight_jobs == 0
        assert stats.offered_jobs == (
            stats.completed_jobs + stats.dropped_jobs + stats.nacked_jobs
        )
        outcomes[label] = stats
        describe(label, stats)
    print()

    print("closed-loop AIMD publisher against the NACK policy:")
    engine = DeliveryEngine(
        overlay, SERVICE, LINKS, queue_policy=QueuePolicy(CAPACITY, "nack")
    )
    engine.attach_source(
        ClosedLoopSource(
            corpus, at_broker=0, initial_window=4.0,
            feedback_delay=0.5, seed=3,
        )
    )
    stats = engine.run()
    report = engine.source_report(0)
    describe("closed-loop nack", stats)
    print(
        f"  {'':22s} window ended at {report.window:.2f} after "
        f"{report.nack_signals} NACK signals; "
        f"{report.acked}/{report.published} documents absorbed"
    )
    print()

    print(f"weighted-fair shares under sustained overload ({FAIR_WEIGHTS}):")
    single = BrokerOverlay.chain(1, matching="linear")
    single.attach_round_robin(workload.positive[:8])
    single.advertise(PerSubscriptionPolicy())
    engine = DeliveryEngine(
        single,
        SERVICE,
        scheduling=WeightedFairScheduling(FAIR_WEIGHTS),
        queue_policy=QueuePolicy(CAPACITY, "drop-oldest"),
    )
    span = len(corpus.documents) / RATE
    for repeat in range(3):
        engine.publish_corpus(
            corpus, rate=RATE, start=repeat * span, classes=(0, 1)
        )
    stats = engine.run()
    for priority_class, share in sorted(
        stats.completed_share_by_class.items()
    ):
        print(
            f"  class {priority_class}: share {share:.3f} "
            f"({stats.completed_by_class[priority_class]} completed)"
        )
    print()

    unbounded = outcomes["unbounded"]
    bounded = outcomes[f"drop-oldest(cap={CAPACITY})"]
    print(
        f"past the knee, the unbounded broker queues {unbounded.peak_queue_depth} "
        f"deep and its p99 reaches {unbounded.latency_p99:.2f} time units; "
        f"bounding the queue at {CAPACITY} holds the backlog at "
        f"{bounded.peak_queue_depth} and the admitted traffic's p99 at "
        f"{bounded.latency_p99:.2f} —\n"
        "shed load is counted, not lost: "
        "offered == completed + dropped + nacked, always."
    )


if __name__ == "__main__":
    main()
