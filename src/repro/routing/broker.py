"""Delivery latency statistics.

:class:`LatencyStats` (per subscriber class, :class:`ClassLatency`) is
the timing report of the discrete-event
:class:`~repro.routing.engine.DeliveryEngine`; :func:`percentile` and
:func:`ordered_percentile` are the nearest-rank quantiles it uses.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from typing import Iterable, Sequence

__all__ = [
    "ClassLatency",
    "LatencyStats",
    "percentile",
    "ordered_percentile",
]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of *samples* (``q`` in [0, 100]).

    Empty samples yield 0.0 so stats over an idle run stay well-defined.
    Sorts on every call; digest builders that read several quantiles from
    the same samples should sort once and use :func:`ordered_percentile`.
    """
    return ordered_percentile(sorted(samples), q)


def ordered_percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample list.

    The sort-once companion of :func:`percentile`: callers sort a sample
    list once and share the ordered list across quantile reads, instead of
    re-sorting per quantile.  Same semantics, byte-identical results.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile rank must be in [0, 100]")
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class ClassLatency:
    """Publication-to-delivery latency digest of one subscriber class.

    One entry per ``priority_class`` seen by the engine; the fairness
    axis a scheduling policy trades against tail latency — strict
    priority cuts the high class's percentiles by inflating the low
    class's.
    """

    deliveries: int
    p50: float
    p95: float
    p99: float
    mean: float
    max: float

    @classmethod
    def of(cls, samples: Iterable[float]) -> "ClassLatency":
        """The digest of one class's latency samples."""
        return cls.of_runs((sample, 1) for sample in samples)

    @classmethod
    def of_runs(cls, runs: Iterable[tuple[float, int]]) -> "ClassLatency":
        """The digest of latency samples kept as ``(value, multiplicity)``
        runs, each multiplicity ≥ 1 — every sample of a run is the same
        value, as when one broker step delivers to several subscribers
        at once.

        Equal to :meth:`of` over the expanded samples, float for float:
        the percentiles take the same nearest rank, found by bisecting
        the runs' cumulative counts, and the mean sums the expanded
        samples in the same ascending order.
        """
        ordered = sorted(runs)
        if not ordered:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        cumulative = list(accumulate(count for _, count in ordered))
        total = cumulative[-1]

        def nearest_rank(q: float) -> float:
            rank = max(1, math.ceil(q / 100.0 * total))
            return ordered[bisect_left(cumulative, rank)][0]

        expanded = chain.from_iterable(
            repeat(value, count) for value, count in ordered
        )
        return cls(
            deliveries=total,
            p50=nearest_rank(50.0),
            p95=nearest_rank(95.0),
            p99=nearest_rank(99.0),
            mean=sum(expanded) / total,
            max=ordered[-1][0],
        )


@dataclass(frozen=True)
class LatencyStats:
    """Timing outcome of one discrete-event delivery run.

    Produced by :class:`~repro.routing.engine.DeliveryEngine`; all times
    are in simulated time units (the engine never reads a wall clock).

    *Latency* is publication-to-delivery: the simulated time between a
    document's publish instant and the service completion of the broker
    that delivered it to a subscriber — one sample per delivery.  *Queue
    delay* is the time a document spent waiting in broker FIFO queues
    before its service started — one sample per (broker, document) visit.
    Queueing, not service, is what saturation inflates, so the queue-delay
    aggregates are the headline load measure.
    """

    documents: int
    deliveries: int
    #: First publish instant to last event processed.
    makespan: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    latency_mean: float
    latency_max: float
    queue_delay_mean: float
    queue_delay_p95: float
    queue_delay_max: float
    #: Per broker: the highest number of documents simultaneously queued
    #: or in service.
    queue_depth_peaks: dict[int, int] = field(default_factory=dict)
    #: Per broker: total simulated time spent servicing documents.
    busy_time: dict[int, float] = field(default_factory=dict)
    #: Total filtering operations across the run, in the overlay's
    #: matching mode: trie operations under the default merged-trie
    #: tables, per-pattern evaluations under the ``"linear"`` oracle.
    match_operations: int = 0
    forwards: int = 0
    #: Service intervals the engine ran.  Equal to
    #: ``serviced_documents`` under the one-document-at-a-time models;
    #: smaller when a :class:`~repro.routing.engine.BatchServiceModel`
    #: drains several queued documents per interval.
    service_batches: int = 0
    #: (broker, document) services across the run — every document
    #: visit that reached a service interval, batched or not.
    serviced_documents: int = 0
    #: Per subscriber class: the latency digest of its deliveries —
    #: populated by the engine whenever publishes carry priority classes
    #: (a run without classes reports everything under class 0).
    latency_by_class: dict[int, ClassLatency] = field(default_factory=dict)
    #: Document copies born: publishes plus forwards.  The conservation
    #: ledger's left-hand side — ``offered == completed + dropped +
    #: nacked + in-flight`` at every drain point, bounded queues or not.
    offered_jobs: int = 0
    #: Copies whose broker service completed (deliveries applied,
    #: forwards scheduled).  Unlike ``serviced_documents`` — which
    #: counts service *starts* and may double-count work a topology
    #: leave aborted and restarted — this counts each copy's death
    #: exactly once, so it balances the ledger.
    completed_jobs: int = 0
    #: Copies silently discarded by a bounded queue (``drop-new`` /
    #: ``drop-oldest`` overflow).
    dropped_jobs: int = 0
    #: Copies rejected with a NACK (``nack`` overflow) — the signal
    #: closed-loop sources shrink their window on.
    nacked_jobs: int = 0
    offered_by_class: dict[int, int] = field(default_factory=dict)
    completed_by_class: dict[int, int] = field(default_factory=dict)
    dropped_by_class: dict[int, int] = field(default_factory=dict)
    nacked_by_class: dict[int, int] = field(default_factory=dict)
    #: Per broker: copies its bounded queue dropped — where the
    #: overload actually landed.
    dropped_by_broker: dict[int, int] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Documents fully absorbed per simulated time unit."""
        if self.makespan <= 0.0:
            return 0.0
        return self.documents / self.makespan

    @property
    def delivery_throughput(self) -> float:
        """Deliveries per simulated time unit."""
        if self.makespan <= 0.0:
            return 0.0
        return self.deliveries / self.makespan

    @property
    def peak_queue_depth(self) -> int:
        """The deepest queue any broker reached during the run."""
        return max(self.queue_depth_peaks.values(), default=0)

    @property
    def mean_batch_size(self) -> float:
        """Documents serviced per service interval (1.0 unbatched)."""
        if self.service_batches <= 0:
            return 0.0
        return self.serviced_documents / self.service_batches

    @property
    def utilization(self) -> dict[int, float]:
        """Per broker: fraction of the makespan spent servicing."""
        if self.makespan <= 0.0:
            return {broker_id: 0.0 for broker_id in self.busy_time}
        return {
            broker_id: busy / self.makespan
            for broker_id, busy in self.busy_time.items()
        }

    @property
    def in_flight_jobs(self) -> int:
        """Copies born but not yet dead: scheduled arrivals plus queued
        plus in-service work.  Zero after a full :meth:`run` drain —
        the conservation identity the property suite pins."""
        return (
            self.offered_jobs
            - self.completed_jobs
            - self.dropped_jobs
            - self.nacked_jobs
        )

    @property
    def admitted_jobs(self) -> int:
        """Copies the queues accepted: offered minus dropped minus
        nacked.  Latency percentiles describe these — a dropped copy
        never contributes a sample."""
        return self.offered_jobs - self.dropped_jobs - self.nacked_jobs

    @property
    def admission_ratio(self) -> float:
        """Admitted fraction of offered copies (1.0 when nothing was
        offered, so an idle run reads as lossless)."""
        if self.offered_jobs <= 0:
            return 1.0
        return self.admitted_jobs / self.offered_jobs

    @property
    def offered_throughput(self) -> float:
        """Copies born per simulated time unit."""
        if self.makespan <= 0.0:
            return 0.0
        return self.offered_jobs / self.makespan

    @property
    def admitted_throughput(self) -> float:
        """Admitted copies per simulated time unit — the offered curve
        with the overload shed by the queue policy taken out."""
        if self.makespan <= 0.0:
            return 0.0
        return self.admitted_jobs / self.makespan

    @property
    def completed_share_by_class(self) -> dict[int, float]:
        """Per class: its fraction of all completed copies ({} when
        nothing completed).  The long-run shares weighted-fair
        scheduling drives towards the configured weights."""
        if self.completed_jobs <= 0:
            return {}
        return {
            priority_class: count / self.completed_jobs
            for priority_class, count in self.completed_by_class.items()
        }
