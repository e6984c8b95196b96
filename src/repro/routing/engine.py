"""Discrete-event delivery engine over the broker overlay.

The synchronous :meth:`~repro.routing.overlay.BrokerOverlay.route` walk
answers *where* documents go; under heavy traffic the operational question
is *when* they arrive.  This module replays the exact same broker-local
filtering steps — each broker table's match,
:class:`~repro.routing.table.TableMatch` — through a deterministic
discrete-event simulation:

* a single global event queue, ordered by ``(time, sequence number)`` so
  ties resolve in scheduling order — replays are bit-identical under a
  fixed seed, with no wall clock anywhere;
* one FIFO service queue per broker: a broker services one document at a
  time, and the service duration is a configurable function of the match
  operations the filtering step performs (:class:`ServiceModel`) — the
  direct coupling between routing-table size and queueing delay that the
  paper's community aggregation is meant to relieve;
* per-link forwarding latencies (:class:`LinkModel`) between neighbouring
  brokers.

Because the engine filters through
:meth:`~repro.routing.overlay.BrokerOverlay.process_batch_at`, whose
per-document steps equal ``process_at``'s, it delivers exactly the
subscriber sets the synchronous path delivers (the equivalence is
property-tested); what it adds is the timing dimension —
publication-to-delivery latency percentiles, per-broker queue-depth peaks
and utilisation, and end-to-end throughput, reported as a
:class:`~repro.routing.broker.LatencyStats`.  Every subscriber one step
reaches first hears at the same instant, so latency samples are kept as
``(latency, deliveries)`` runs, one per delivering step rather than one
per delivery; :meth:`~repro.routing.broker.ClassLatency.of_runs` reads
the same nearest-rank percentiles and a float-identical mean off them.

The queueing discipline is a first-class
:class:`~repro.routing.policy.SchedulingPolicy`: the engine asks the
policy which queued document a freed broker services next, so FIFO
(:class:`~repro.routing.policy.FifoScheduling`, the default), strict
priority by subscriber class
(:class:`~repro.routing.policy.PriorityScheduling`) and earliest deadline
first (:class:`~repro.routing.policy.DeadlineScheduling`) are swappable
without subclassing.  Publishes may carry a ``priority_class`` and a
``deadline``; :class:`~repro.routing.broker.LatencyStats` then reports
per-class latency percentiles, the fairness-vs-tail-latency axis a
scheduling policy trades on.

The broker tree itself may churn mid-simulation: a :class:`TopologyEvent`
(scheduled through :meth:`DeliveryEngine.schedule_join` /
:meth:`DeliveryEngine.schedule_leave`) applies ``BrokerOverlay.add_broker`` /
``remove_broker`` at its simulated instant, in the same deterministic
``(time, seq)`` order as every other event.  A leave re-routes the
retiring broker's in-flight documents to its merge target — queued and
in-service work restarts there, copies already on the wire are
re-targeted — so no publication loses deliveries to topology churn
(delivery sets deduplicate per publish).

Every service interval is a queue drain: when a broker frees up, the
scheduling policy picks up to the service model's ``max_batch`` queued
documents (one ``select`` call per document, so priority/deadline
disciplines shape a batch exactly as they shape the one-at-a-time
schedule) and the whole batch is filtered in one
:meth:`~repro.routing.overlay.BrokerOverlay.process_batch_at` pass over
a shared trie memo pool.  The affine :class:`ServiceModel` is the
batch-of-one case.  Under a :class:`BatchServiceModel` an interval costs
``base + per_doc·documents + per_match·operations`` where *operations*
is the **measured** memo-amortised batch count — the non-affine
service curve is observed from the matching layer, never modelled.

Overload is likewise first-class, not an open loop that silently
diverges.  A :class:`~repro.routing.policy.QueuePolicy` bounds every
broker's service queue (``capacity=``) and selects the overflow
behaviour — drop the arriving copy, evict the oldest queued one, or
reject the arrival with a NACK; every dropped or nacked copy is
accounted per class and per broker in
:class:`~repro.routing.broker.LatencyStats`, so ``offered ==
completed + dropped + nacked + in-flight`` holds at every drain point
(the conservation invariant the overload property suite pins).  The
default ``capacity=None`` replays the unbounded engine byte-identically.
On the publishing side, :class:`ClosedLoopSource` closes the loop: a
window-based (TCP-like AIMD) publisher registered through
:meth:`DeliveryEngine.attach_source` keeps at most ``window``
publications outstanding, grows the window additively on clean
absorptions and halves it on NACK back-pressure — both signals carried
on the same deterministic ``(time, seq)`` event queue as every arrival.
:class:`~repro.routing.policy.WeightedFairScheduling` and
:class:`~repro.routing.policy.PriorityScheduling` with ``aging=`` keep
low classes from starving while all of this saturates.

>>> # engine = DeliveryEngine(overlay, scheduling=PriorityScheduling(),
>>> #                         queue_policy=QueuePolicy(64, "nack"))
>>> # engine.attach_source(ClosedLoopSource(corpus, at_broker=0))
>>> # stats = engine.run()          # LatencyStats, incl. drop accounting
>>> # engine.delivered_sets()       # per published document, for checking
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional, Sequence, Union

from repro.routing.broker import ClassLatency, LatencyStats, ordered_percentile
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import FifoScheduling, QueuePolicy, SchedulingPolicy
from repro.routing.table import TableMatch
from repro.xmltree.corpus import DocumentCorpus
from repro.xmltree.tree import XMLTree

__all__ = [
    "ServiceModel",
    "BatchServiceModel",
    "LinkModel",
    "ClosedLoopSource",
    "SourceReport",
    "DeliveryEngine",
    "TopologyEvent",
]


def _require_finite(what: str, *values: float) -> None:
    """Reject NaN and infinite timing inputs: each later check is a
    comparison, which NaN passes silently, and one such value turns
    every latency figure of a run into NaN."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} must be finite")


@dataclass(frozen=True)
class ServiceModel:
    """Broker service time as an affine function of filtering work.

    ``base`` is the fixed per-document handling cost (parsing, queue
    management); ``per_match`` the cost of one filtering operation in the
    broker's matching mode — a trie operation (node-candidate test,
    branch evaluation, gate check) under the default merged-trie tables,
    or one pattern-vs-document evaluation under the ``"linear"``
    per-pattern oracle.  Community aggregation shrinks routing tables and
    trie matching makes each table sublinear to filter, both of which
    shrink match operations, hence service time — exactly the knobs this
    model exposes to the latency benchmark.

    It is the batch-of-one case of :class:`BatchServiceModel`: each
    service interval drains one document, with no per-document charge.
    """

    base: float = 0.2
    per_match: float = 0.05

    def __post_init__(self) -> None:
        _require_finite("service-time coefficients", self.base, self.per_match)
        if self.base < 0.0 or self.per_match < 0.0:
            raise ValueError("service-time coefficients must be >= 0")
        if self.base <= 0.0 and self.per_match <= 0.0:
            raise ValueError("service time must be positive")

    @property
    def max_batch(self) -> int:
        """Most documents one service interval drains."""
        return 1

    def service_time(self, match_operations: int) -> float:
        """Simulated time to service one document at one broker."""
        return self.service_time_batch(match_operations, 1)

    def service_time_batch(self, match_operations: int, documents: int) -> float:
        """Simulated time to service *documents* jobs in one interval
        (with no per-document charge, *documents* does not enter)."""
        return self.base + self.per_match * match_operations


@dataclass(frozen=True)
class BatchServiceModel(ServiceModel):
    """Batched broker service: one interval drains a whole batch.

    A freed broker services up to ``max_batch`` scheduling-policy-selected
    documents in one interval of

    ``base + per_doc * documents + per_match * match_operations``

    ``base`` is paid once per *drain* (the amortisation batching buys),
    ``per_doc`` once per document (parsing, delivery bookkeeping), and
    ``match_operations`` is the **measured** op count of the shared-pool
    :meth:`~repro.routing.trie.PatternTrie.match_batch` pass — memo hits
    across the batch's documents are free, so the per-document service
    time is non-affine in batch size exactly as far as the documents
    actually share structure, not as far as a curve assumes they do.
    """

    per_doc: float = 0.05
    #: Most documents one drain may service; 1 degrades to unbatched
    #: drains (still paying ``per_doc``).
    max_batch: int = 8

    def __post_init__(self) -> None:
        _require_finite(
            "service-time coefficients", self.base, self.per_match, self.per_doc
        )
        if self.base < 0.0 or self.per_match < 0.0 or self.per_doc < 0.0:
            raise ValueError("service-time coefficients must be >= 0")
        if self.base <= 0.0 and self.per_match <= 0.0 and self.per_doc <= 0.0:
            raise ValueError("service time must be positive")
        # A float would pass the bound yet never equal a batch length:
        # NaN strands every queue, 2.5 drains batches of 3.
        if not isinstance(self.max_batch, int) or self.max_batch < 1:
            raise ValueError("max_batch must be an integer >= 1")

    def service_time_batch(self, match_operations: int, documents: int) -> float:
        """Simulated time to service *documents* jobs in one interval."""
        return (
            self.base
            + self.per_doc * documents
            + self.per_match * match_operations
        )


@dataclass(frozen=True)
class LinkModel:
    """Per-link forwarding latency between neighbouring brokers.

    A constant ``default`` latency, optionally overridden per undirected
    edge: ``LinkModel(1.0, {(0, 1): 5.0})`` makes the 0—1 link five times
    slower in both directions.  Frozen like every engine model: replay
    determinism rests on timing models never drifting between runs.
    """

    default: float = 1.0
    overrides: Optional[dict[tuple[int, int], float]] = None

    def __post_init__(self) -> None:
        _require_finite("link latency", self.default)
        if self.default < 0.0:
            raise ValueError("link latency must be >= 0")
        normalised: dict[tuple[int, int], float] = {}
        for (a, b), value in (self.overrides or {}).items():
            _require_finite("link latency", value)
            if value < 0.0:
                raise ValueError("link latency must be >= 0")
            normalised[(a, b) if a <= b else (b, a)] = value
        object.__setattr__(self, "overrides", normalised)

    def latency(self, a: int, b: int) -> float:
        """Forwarding latency of the undirected link *a*—*b*."""
        assert self.overrides is not None  # normalised in __post_init__
        return self.overrides.get((a, b) if a <= b else (b, a), self.default)


#: Event kinds; arrivals sort before same-instant completions only through
#: their sequence number, keeping the schedule strictly FIFO.
_ARRIVAL = "arrival"
_COMPLETE = "complete"
_TOPOLOGY = "topology"
#: Back-pressure feedback to a :class:`ClosedLoopSource` — rides the same
#: ``(time, seq)`` queue as traffic, so closed-loop runs replay exactly.
_SIGNAL = "signal"


@dataclass(frozen=True)
class TopologyEvent:
    """One scheduled broker join or leave, applied mid-simulation.

    ``action`` is ``"join"`` (graft a broker under *parent*, splitting
    the ``parent — split`` edge when *split* is given) or ``"leave"``
    (retire *broker_id*, merging into *merge_into* or its lowest-id
    neighbour).  The event sits in the same ``(time, seq)``-ordered
    queue as arrivals and completions, so topology churn interleaves
    deterministically with traffic — replays stay bit-identical.
    """

    action: str
    broker_id: Optional[int] = None
    parent: Optional[int] = None
    split: Optional[int] = None
    merge_into: Optional[int] = None

    def __post_init__(self) -> None:
        if self.action not in ("join", "leave"):
            raise ValueError(
                f"unknown topology action {self.action!r}; "
                "choose 'join' or 'leave'"
            )
        if self.action == "join" and self.parent is None:
            raise ValueError("a join event needs a parent broker")
        if self.action == "leave" and self.broker_id is None:
            raise ValueError("a leave event needs the retiring broker id")


@dataclass
class _Job:
    """One document instance travelling the overlay.

    Satisfies the :class:`~repro.routing.policy.QueuedJob` protocol, so
    scheduling policies can read (but never mutate) its timing and class
    attributes.
    """

    document: XMLTree
    doc_index: int
    published_at: float
    #: Link the document arrived over (None at the publish broker).
    origin: Optional[int]
    #: Set when the job reaches a broker; start-of-service minus this is
    #: the job's queue delay there.
    arrived_at: float = 0.0
    #: Subscriber class the publication belongs to — the unit
    #: :class:`~repro.routing.policy.PriorityScheduling` weighs and
    #: per-class latency stats group by.
    priority_class: int = 0
    #: Absolute delivery deadline, if the publisher set one —
    #: :class:`~repro.routing.policy.DeadlineScheduling` orders on it.
    deadline: Optional[float] = None
    #: Index of the :class:`ClosedLoopSource` that published the
    #: document (None for open-loop publishes).  Every forwarded copy
    #: inherits it, so copy deaths feed back to the right window.
    source: Optional[int] = None


@dataclass
class _Batch:
    """One in-service queue drain: the jobs and their filtering steps.

    The completion payload of every service interval.  Jobs and steps
    are aligned; deliveries and forwards apply per job at completion.
    """

    jobs: list[_Job]
    steps: list[TableMatch]


@dataclass(frozen=True)
class _Signal:
    """One back-pressure feedback event for an attached source.

    ``kind`` is ``"pump"`` (the source's start trigger), ``"nack"`` (a
    bounded queue rejected one copy of *doc_index*) or ``"done"`` (the
    last in-flight copy of *doc_index* died; ``clean`` tells the source
    whether every copy completed or some were dropped/nacked).
    """

    source: int
    doc_index: int
    kind: str
    clean: bool = True


@dataclass(frozen=True)
class ClosedLoopSource:
    """A window-based (TCP-like AIMD) closed-loop publisher.

    Where :meth:`DeliveryEngine.publish_corpus` injects documents
    open-loop at a fixed rate no matter how far behind the brokers
    fall, a closed-loop source watches its own traffic: it keeps at
    most ``window`` publications outstanding, publishes the next corpus
    document only when the window has room, and adapts the window to
    the back-pressure the overlay reports —

    * a publication is *absorbed* once every in-flight copy has died
      (completed, dropped, or nacked).  A clean absorption (all copies
      completed) grows the window additively:
      ``window += additive_increase / window``;
    * the first NACK for a document multiplicatively shrinks it:
      ``window = max(1, window * decrease_factor)`` — classic AIMD;
    * silent drops (``drop-new`` / ``drop-oldest`` overflow) mark the
      document dirty: no growth on absorption, but no shrink either —
      loss without detection, exactly as an unacknowledged datagram.

    Feedback rides the engine's ``(time, seq)`` event queue, delayed by
    ``feedback_delay``; ``jitter`` adds a seeded uniform gap before
    each publish.  Everything is drawn from ``random.Random(seed)``,
    so closed-loop runs replay bit-identically across processes.
    """

    corpus: DocumentCorpus
    at_broker: int = 0
    start: float = 0.0
    initial_window: float = 1.0
    max_window: float = 64.0
    additive_increase: float = 1.0
    decrease_factor: float = 0.5
    priority_class: int = 0
    deadline_slack: Optional[float] = None
    feedback_delay: float = 0.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _require_finite(
            "source timing and window parameters",
            self.start,
            self.initial_window,
            self.max_window,
            self.additive_increase,
            self.feedback_delay,
            self.jitter,
            0.0 if self.deadline_slack is None else self.deadline_slack,
        )
        if self.start < 0.0:
            raise ValueError("source start time must be >= 0")
        if self.initial_window < 1.0:
            raise ValueError("initial_window must be >= 1")
        if self.max_window < self.initial_window:
            raise ValueError("max_window must be >= initial_window")
        if self.additive_increase < 0.0:
            raise ValueError("additive_increase must be >= 0")
        if not 0.0 < self.decrease_factor <= 1.0:
            raise ValueError("decrease_factor must be in (0, 1]")
        if self.deadline_slack is not None and self.deadline_slack < 0.0:
            raise ValueError("deadline_slack must be >= 0")
        if self.feedback_delay < 0.0:
            raise ValueError("feedback_delay must be >= 0")
        if self.jitter < 0.0:
            raise ValueError("jitter must be >= 0")


@dataclass(frozen=True)
class SourceReport:
    """Loop outcome of one attached :class:`ClosedLoopSource`.

    ``published``/``pending`` split the corpus into documents injected
    so far and documents still gated behind the window; ``acked``
    counts absorbed publications (``clean_acks`` of them loss-free).
    ``nacked_documents`` is how many distinct publications hit at least
    one NACK (each shrank the window once); ``nack_signals`` counts
    every NACK received.  ``window`` and ``outstanding`` are the loop
    state at report time.
    """

    published: int
    pending: int
    acked: int
    clean_acks: int
    nacked_documents: int
    nack_signals: int
    outstanding: int
    window: float


class _SourceState:
    """Mutable engine-side loop state of one attached source."""

    def __init__(self, index: int, source: ClosedLoopSource) -> None:
        self.index = index
        self.source = source
        self.window: float = source.initial_window
        #: Publications injected but not yet absorbed.
        self.outstanding = 0
        #: Next corpus position to publish.
        self.next_position = 0
        #: Publish indices minted so far, in corpus order.
        self.published: list[int] = []
        self.acked = 0
        self.clean_acks = 0
        self.nack_signals = 0
        #: Documents whose first NACK already shrank the window
        #: (membership tests only — never iterated).
        self.nacked_docs: set[int] = set()
        self.rng = random.Random(source.seed)


class DeliveryEngine:
    """Deterministic discrete-event simulator of overlay delivery.

    Drives documents through *overlay*'s live routing state: publishes
    schedule arrival events, each broker drains its queue under *service*
    (one document per interval, or up to ``max_batch``), and completed
    services deliver locally and forward over *links*.  All state advances through the
    event queue only — identical inputs replay identically.
    """

    def __init__(
        self,
        overlay: BrokerOverlay,
        service: Optional[ServiceModel] = None,
        links: Optional[LinkModel] = None,
        scheduling: Optional[SchedulingPolicy] = None,
        queue_policy: Optional[QueuePolicy] = None,
    ) -> None:
        if overlay.mode is None:
            raise ValueError(
                "no routing state: call advertise() before building an engine"
            )
        self.overlay = overlay
        self.service = service or ServiceModel()
        self.links = links or LinkModel()
        self.scheduling = scheduling or FifoScheduling()
        #: Queue admission: the default ``QueuePolicy()`` (unbounded)
        #: replays the pre-overload engine byte-identically; a capacity
        #: activates the drop-new / drop-oldest / nack overflow path.
        self.queue_policy = queue_policy or QueuePolicy()
        #: Retired broker id -> its merge target, for translating
        #: forwards whose filtering step pre-dates a leave event.
        self._retired: dict[int, int] = {}
        #: ``(time, event, resulting broker id)`` per applied topology
        #: event — the join entries record the id the overlay minted.
        self.topology_log: list[tuple[float, TopologyEvent, int]] = []
        #: (time, seq, kind, broker_id, payload); the payload is the
        #: job/batch/topology-event/source-signal the event applies.
        self._events: list[
            tuple[float, int, str, int, Union[_Job, _Batch, TopologyEvent, _Signal]]
        ] = []
        self._sequence = 0
        self._queues: dict[int, deque[_Job]] = {
            broker_id: deque() for broker_id in overlay.brokers
        }
        self._busy: dict[int, bool] = {
            broker_id: False for broker_id in overlay.brokers
        }
        self._depth_peaks: dict[int, int] = {
            broker_id: 0 for broker_id in overlay.brokers
        }
        self._busy_time: dict[int, float] = {
            broker_id: 0.0 for broker_id in overlay.brokers
        }
        #: Per publish index (one per published document), the
        #: subscriber ids delivered to so far.
        self._delivered: dict[int, set[int]] = {}
        #: Per priority class, publication-to-delivery latency samples as
        #: ``(latency, deliveries)`` runs, one per step that delivered:
        #: every subscriber a step reaches first hears at the same
        #: instant.
        self._latency_runs_by_class: dict[int, list[tuple[float, int]]] = {}
        #: One queue delay per serviced document.
        self._queue_delays: list[float] = []
        self._first_publish: Optional[float] = None
        self._last_event = 0.0
        self._match_operations = 0
        self._forwards = 0
        self._service_batches = 0
        # -- conservation ledger, per priority class: every document copy
        # is counted once at birth (publish or forward) and once at death
        # (completion, drop, or nack), so offered == completed + dropped +
        # nacked + in-flight at every drain point, bounded queues or not.
        self._offered_by_class: dict[int, int] = {}
        self._completed_by_class: dict[int, int] = {}
        self._dropped_by_class: dict[int, int] = {}
        self._nacked_by_class: dict[int, int] = {}
        self._dropped_by_broker: dict[int, int] = {}
        #: Per-broker, per-class count of service starts — the share
        #: history every scheduling selection receives (and
        #: :class:`~repro.routing.policy.WeightedFairScheduling` reads).
        #: Engine-owned so frozen policies stay replay-safe.
        self._class_service: dict[int, dict[int, int]] = {
            broker_id: {} for broker_id in overlay.brokers
        }
        self._sources: list[_SourceState] = []
        #: Per closed-loop-published document: live copy count, and the
        #: set of such documents that lost at least one copy (membership
        #: tests only — never iterated).
        self._outstanding_copies: dict[int, int] = {}
        self._dirty_docs: set[int] = set()

    # ------------------------------------------------------------------
    # workload injection
    # ------------------------------------------------------------------

    def publish(
        self,
        document: XMLTree,
        at_broker: int = 0,
        time: float = 0.0,
        priority_class: int = 0,
        deadline: Optional[float] = None,
    ) -> int:
        """Schedule *document* for publication at *at_broker*.

        ``priority_class`` tags the publication with a subscriber class
        (read by :class:`~repro.routing.policy.PriorityScheduling` and
        reported per class in the stats); ``deadline`` is the absolute
        simulated time the delivery should beat (read by
        :class:`~repro.routing.policy.DeadlineScheduling`).  Both travel
        with every forwarded copy of the document.  Returns the publish
        index identifying the document in :meth:`delivered_sets`.
        """
        return self._publish(
            document,
            at_broker,
            time,
            priority_class=priority_class,
            deadline=deadline,
            source=None,
        )

    def _publish(
        self,
        document: XMLTree,
        at_broker: int,
        time: float,
        priority_class: int,
        deadline: Optional[float],
        source: Optional[int],
    ) -> int:
        if at_broker not in self.overlay.brokers:
            raise ValueError(f"no broker {at_broker}")
        _require_finite(
            "publish time and deadline",
            time,
            time if deadline is None else deadline,
        )
        if time < 0.0:
            raise ValueError("publish time must be >= 0")
        if deadline is not None and deadline < time:
            raise ValueError("deadline must not precede the publish time")
        index = len(self._delivered)
        self._delivered[index] = set()
        if self._first_publish is None or time < self._first_publish:
            self._first_publish = time
        job = _Job(
            document=document,
            doc_index=index,
            published_at=time,
            origin=None,
            priority_class=priority_class,
            deadline=deadline,
            source=source,
        )
        self._offer(job)
        self._schedule(time, _ARRIVAL, at_broker, job)
        return index

    def _offer(self, job: _Job) -> None:
        """Record the birth of one document copy in the conservation
        ledger."""
        self._offered_by_class[job.priority_class] = (
            self._offered_by_class.get(job.priority_class, 0) + 1
        )

    def publish_corpus(
        self,
        corpus: DocumentCorpus,
        rate: float,
        publish_at: Union[int, str] = "round_robin",
        start: float = 0.0,
        arrivals: str = "uniform",
        seed: int = 0,
        classes: Union[Sequence[int], Callable[[int], int], None] = None,
        deadline_slack: Optional[float] = None,
    ) -> list[int]:
        """Publish every corpus document at an average *rate* (documents
        per simulated time unit).

        ``publish_at`` is a fixed broker id or ``"round_robin"``, matching
        :meth:`BrokerOverlay.route_corpus`.  ``arrivals`` selects the
        inter-arrival process: ``"uniform"`` spaces publishes exactly
        ``1/rate`` apart, ``"poisson"`` draws exponential gaps from a
        ``random.Random(seed)`` — seeded, so still deterministic.

        ``classes`` assigns each publication its subscriber class: a
        sequence is cycled over the publish positions (``(0, 1, 2)``
        round-robins three classes), a callable is invoked with the
        position.  ``deadline_slack`` gives every publication the
        deadline ``publish time + slack``.  Returns the publish indices.
        """
        _require_finite(
            "publish rate, start and deadline slack",
            rate,
            start,
            0.0 if deadline_slack is None else deadline_slack,
        )
        if rate <= 0.0:
            raise ValueError("publish rate must be positive")
        if arrivals not in ("uniform", "poisson"):
            raise ValueError(
                f"unknown arrival process {arrivals!r}; "
                "choose 'uniform' or 'poisson'"
            )
        if deadline_slack is not None and deadline_slack < 0.0:
            raise ValueError("deadline_slack must be >= 0")
        if classes is None:
            klass = lambda position: 0  # noqa: E731
        elif callable(classes):
            klass = classes
        else:
            cycle = list(classes)
            if not cycle:
                raise ValueError("classes sequence must not be empty")
            klass = lambda position: cycle[position % len(cycle)]  # noqa: E731
        rng = random.Random(seed)
        time = start
        indices = []
        order = sorted(self.overlay.brokers)
        for position, document in enumerate(corpus.documents):
            if publish_at == "round_robin":
                source = order[position % len(order)]
            else:
                source = int(publish_at)
            indices.append(
                self.publish(
                    document,
                    source,
                    time,
                    priority_class=klass(position),
                    deadline=(
                        None
                        if deadline_slack is None
                        else time + deadline_slack
                    ),
                )
            )
            if arrivals == "poisson":
                time += rng.expovariate(rate)
            else:
                time += 1.0 / rate
        return indices

    def attach_source(self, source: ClosedLoopSource) -> int:
        """Register a :class:`ClosedLoopSource` and return its index.

        The source starts pumping at ``source.start`` through a signal
        event on the engine's queue — publishing, window updates, and
        feedback all happen inside the deterministic event loop.  The
        returned index identifies the source in :meth:`source_report`
        (and ties the loop's publications to it internally).
        """
        if source.at_broker not in self.overlay.brokers:
            raise ValueError(f"no broker {source.at_broker}")
        index = len(self._sources)
        self._sources.append(_SourceState(index, source))
        self._schedule(
            source.start, _SIGNAL, -1, _Signal(index, -1, "pump")
        )
        return index

    def source_report(self, index: int) -> SourceReport:
        """The :class:`SourceReport` of attached source *index*."""
        if not 0 <= index < len(self._sources):
            raise ValueError(f"no attached source {index}")
        state = self._sources[index]
        return SourceReport(
            published=len(state.published),
            pending=len(state.source.corpus.documents) - state.next_position,
            acked=state.acked,
            clean_acks=state.clean_acks,
            nacked_documents=len(state.nacked_docs),
            nack_signals=state.nack_signals,
            outstanding=state.outstanding,
            window=state.window,
        )

    def _pump_source(self, state: _SourceState, now: float) -> None:
        """Publish corpus documents while the source's window has room."""
        source = state.source
        documents = source.corpus.documents
        while (
            state.next_position < len(documents)
            and state.outstanding < state.window
        ):
            document = documents[state.next_position]
            state.next_position += 1
            gap = (
                state.rng.uniform(0.0, source.jitter)
                if source.jitter > 0.0
                else 0.0
            )
            time = now + gap
            index = self._publish(
                document,
                self._resolve_broker(source.at_broker),
                time,
                priority_class=source.priority_class,
                deadline=(
                    None
                    if source.deadline_slack is None
                    else time + source.deadline_slack
                ),
                source=state.index,
            )
            state.published.append(index)
            state.outstanding += 1
            self._outstanding_copies[index] = 1

    def _on_signal(self, signal: _Signal, now: float) -> None:
        """Apply one feedback event to its source's AIMD loop, then let
        the source publish into whatever window room resulted."""
        state = self._sources[signal.source]
        source = state.source
        if signal.kind == "nack":
            state.nack_signals += 1
            if signal.doc_index not in state.nacked_docs:
                # Multiplicative decrease, once per document no matter
                # how many of its copies bounce.
                state.nacked_docs.add(signal.doc_index)
                state.window = max(
                    1.0, state.window * source.decrease_factor
                )
        elif signal.kind == "done":
            state.outstanding -= 1
            state.acked += 1
            if signal.clean:
                state.clean_acks += 1
                state.window = min(
                    source.max_window,
                    state.window
                    + source.additive_increase / max(1.0, state.window),
                )
        self._pump_source(state, now)

    # ------------------------------------------------------------------
    # topology churn
    # ------------------------------------------------------------------

    def schedule_topology(self, time: float, event: TopologyEvent) -> None:
        """Queue a broker join/leave for simulated instant *time*.

        Applying a leave mid-simulation re-routes the retiring broker's
        queued and in-service documents to the merge target — nothing is
        lost, but their service restarts there.  The event is applied by
        :meth:`run` in ``(time, seq)`` order like any other event; the
        outcome (for a join, the minted broker id) is recorded in
        :attr:`topology_log`.
        """
        _require_finite("topology event time", time)
        if time < 0.0:
            raise ValueError("topology event time must be >= 0")
        self._schedule(time, _TOPOLOGY, -1, event)

    def schedule_join(
        self,
        time: float,
        parent: int,
        split: Optional[int] = None,
    ) -> None:
        """Queue an ``add_broker(parent, split=split)`` at *time*."""
        self.schedule_topology(
            time, TopologyEvent(action="join", parent=parent, split=split)
        )

    def schedule_leave(
        self,
        time: float,
        broker_id: int,
        merge_into: Optional[int] = None,
    ) -> None:
        """Queue a ``remove_broker(broker_id, merge_into=...)`` at
        *time*."""
        self.schedule_topology(
            time,
            TopologyEvent(
                action="leave", broker_id=broker_id, merge_into=merge_into
            ),
        )

    def _on_topology(self, event: TopologyEvent, now: float) -> None:
        """Apply one scheduled join/leave to the overlay and the engine.

        A join simply equips the newcomer with an empty service queue.
        A leave re-routes every in-flight document the retiring broker
        owned: its queued documents and the one in service arrive at the
        merge target *now* (service restarts — the aborted service time
        is credited back to the retiring broker's busy time), copies
        already on the wire towards it are re-targeted at their original
        arrival instants, and documents elsewhere that arrived over a
        link from the retiring broker have their origin re-pointed at
        the merge target, matching the renamed reverse-path state.
        Delivered subscriber sets are unaffected: re-routed documents
        may revisit brokers, but deliveries deduplicate per publish.

        Events are scheduled ahead of time, so by their instant an
        earlier leave may have retired a broker they name.  Ids are
        resolved through the merge chain (a join under a retired parent
        grafts under its merge target), stale edge references degrade
        gracefully (a vanished split edge grafts a plain leaf, a
        retired or detached merge target falls back to the default),
        and a leave for an already-retired broker is a recorded no-op —
        the simulation never aborts with events still pending.
        """
        if event.action == "join":
            parent = self._resolve_broker(event.parent)
            split = None
            if event.split is not None:
                split = self._resolve_broker(event.split)
                if (
                    split == parent
                    or split not in self.overlay.brokers[parent].neighbors
                ):
                    split = None
            new_id = int(self.overlay.add_broker(parent, split=split))
            self._ensure_broker(new_id)
            self.topology_log.append((now, event, new_id))
            return
        retiring = event.broker_id
        if retiring in self._retired:
            # An earlier scheduled leave already merged it away.
            self.topology_log.append(
                (now, event, self._resolve_broker(retiring))
            )
            return
        merge_into = event.merge_into
        if merge_into is not None:
            merge_into = self._resolve_broker(merge_into)
            if (
                merge_into == retiring
                or merge_into
                not in self.overlay.brokers[retiring].neighbors
            ):
                merge_into = None
        target = int(
            self.overlay.remove_broker(retiring, merge_into=merge_into)
        )
        self._retired[retiring] = target
        reinject: list[_Job] = list(self._queues.pop(retiring, ()))
        self._busy.pop(retiring, None)
        self._class_service.pop(retiring, None)
        retained = []
        for entry in self._events:
            time, seq, kind, broker_id, payload = entry
            if isinstance(payload, _Job) and payload.origin == retiring:
                payload.origin = target
            elif isinstance(payload, _Batch):
                for job in payload.jobs:
                    if job.origin == retiring:
                        job.origin = target
            if kind == _TOPOLOGY or broker_id != retiring:
                retained.append(entry)
            elif kind == _ARRIVAL:
                retained.append((time, seq, _ARRIVAL, target, payload))
            else:
                # The batch in service: the work is abandoned where it
                # stood and the service restarts at the merge target.
                assert isinstance(payload, _Batch)
                self._busy_time[retiring] -= time - now
                reinject.extend(payload.jobs)
        self._events = retained
        heapq.heapify(self._events)
        for queue in self._queues.values():
            for job in queue:
                if job.origin == retiring:
                    job.origin = target
        for job in reinject:
            self._schedule(now, _ARRIVAL, target, job)
        self.topology_log.append((now, event, target))

    def _resolve_broker(self, broker_id: int) -> int:
        """Follow the merge chain of retired brokers to a live one."""
        while broker_id in self._retired:
            broker_id = self._retired[broker_id]
        return broker_id

    def _ensure_broker(self, broker_id: int) -> None:
        """Create engine-side state for a broker on first use.

        Covers brokers the overlay gained *after* this engine was built
        — whether through a scheduled join event or an out-of-band
        ``add_broker`` call between construction and :meth:`run`.
        (Out-of-band *removals* have no merge record here; retire
        brokers through :meth:`schedule_leave` while a simulation owns
        in-flight documents.)
        """
        if broker_id not in self._queues:
            self._queues[broker_id] = deque()
            self._busy[broker_id] = False
            self._depth_peaks[broker_id] = 0
            self._busy_time[broker_id] = 0.0
            self._class_service[broker_id] = {}

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------

    def _schedule(
        self,
        time: float,
        kind: str,
        broker_id: int,
        job: Union[_Job, _Batch, TopologyEvent, _Signal],
    ) -> None:
        self._sequence += 1
        heapq.heappush(self._events, (time, self._sequence, kind, broker_id, job))

    def _next_job(self, broker_id: int, now: float) -> Optional[_Job]:
        """Pick the next queued document at *broker_id*.

        Delegates to the engine's
        :class:`~repro.routing.policy.SchedulingPolicy` — the queue is
        presented oldest-arrival-first, with the broker's per-class
        service counts, and the policy answers with the position to
        service next, so disciplines never touch the event loop.
        """
        queue = self._queues[broker_id]
        if not queue:
            return None
        choice = self.scheduling.select(
            queue, now, self._class_service.setdefault(broker_id, {})
        )
        if not 0 <= choice < len(queue):
            raise ValueError(
                f"{type(self.scheduling).__name__}.select returned "
                f"position {choice} for a queue of {len(queue)}"
            )
        job = queue[choice]
        del queue[choice]
        self._account_service(broker_id, job)
        return job

    def _account_service(self, broker_id: int, job: _Job) -> None:
        """Charge one service start to the broker's per-class share
        history (what :meth:`_next_job` hands the scheduling policy);
        selections within one batched drain see each other's charges."""
        shares = self._class_service.setdefault(broker_id, {})
        shares[job.priority_class] = shares.get(job.priority_class, 0) + 1

    def _next_batch(self, broker_id: int, now: float) -> list[_Job]:
        """Drain up to ``max_batch`` jobs for one service interval, one
        :meth:`_next_job` policy selection per job — the scheduling
        discipline shapes the batch exactly as it shapes the
        one-at-a-time schedule."""
        jobs: list[_Job] = []
        while len(jobs) < self.service.max_batch:
            job = self._next_job(broker_id, now)
            if job is None:
                break
            jobs.append(job)
        return jobs

    def _start_batch(
        self, broker_id: int, jobs: list[_Job], now: float
    ) -> None:
        """Service *jobs* in one interval: one shared-pool filtering
        pass, one completion event, a duration read off the measured
        batch op count."""
        self._busy[broker_id] = True
        for job in jobs:
            self._queue_delays.append(now - job.arrived_at)
        self._service_batches += 1
        steps = self.overlay.process_batch_at(
            broker_id,
            [job.document for job in jobs],
            [job.origin for job in jobs],
        )
        operations = sum(step.operations for step in steps)
        self._match_operations += operations
        duration = self.service.service_time_batch(operations, len(jobs))
        self._busy_time[broker_id] += duration
        self._schedule(
            now + duration, _COMPLETE, broker_id, _Batch(jobs, steps)
        )

    def _on_arrival(self, broker_id: int, job: _Job, now: float) -> None:
        self._ensure_broker(broker_id)
        job.arrived_at = now
        if self._busy[broker_id] and not self.queue_policy.admits(
            len(self._queues[broker_id])
        ):
            self._on_overflow(broker_id, job, now)
            return
        depth = len(self._queues[broker_id]) + (
            1 if self._busy[broker_id] else 0
        ) + 1
        if depth > self._depth_peaks[broker_id]:
            self._depth_peaks[broker_id] = depth
        if self._busy[broker_id]:
            self._queues[broker_id].append(job)
        else:
            self._account_service(broker_id, job)
            self._start_batch(broker_id, [job], now)

    def _on_overflow(self, broker_id: int, job: _Job, now: float) -> None:
        """Resolve one arrival at a full queue per the queue policy.

        ``drop-new`` discards the arriving copy; ``drop-oldest`` evicts
        the longest-queued copy to admit the arrival (at ``capacity=0``
        there is nothing queued to evict, so it degrades to dropping
        the arrival); ``nack`` rejects the arrival and, when the copy
        belongs to a closed-loop source, schedules the back-pressure
        signal the source's window reacts to.  The queue-depth peak
        never moves here: occupancy is at its bound already.
        """
        queue = self._queues[broker_id]
        if self.queue_policy.overflow == "nack":
            self._record_nack(broker_id, job, now)
        elif self.queue_policy.overflow == "drop-oldest" and queue:
            victim = queue.popleft()
            self._record_drop(broker_id, victim, now)
            queue.append(job)
        else:
            self._record_drop(broker_id, job, now)

    def _record_drop(self, broker_id: int, job: _Job, now: float) -> None:
        """Account the silent death of one document copy at
        *broker_id*."""
        self._dropped_by_class[job.priority_class] = (
            self._dropped_by_class.get(job.priority_class, 0) + 1
        )
        self._dropped_by_broker[broker_id] = (
            self._dropped_by_broker.get(broker_id, 0) + 1
        )
        self._copy_dead(job, now, clean=False)

    def _record_nack(self, broker_id: int, job: _Job, now: float) -> None:
        """Account one rejected copy and signal its source, if any."""
        self._nacked_by_class[job.priority_class] = (
            self._nacked_by_class.get(job.priority_class, 0) + 1
        )
        if job.source is not None:
            delay = self._sources[job.source].source.feedback_delay
            self._schedule(
                now + delay,
                _SIGNAL,
                -1,
                _Signal(job.source, job.doc_index, "nack"),
            )
        self._copy_dead(job, now, clean=False)

    def _copy_dead(self, job: _Job, now: float, clean: bool) -> None:
        """Retire one copy of a closed-loop document; when the last
        copy dies, schedule the source's absorption ("done") signal."""
        if job.source is None:
            return
        if not clean:
            self._dirty_docs.add(job.doc_index)
        remaining = self._outstanding_copies[job.doc_index] - 1
        self._outstanding_copies[job.doc_index] = remaining
        if remaining > 0:
            return
        del self._outstanding_copies[job.doc_index]
        delay = self._sources[job.source].source.feedback_delay
        self._schedule(
            now + delay,
            _SIGNAL,
            -1,
            _Signal(
                job.source,
                job.doc_index,
                "done",
                clean=job.doc_index not in self._dirty_docs,
            ),
        )

    def _deliver_and_forward(
        self, broker_id: int, job: _Job, step: TableMatch, now: float
    ) -> None:
        """Apply one job's completed filtering step: local deliveries
        and forwarded copies."""
        delivered = self._delivered[job.doc_index]
        # A document re-routed by topology churn may revisit a broker;
        # only the first delivery to each subscriber counts — in the sets
        # and in the latency samples, which all equal this job's latency
        # and are kept as one run of as many as the set grew by.
        before = len(delivered)
        delivered.update(*step.members)
        fresh = len(delivered) - before
        if fresh:
            self._latency_runs_by_class.setdefault(
                job.priority_class, []
            ).append((now - job.published_at, fresh))
        for neighbor in step.forwards:
            self._forwards += 1
            # A filtering step computed before a leave event may still
            # name the retired broker; the copy goes to its merge target.
            destination = self._resolve_broker(neighbor)
            forwarded = _Job(
                document=job.document,
                doc_index=job.doc_index,
                published_at=job.published_at,
                origin=broker_id,
                priority_class=job.priority_class,
                deadline=job.deadline,
                source=job.source,
            )
            self._offer(forwarded)
            if job.source is not None:
                # Forwarded copies are born before the serviced copy
                # dies below, so absorption can't fire spuriously.
                self._outstanding_copies[job.doc_index] += 1
            self._schedule(
                now + self.links.latency(broker_id, destination),
                _ARRIVAL,
                destination,
                forwarded,
            )
        self._completed_by_class[job.priority_class] = (
            self._completed_by_class.get(job.priority_class, 0) + 1
        )
        self._copy_dead(job, now, clean=True)

    def _finish_service(self, broker_id: int, now: float) -> None:
        """Free the broker and start its next service interval."""
        self._busy[broker_id] = False
        pending = self._next_batch(broker_id, now)
        if pending:
            self._start_batch(broker_id, pending, now)

    def _on_complete_batch(
        self, broker_id: int, batch: _Batch, now: float
    ) -> None:
        for job, step in zip(batch.jobs, batch.steps, strict=True):
            self._deliver_and_forward(broker_id, job, step, now)
        self._finish_service(broker_id, now)

    def run(self) -> LatencyStats:
        """Process every pending event and report the timing outcome.

        Incremental: more publishes may follow and ``run`` may be called
        again; stats always cover everything processed so far.
        """
        while self._events:
            time, _, kind, broker_id, job = heapq.heappop(self._events)
            self._last_event = max(self._last_event, time)
            if kind == _TOPOLOGY:
                self._on_topology(job, time)
            elif kind == _SIGNAL:
                self._on_signal(job, time)
            elif kind == _ARRIVAL:
                self._on_arrival(broker_id, job, time)
            else:
                self._on_complete_batch(broker_id, job, time)
        return self.stats()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def delivered_sets(self) -> dict[int, frozenset[int]]:
        """Per publish index, the subscriber ids delivered to so far."""
        return {
            index: frozenset(delivered)
            for index, delivered in self._delivered.items()
        }

    def stats(self) -> LatencyStats:
        """The :class:`LatencyStats` of everything processed so far."""
        start = self._first_publish or 0.0
        makespan = max(0.0, self._last_event - start)
        # of_runs sorts its runs, so chaining the classes' runs gives the
        # digest of all samples, float for float.
        latency = ClassLatency.of_runs(
            chain.from_iterable(self._latency_runs_by_class.values())
        )
        delays = sorted(self._queue_delays)
        return LatencyStats(
            documents=len(self._delivered),
            deliveries=latency.deliveries,
            makespan=makespan,
            latency_p50=latency.p50,
            latency_p95=latency.p95,
            latency_p99=latency.p99,
            latency_mean=latency.mean,
            latency_max=latency.max,
            queue_delay_mean=(
                sum(delays) / len(delays) if delays else 0.0
            ),
            queue_delay_p95=ordered_percentile(delays, 95.0),
            queue_delay_max=delays[-1] if delays else 0.0,
            queue_depth_peaks=dict(self._depth_peaks),
            busy_time=dict(self._busy_time),
            match_operations=self._match_operations,
            forwards=self._forwards,
            service_batches=self._service_batches,
            serviced_documents=len(self._queue_delays),
            latency_by_class={
                priority_class: ClassLatency.of_runs(runs)
                for priority_class, runs in sorted(
                    self._latency_runs_by_class.items()
                )
            },
            offered_jobs=sum(self._offered_by_class.values()),
            completed_jobs=sum(self._completed_by_class.values()),
            dropped_jobs=sum(self._dropped_by_class.values()),
            nacked_jobs=sum(self._nacked_by_class.values()),
            offered_by_class=dict(sorted(self._offered_by_class.items())),
            completed_by_class=dict(
                sorted(self._completed_by_class.items())
            ),
            dropped_by_class=dict(sorted(self._dropped_by_class.items())),
            nacked_by_class=dict(sorted(self._nacked_by_class.items())),
            dropped_by_broker=dict(
                sorted(self._dropped_by_broker.items())
            ),
        )

    def __repr__(self) -> str:
        return (
            f"DeliveryEngine(brokers={len(self.overlay.brokers)}, "
            f"documents={len(self._delivered)}, pending={len(self._events)})"
        )
