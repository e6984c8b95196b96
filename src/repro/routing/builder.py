"""Fluent façade assembling a routed overlay and its delivery engine.

Standing up an overlay deployment takes five decisions — topology,
subscription placement, advertisement policy (plus the selectivity
provider similarity-based policies score patterns with), the broker
service / link timing models, and the queueing discipline.  Before this
module every benchmark and example re-threaded those decisions by hand
through ``BrokerOverlay.build`` → ``attach_round_robin`` →
``advertise(policy)`` → ``DeliveryEngine(...)``.  :class:`OverlayBuilder`
composes them declaratively:

>>> # overlay, engine = (
>>> #     OverlayBuilder()
>>> #     .topology("random_tree", n_brokers=8, seed=11)
>>> #     .subscriptions(patterns)                  # round-robin homes
>>> #     .provider(corpus)
>>> #     .advertisement(CommunityPolicy(threshold=0.5))
>>> #     .service(ServiceModel(base=0.2, per_match=0.05))
>>> #     .links(LinkModel(default=1.0))
>>> #     .scheduling(PriorityScheduling())
>>> #     .queue_policy(QueuePolicy(64, "nack"))     # bounded queues
>>> #     .build()
>>> # )

:meth:`OverlayBuilder.build_overlay` stops after advertisement for
match-count workloads that never need a clock;
:meth:`OverlayBuilder.build_engine` attaches a fresh engine with the
configured timing models to an already-built overlay, which is how a
benchmark replays one advertisement state under several schedules.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.pattern import TreePattern
from repro.core.similarity import SelectivityProvider
from repro.routing.engine import (
    ClosedLoopSource,
    DeliveryEngine,
    LinkModel,
    ServiceModel,
)
from repro.routing.overlay import TOPOLOGIES, BrokerOverlay
from repro.routing.policy import (
    AdvertisementPolicy,
    FifoScheduling,
    PerSubscriptionPolicy,
    QueuePolicy,
    SchedulingPolicy,
)

__all__ = ["OverlayBuilder"]


class OverlayBuilder:
    """Composable recipe for a ``(BrokerOverlay, DeliveryEngine)`` pair.

    Every setter returns the builder, so a deployment reads as one
    fluent expression; :meth:`build` materialises it.  A builder is
    reusable — each ``build*`` call produces a fresh overlay — which
    makes it the natural sweep primitive: configure once, build per
    cell.
    """

    def __init__(self) -> None:
        self._topology: Optional[str] = None
        self._n_brokers = 0
        self._seed = 0
        self._edges: Optional[list[tuple[int, int]]] = None
        #: Placement program, applied in call order: ("rr", patterns) or
        #: ("at", broker_id, pattern).
        self._placements: list[tuple] = []
        self._advertisement: AdvertisementPolicy = PerSubscriptionPolicy()
        self._provider: Optional[SelectivityProvider] = None
        self._service: Optional[ServiceModel] = None
        self._links: Optional[LinkModel] = None
        self._scheduling: SchedulingPolicy = FifoScheduling()
        self._queue_policy = QueuePolicy()
        self._sources: list[ClosedLoopSource] = []
        self._allow_topology_churn = False
        self._matching = "trie"

    # ------------------------------------------------------------------
    # topology and membership
    # ------------------------------------------------------------------

    def topology(self, name: str, n_brokers: int, seed: int = 0) -> "OverlayBuilder":
        """A named broker-tree shape from :data:`TOPOLOGIES`."""
        if name not in TOPOLOGIES:
            raise ValueError(f"unknown topology {name!r}; choose from {TOPOLOGIES}")
        self._topology = name
        self._n_brokers = n_brokers
        self._seed = seed
        self._edges = None
        return self

    def edges(
        self, n_brokers: int, edges: Iterable[tuple[int, int]]
    ) -> "OverlayBuilder":
        """An explicit broker tree, for shapes the factories don't cover."""
        self._topology = None
        self._n_brokers = n_brokers
        self._edges = [tuple(edge) for edge in edges]
        return self

    def subscriptions(self, patterns: Iterable[TreePattern]) -> "OverlayBuilder":
        """Home *patterns* round-robin across the brokers."""
        self._placements.append(("rr", list(patterns)))
        return self

    def subscribe(self, broker_id: int, pattern: TreePattern) -> "OverlayBuilder":
        """Home one pattern on an explicit broker."""
        self._placements.append(("at", broker_id, pattern))
        return self

    # ------------------------------------------------------------------
    # policies and models
    # ------------------------------------------------------------------

    def advertisement(self, policy: AdvertisementPolicy) -> "OverlayBuilder":
        """The advertisement policy.

        Defaults to :class:`~repro.routing.policy.PerSubscriptionPolicy`.
        A :class:`~repro.routing.policy.CommunityPolicy` carries its own
        candidate generator (``candidates=``).
        """
        self._advertisement = policy
        return self

    def provider(self, provider: SelectivityProvider) -> "OverlayBuilder":
        """The selectivity provider similarity-based policies score with."""
        self._provider = provider
        return self

    def service(self, model: ServiceModel) -> "OverlayBuilder":
        """The broker service-time model (engine default when unset).

        Passing a :class:`~repro.routing.engine.BatchServiceModel`
        switches the engine to batched queue drains: idle brokers pull
        up to ``max_batch`` queued documents per service interval and
        match them through one shared memo pool.
        """
        self._service = model
        return self

    def links(self, model: LinkModel) -> "OverlayBuilder":
        """The inter-broker link-latency model (engine default when unset)."""
        self._links = model
        return self

    def scheduling(self, policy: SchedulingPolicy) -> "OverlayBuilder":
        """The queueing discipline.

        Defaults to :class:`~repro.routing.policy.FifoScheduling`.
        """
        self._scheduling = policy
        return self

    def queue_policy(self, policy: QueuePolicy) -> "OverlayBuilder":
        """Queue admission at every broker.

        Defaults to the unbounded :class:`~repro.routing.policy.QueuePolicy`.
        """
        self._queue_policy = policy
        return self

    def sources(self, *sources: ClosedLoopSource) -> "OverlayBuilder":
        """Closed-loop publishers to attach to every built engine.

        Each :class:`~repro.routing.engine.ClosedLoopSource` is
        registered via
        :meth:`~repro.routing.engine.DeliveryEngine.attach_source` in
        the given order (source indices follow it); calling again
        appends.  Open-loop ``publish_corpus`` remains available on the
        built engine alongside.
        """
        self._sources.extend(sources)
        return self

    def matching(self, mode: str) -> "OverlayBuilder":
        """The broker matching mode: ``"trie"`` (default) or ``"linear"``.

        ``"trie"`` merges each broker's patterns into one
        :class:`~repro.routing.trie.PatternTrie`, so a document costs one
        traversal per broker and ``match_operations`` counts trie work;
        ``"linear"`` is the per-pattern oracle the trie is validated
        against, counting one operation per pattern evaluation.
        """
        if mode not in ("trie", "linear"):
            raise ValueError(
                f"unknown matching mode {mode!r}; choose 'trie' or 'linear'"
            )
        self._matching = mode
        return self

    def allow_topology_churn(self, allow: bool = True) -> "OverlayBuilder":
        """Permit broker join/leave events on the built engine.

        Off by default: scheduling a
        :class:`~repro.routing.engine.TopologyEvent` mid-simulation
        re-routes in-flight documents at a retiring broker (their
        service restarts at the merge target), a timing semantics the
        deployment opts into explicitly.  The overlay's own
        ``add_broker`` / ``remove_broker`` are always available — this
        gate only covers churn scheduled *inside* a running simulation.
        """
        self._allow_topology_churn = allow
        return self

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------

    def build_overlay(self) -> BrokerOverlay:
        """A fresh overlay: topology, membership, advertisement state."""
        if self._n_brokers < 1:
            raise ValueError(
                "no topology configured: call topology() or edges() first"
            )
        if self._edges is not None:
            overlay = BrokerOverlay(
                self._n_brokers, list(self._edges), matching=self._matching
            )
        else:
            overlay = BrokerOverlay.build(
                self._topology,
                self._n_brokers,
                seed=self._seed,
                matching=self._matching,
            )
        for placement in self._placements:
            if placement[0] == "rr":
                overlay.attach_round_robin(placement[1])
            else:
                overlay.attach(placement[1], placement[2])
        overlay.advertise(self._advertisement, self._provider)
        return overlay

    def build_engine(self, overlay: BrokerOverlay) -> DeliveryEngine:
        """A fresh engine over *overlay* with the configured models.

        Lets one advertised overlay host several engine runs — replaying
        a stream under different rates or schedules without paying the
        advertisement flood again.
        """
        engine = DeliveryEngine(
            overlay,
            service=self._service,
            links=self._links,
            scheduling=self._scheduling,
            queue_policy=self._queue_policy,
            allow_topology_churn=self._allow_topology_churn,
        )
        for source in self._sources:
            engine.attach_source(source)
        return engine

    def build(self) -> tuple[BrokerOverlay, DeliveryEngine]:
        """The configured ``(overlay, engine)`` pair, freshly built."""
        overlay = self.build_overlay()
        return overlay, self.build_engine(overlay)

    def __repr__(self) -> str:
        shape = (
            f"edges[{self._n_brokers}]"
            if self._edges is not None
            else f"{self._topology}[{self._n_brokers}]"
        )
        return (
            f"OverlayBuilder({shape}, "
            f"advertisement={self._advertisement!r}, "
            f"scheduling={self._scheduling!r})"
        )
