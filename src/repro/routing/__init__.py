"""Content-based routing application layer.

Module map:

* :mod:`repro.routing.community` — semantic communities:
  :func:`leader_clustering` (online, greedy), gateable by a
  :class:`~repro.core.candidates.CandidateGenerator` (``candidates=``)
  so only colliding pairs are ever evaluated, builds the
  :class:`LeaderClusters` record that a broker's churn edits in place;
* :mod:`repro.routing.broker` — the engine's latency report,
  :class:`LatencyStats`;
* :mod:`repro.routing.table` — covering-aware broker routing tables:
  pattern → destination entries minimised through
  :mod:`repro.core.containment`, with reversible covering (absorbed
  advertisements are remembered and resurrected by
  ``RoutingTable.remove_pattern`` when their cover leaves); matching
  runs on a merged :class:`~repro.routing.trie.PatternTrie` by default,
  with the per-pattern linear scan retained as the oracle, and batched
  (``destinations_for_batch``) so one memo pool is shared across a
  queue drain; each document's match is a :class:`TableMatch`, the one
  broker step type, set from the trie's accepted entries when the match
  is made — their member collections, united only when read, the
  matched forward links in table order and the operations spent —
  which the overlay's ``route`` and the delivery engine apply, and
  whose table-order destination list is decoded only when read;
* :mod:`repro.routing.trie` — :class:`PatternTrie`, the merged pattern
  trie: every active pattern of a broker shares one degree-sorted
  structure, so one document traversal yields all matching destinations
  with sublinear trie operations, maintained incrementally under
  covering churn and topology surgery; ``match_batch`` shares one
  cross-document memo pool keyed on interned skeleton keys so repeated
  document structure in a batch is matched once;
* :mod:`repro.routing.overlay` — the multi-broker overlay: chain / star /
  random-tree topologies, hop-by-hop advertisement with covering pruning,
  reverse-path document routing, per-broker cost accounting, the
  community-aggregated advertisement regime built on the similarity
  engine, the subscription lifecycle —
  ``subscribe(broker, pattern) -> SubscriptionId`` / ``unsubscribe(id)``
  with hop-by-hop unadvertise propagation and incremental community
  re-aggregation over per-broker live
  :class:`~repro.core.similarity.SimilarityIndex` instances — and the
  topology lifecycle: ``add_broker(parent, split=...) -> BrokerId``
  grafts a broker (seeded with exactly the advertisement state its
  neighbours have forwarded), ``remove_broker(id, merge_into=...)``
  retires one (withdrawing its advertisements, re-homing its
  subscriptions and subtrees, transplanting its reversible-covering
  state), with routing tables provably equal to a from-scratch rebuild
  after any interleaving of churn;
* :mod:`repro.routing.policy` — the first-class routing policies:
  :class:`AdvertisementPolicy` strategies (per-subscription, community,
  hybrid) consumed by ``BrokerOverlay.advertise``,
  :class:`SchedulingPolicy` disciplines (FIFO, priority with optional
  aging, deadline, weighted-fair) consumed by the delivery engine, and
  :class:`QueuePolicy` bounding broker queues with drop-new /
  drop-oldest / nack overflow;
* :mod:`repro.routing.engine` — the discrete-event delivery engine:
  seeded, wall-clock-free simulation of the overlay under load, with
  per-broker service queues drained by a swappable
  :class:`SchedulingPolicy` (:class:`ServiceModel` maps match operations
  to service time; :class:`BatchServiceModel` drains several queued
  documents per interval under a measured non-affine cost curve),
  per-link forwarding latencies (:class:`LinkModel`), bounded queues
  with drop/NACK accounting under a conservation ledger
  (offered == completed + dropped + nacked + in-flight), closed-loop
  AIMD publishers (:class:`ClosedLoopSource`, reported per source by
  :class:`SourceReport`), and :class:`LatencyStats` reporting latency
  percentiles — overall and per subscriber class — queue-depth peaks,
  admitted-vs-offered throughput and per-class drop counts — it
  filters through the same broker-local steps as the synchronous
  path, so delivery sets are identical by construction.
"""

from repro.routing.broker import (
    ClassLatency,
    LatencyStats,
    ordered_percentile,
    percentile,
)
from repro.routing.community import LeaderClusters, leader_clustering
from repro.routing.engine import (
    BatchServiceModel,
    ClosedLoopSource,
    DeliveryEngine,
    LinkModel,
    ServiceModel,
    SourceReport,
    TopologyEvent,
)
from repro.routing.policy import (
    AdvertisementPolicy,
    CommunityPolicy,
    DeadlineScheduling,
    FifoScheduling,
    HybridPolicy,
    PerSubscriptionPolicy,
    PriorityScheduling,
    QueuePolicy,
    SchedulingPolicy,
    WeightedFairScheduling,
)
from repro.routing.overlay import (
    TOPOLOGIES,
    BrokerId,
    BrokerNode,
    BrokerOverlay,
    OverlayStats,
    SubscriptionId,
)
from repro.routing.table import (
    RoutingTable,
    TableBatchMatch,
    TableEntry,
    TableMatch,
)
from repro.routing.trie import BatchMatch, PatternTrie, TrieMatch

__all__ = [
    "LeaderClusters",
    "leader_clustering",
    "RoutingTable",
    "TableEntry",
    "TableMatch",
    "TableBatchMatch",
    "PatternTrie",
    "TrieMatch",
    "BatchMatch",
    "BrokerId",
    "BrokerNode",
    "BrokerOverlay",
    "OverlayStats",
    "SubscriptionId",
    "TOPOLOGIES",
    "DeliveryEngine",
    "TopologyEvent",
    "ServiceModel",
    "BatchServiceModel",
    "LinkModel",
    "ClosedLoopSource",
    "SourceReport",
    "LatencyStats",
    "ClassLatency",
    "percentile",
    "ordered_percentile",
    "AdvertisementPolicy",
    "PerSubscriptionPolicy",
    "CommunityPolicy",
    "HybridPolicy",
    "SchedulingPolicy",
    "FifoScheduling",
    "PriorityScheduling",
    "DeadlineScheduling",
    "WeightedFairScheduling",
    "QueuePolicy",
]
