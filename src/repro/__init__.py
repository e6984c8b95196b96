"""repro — Tree-Pattern Similarity Estimation for Scalable Content-based Routing.

A faithful, self-contained reproduction of Chand, Felber & Garofalakis
(ICDE 2007).  The top-level namespace re-exports the public API; see the
subpackages for the full surface:

* :mod:`repro.core` — tree patterns, ``SEL`` selectivity estimation,
  proximity metrics M1/M2/M3, error metrics;
* :mod:`repro.xmltree` — XML document trees, skeletons, exact matching;
* :mod:`repro.synopsis` — the stream synopsis with counter / set / hash
  matching-set summaries, pruning and compression;
* :mod:`repro.dtd` — DTD model, parser, and the built-in NITF/xCBL-scale
  document types;
* :mod:`repro.generators` — DTD-driven document and tree-pattern workload
  generators;
* :mod:`repro.routing` — semantic communities and content-based routing
  simulation;
* :mod:`repro.experiments` — ground truth, harness, and the per-figure
  experiment runners.
"""

from repro.core import (
    METRICS,
    ExactCandidates,
    LSHCandidates,
    SelectivityEstimator,
    SimilarityIndex,
    TreePattern,
    average_relative_error,
    merge_patterns,
    parse_xpath,
    root_mean_square_error,
    to_xpath,
)
from repro.routing import (
    BrokerId,
    BrokerOverlay,
    BatchServiceModel,
    ClosedLoopSource,
    CommunityPolicy,
    DeadlineScheduling,
    DeliveryEngine,
    FifoScheduling,
    HybridPolicy,
    LatencyStats,
    LinkModel,
    OverlayStats,
    PatternTrie,
    PerSubscriptionPolicy,
    PriorityScheduling,
    QueuePolicy,
    RoutingTable,
    ServiceModel,
    SourceReport,
    TopologyEvent,
    WeightedFairScheduling,
)
from repro.synopsis import DocumentSynopsis, compress_to_ratio, measure
from repro.xmltree import PatternMatcher, XMLTree, matches, parse_xml, skeleton

__version__ = "1.0.0"

__all__ = [
    "TreePattern",
    "parse_xpath",
    "to_xpath",
    "merge_patterns",
    "SelectivityEstimator",
    "METRICS",
    "SimilarityIndex",
    "ExactCandidates",
    "LSHCandidates",
    "BrokerId",
    "BrokerOverlay",
    "OverlayStats",
    "RoutingTable",
    "PatternTrie",
    "TopologyEvent",
    "PerSubscriptionPolicy",
    "CommunityPolicy",
    "HybridPolicy",
    "DeliveryEngine",
    "ServiceModel",
    "BatchServiceModel",
    "LinkModel",
    "FifoScheduling",
    "PriorityScheduling",
    "DeadlineScheduling",
    "WeightedFairScheduling",
    "QueuePolicy",
    "ClosedLoopSource",
    "SourceReport",
    "LatencyStats",
    "average_relative_error",
    "root_mean_square_error",
    "DocumentSynopsis",
    "compress_to_ratio",
    "measure",
    "XMLTree",
    "parse_xml",
    "skeleton",
    "PatternMatcher",
    "matches",
    "__version__",
]
