"""The paper's primary contribution: tree patterns, selectivity estimation
over document synopses, and proximity metrics."""

from repro.core.candidates import (
    CandidateGenerator,
    ExactCandidates,
    LSHCandidates,
)
from repro.core.containment import containment_order, contains, equivalent
from repro.core.errors import (
    ErrorSummary,
    average_relative_error,
    root_mean_square_error,
)
from repro.core.labels import DESCENDANT, ROOT_LABEL, WILDCARD, label_below
from repro.core.minimize import is_minimal, minimize
from repro.core.pattern import PatternError, PatternNode, TreePattern
from repro.core.pattern_algebra import merge_patterns, path_pattern, pattern_from_paths
from repro.core.pattern_parser import XPathSyntaxError, parse_xpath, to_xpath
from repro.core.selectivity import SelectivityEstimator
from repro.core.similarity import (
    METRICS,
    IndexStats,
    SimilarityIndex,
    m1_conditional,
    m2_mean_conditional,
    m3_joint_over_union,
)

__all__ = [
    "contains",
    "equivalent",
    "containment_order",
    "minimize",
    "is_minimal",
    "DESCENDANT",
    "ROOT_LABEL",
    "WILDCARD",
    "label_below",
    "PatternError",
    "PatternNode",
    "TreePattern",
    "merge_patterns",
    "path_pattern",
    "pattern_from_paths",
    "XPathSyntaxError",
    "parse_xpath",
    "to_xpath",
    "SelectivityEstimator",
    "CandidateGenerator",
    "ExactCandidates",
    "LSHCandidates",
    "METRICS",
    "IndexStats",
    "SimilarityIndex",
    "m1_conditional",
    "m2_mean_conditional",
    "m3_joint_over_union",
    "ErrorSummary",
    "average_relative_error",
    "root_mean_square_error",
]
