"""reprolint: the project's determinism/purity invariants as lint rules.

The reproduction's headline guarantees (sync walk == event engine,
trie == linear oracle, incremental churn == fresh rebuild) presuppose
source-level discipline — seeded randomness, no wall-clock reads, stable hashes,
ordered iteration, frozen models, engine-agnostic broker steps.  This
package checks that discipline mechanically::

    python -m repro.analysis src tests benchmarks examples

See :mod:`repro.analysis.engine` for the suppression syntax and the
exit-code contract, :mod:`repro.analysis.rules` for the rule catalogue,
and ``docs/static-analysis.md`` for the narrative documentation.
"""

from repro.analysis.engine import (
    CODE_BAD_SUPPRESSION,
    CODE_UNUSED_SUPPRESSION,
    AnalysisError,
    AnalysisReport,
    Rule,
    SourceFile,
    Suppression,
    Violation,
    iter_python_files,
    render_json,
    run_analysis,
)
from repro.analysis.rules import (
    DocstringRule,
    EngineIsolationRule,
    ExportConsistencyRule,
    FrozenModelRule,
    ProcessHashRule,
    UnorderedIterationRule,
    UnseededRandomRule,
    WallClockRule,
    default_rules,
)

__all__ = [
    "CODE_BAD_SUPPRESSION",
    "CODE_UNUSED_SUPPRESSION",
    "AnalysisError",
    "AnalysisReport",
    "Rule",
    "SourceFile",
    "Suppression",
    "Violation",
    "iter_python_files",
    "render_json",
    "run_analysis",
    "DocstringRule",
    "EngineIsolationRule",
    "ExportConsistencyRule",
    "FrozenModelRule",
    "ProcessHashRule",
    "UnorderedIterationRule",
    "UnseededRandomRule",
    "WallClockRule",
    "default_rules",
]
