"""Extension bench: tree-pattern minimization on root-merged patterns.

The ``P(p ∧ q)`` construction doubles pattern sizes; related-work
minimization (Amer-Yahia et al.) removes branches one pattern already
implies of the other.  This bench measures, over the quick-scale NITF pair
workload, how much the merged patterns shrink and verifies minimization is
estimate-neutral (it must be: minimized patterns are semantically equal).
"""

from __future__ import annotations

from repro.core.minimize import minimize
from repro.core.pattern_algebra import merge_patterns
from repro.core.selectivity import SelectivityEstimator
from repro.experiments.harness import build_synopsis, prepare

from common import RESULTS_DIR


def test_minimized_merge(benchmark, nitf_quick):
    prepared = prepare(nitf_quick)
    synopsis = build_synopsis(prepared, "sets", nitf_quick.n_documents)
    estimator = SelectivityEstimator(synopsis)
    pairs = prepared.pairs[:100]

    def run():
        merged_sizes = 0
        minimized_sizes = 0
        max_drift = 0.0
        for p, q in pairs:
            merged = merge_patterns(p, q)
            reduced = minimize(merged)
            merged_sizes += merged.size()
            minimized_sizes += reduced.size()
            drift = abs(
                estimator.selectivity(merged) - estimator.selectivity(reduced)
            )
            max_drift = max(max_drift, drift)
        return merged_sizes, minimized_sizes, max_drift

    merged_sizes, minimized_sizes, max_drift = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    saved = 100.0 * (1.0 - minimized_sizes / merged_sizes)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "minimization.txt").write_text(
        f"pairs={len(pairs)} merged nodes={merged_sizes} "
        f"minimized nodes={minimized_sizes} saved={saved:.1f}% "
        f"max estimate drift={max_drift}\n"
    )
    print(f"\nminimization saves {saved:.1f}% of merged-pattern nodes")

    # Minimization never grows a pattern and never changes estimates
    # (lossless-sets estimates are purely structural).
    assert minimized_sizes <= merged_sizes
    assert max_drift == 0.0
