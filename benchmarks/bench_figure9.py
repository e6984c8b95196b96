"""Figure 9 — average absolute relative error of proximity metric
M3(p,q) = P(p ∧ q) / P(p ∨ q).

Paper shape: consistent with M1/M2; Hashes produce good estimates with
relatively small per-node budgets.
"""

from __future__ import annotations

from repro.experiments.figures import figure9

from common import save_figure, series_map


def test_figure9(benchmark, quick_configs):
    figure = benchmark.pedantic(
        figure9, args=(quick_configs,), rounds=1, iterations=1
    )
    save_figure(figure)
    curves = series_map(figure)

    for dtd in ("NITF", "XCBL"):
        hashes = curves[f"Hashes - {dtd}"]
        sets = curves[f"Sets - {dtd}"]
        counters = curves[f"Counters - {dtd}"]
        assert len(set(counters)) == 1          # flat baseline
        assert hashes[-1] <= hashes[0]          # decays with budget
        # Sweep-mean comparison: see bench_figure7 for the rationale.
        assert sum(hashes) / len(hashes) <= sum(sets) / len(sets) + 1e-9
        assert hashes[-1] < 25.0                # good estimates at ~half stream
