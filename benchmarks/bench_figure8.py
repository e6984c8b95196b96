"""Figure 8 — average absolute relative error of proximity metric
M2(p,q) = (P(p|q) + P(q|p)) / 2.

Paper shape: near-identical to Figures 7 and 9 — the three metrics behave
consistently, which the paper reads as evidence the estimator is stable.
"""

from __future__ import annotations

from repro.experiments.figures import figure7, figure8

from common import save_figure, series_map


def test_figure8(benchmark, quick_configs):
    figure = benchmark.pedantic(
        figure8, args=(quick_configs,), rounds=1, iterations=1
    )
    save_figure(figure)
    curves = series_map(figure)

    for dtd in ("NITF", "XCBL"):
        hashes = curves[f"Hashes - {dtd}"]
        sets = curves[f"Sets - {dtd}"]
        assert hashes[-1] <= hashes[0]
        # Sweep-mean comparison: see bench_figure7 for the rationale.
        assert sum(hashes) / len(hashes) <= sum(sets) / len(sets) + 1e-9

    # Consistency across metrics (paper's observation): at the largest
    # budget M1 and M2 errors agree within a small factor for Hashes.
    m1 = series_map(figure7(quick_configs))
    for dtd in ("NITF", "XCBL"):
        a = curves[f"Hashes - {dtd}"][-1]
        b = m1[f"Hashes - {dtd}"][-1]
        assert abs(a - b) <= max(5.0, 0.5 * max(a, b) + 1e-9)
