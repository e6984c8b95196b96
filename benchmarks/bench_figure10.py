"""Figure 10 — Erel (positive) and Esqr (negative) as functions of the
synopsis compression ratio α, for the Hashes representation at a fixed
per-node budget.

Paper shape: positive-query error decreases as α grows toward 1 (less
compression), remaining reasonable (~15%) at α = 0.2; the negative-query
error stays extremely low and — counter-intuitively — *increases* with α,
because a heavily pruned synopsis has fewer paths left to wrongly accept a
negative query.
"""

from __future__ import annotations

from repro.experiments.figures import figure10

from common import save_figure, series_map


def test_figure10(benchmark, quick_configs):
    figure = benchmark.pedantic(
        figure10, args=(quick_configs,), rounds=1, iterations=1
    )
    save_figure(figure)
    curves = series_map(figure)

    for dtd in ("NITF", "XCBL"):
        erel = curves[f"Erel - {dtd}"]
        # Less compression -> better (or equal) accuracy at the extremes.
        assert erel[-1] <= erel[0] + 1e-9
        # Uncompressed (alpha = 1.0, lossless folds only) stays accurate.
        assert erel[-1] < 25.0

    # Negative-query errors, when present at all, stay tiny.
    for label, ys in curves.items():
        if label.startswith("Esqr") and ys:
            assert all(y <= -1.5 for y in ys), (label, ys)
