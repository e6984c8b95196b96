"""Figure 6 — Erel of positive queries as a function of the *total* synopsis
size |HS| (xCBL data set).

Paper shape: the fairest comparison of the three representations.  Counters
are tiny but inaccurate; at a given space budget Hashes dominate Sets
(the paper: ~5% error at a size Sets need four times as much space for).
"""

from __future__ import annotations

from repro.experiments.figures import figure6

from common import save_figure, series_map


def test_figure6(benchmark, xcbl_quick):
    figure = benchmark.pedantic(
        figure6, args=([xcbl_quick],), rounds=1, iterations=1
    )
    save_figure(figure)
    curves = series_map(figure)
    xs = {series.label: series.xs for series in figure.series}

    counters = xs["Counters - XCBL"]
    hashes_xs = xs["Hashes - XCBL"]

    # Counters are a fixed-size structure: a single point, far below the
    # largest sampled budgets.
    assert len(counters) == 1
    assert counters[0] < max(hashes_xs)

    # Accuracy improves as the synopsis grows, for both sampled schemes.
    assert curves["Hashes - XCBL"][-1] <= curves["Hashes - XCBL"][0]
    assert curves["Sets - XCBL"][-1] <= curves["Sets - XCBL"][0]

    # Hashes dominate Sets at the largest budget, and beat the counter
    # baseline's fixed accuracy once given enough space.
    assert curves["Hashes - XCBL"][-1] <= curves["Sets - XCBL"][-1] + 1e-9
    assert curves["Hashes - XCBL"][-1] <= curves["Counters - XCBL"][0] + 1e-9
