"""Figure 7 — average absolute relative error of proximity metric
M1(p,q) = P(p|q) over random positive-pattern pairs.

Paper shape: same ordering as Figure 4 (Hashes best) with higher absolute
errors, since the metric composes several estimates.
"""

from __future__ import annotations

from repro.experiments.figures import figure4, figure7

from common import save_figure, series_map


def test_figure7(benchmark, quick_configs):
    figure = benchmark.pedantic(
        figure7, args=(quick_configs,), rounds=1, iterations=1
    )
    save_figure(figure)
    curves = series_map(figure)

    for dtd in ("NITF", "XCBL"):
        hashes = curves[f"Hashes - {dtd}"]
        sets = curves[f"Sets - {dtd}"]
        assert hashes[-1] <= hashes[0]          # error decays with budget
        # Hashes win across the sweep.  The comparison uses sweep means:
        # at the very top of the quick-scale sweep the capacity approaches
        # the stream length and Sets saturate to losslessness (a reduced-
        # scale artifact), while single mid-points are noisy.
        assert sum(hashes) / len(hashes) <= sum(sets) / len(sets) + 1e-9

    # Metric errors compound estimation errors: at the smallest budget the
    # metric error is at least the plain selectivity error (Figure 4).
    selectivity = series_map(figure4(quick_configs))
    assert curves["Hashes - NITF"][0] >= 0.5 * selectivity["Hashes - NITF"][0]
