"""Figure 5 — log10 of the RMS error of negative queries vs maximum
hash/set size.

Paper shape: all three methods almost always identify negative queries
(errors around 1e-4 .. 1e-6); Hashes outperforms the others; Sets/Hashes
curves that produce *no* error are omitted (the paper drops them for xCBL).
"""

from __future__ import annotations

from repro.experiments.figures import figure5

from common import save_figure, series_map


def test_figure5(benchmark, quick_configs):
    figure = benchmark.pedantic(
        figure5, args=(quick_configs,), rounds=1, iterations=1
    )
    save_figure(figure)
    curves = series_map(figure)

    # Whatever survives the zero-drop must be a *small* error: log10 <= -1.5
    # (i.e. RMS error below ~0.03 on a [0,1] quantity).
    for label, ys in curves.items():
        assert all(y <= -1.5 for y in ys), (label, ys)

    # Negative queries are essentially always identified at the largest
    # budget: every curve ends at log10(Esqr) <= -2 or vanished entirely.
    for label, ys in curves.items():
        if ys:
            assert ys[-1] <= -2.0, (label, ys)
