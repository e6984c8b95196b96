"""Figure 4 — average absolute relative error of positive queries vs the
maximum hash/set size, for Counters / Sets / Hashes on both DTDs.

Paper shape: Hashes clearly outperforms the other approaches and is less
sensitive to the DTD; error decreases with the maximum size; Counters are
constant (no size knob); a hash size of ~10% of the stream suffices for
single-digit relative error.
"""

from __future__ import annotations

from repro.experiments.figures import figure4

from common import save_figure, series_map


def test_figure4(benchmark, quick_configs):
    figure = benchmark.pedantic(
        figure4, args=(quick_configs,), rounds=1, iterations=1
    )
    save_figure(figure)
    curves = series_map(figure)

    for dtd in ("NITF", "XCBL"):
        hashes = curves[f"Hashes - {dtd}"]
        sets = curves[f"Sets - {dtd}"]
        counters = curves[f"Counters - {dtd}"]

        # Counters are flat: no dependence on the swept size.
        assert len(set(counters)) == 1
        # Error decreases with sample size for the sampled representations.
        assert hashes[-1] <= hashes[0]
        assert sets[-1] <= sets[0]
        # Hashes beat Sets at the largest common budget (the paper's
        # headline ordering).
        assert hashes[-1] <= sets[-1] + 1e-9
        # At a budget of ~half the stream, hashes reach low error.
        assert hashes[-1] < 20.0
