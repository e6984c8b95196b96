"""Ablation: decomposing the estimation error into its two sources.

The synopsis approximates in two independent ways:

1. **skeletonisation** — documents enter as skeleton trees, so instance-
   level branching is lost (``/a/b[c][d]`` cannot distinguish one ``b``
   carrying both children from two ``b``'s carrying one each); this error
   is *structural* and upward-only;
2. **sampling** — matching sets are summarised (reservoir or distinct
   samples); this error is *statistical* and two-sided.

Running Sets mode with capacity ≥ the stream isolates (1): no sampling
occurs, every remaining error is skeletonisation.  The gap between that
floor and any finite-budget configuration is the sampling component.
"""

from __future__ import annotations

import pytest

from repro.experiments.harness import evaluate, prepare

from common import RESULTS_DIR


@pytest.mark.parametrize("dtd_name", ["nitf", "xcbl"])
def test_skeleton_error_floor(benchmark, dtd_name, quick_configs):
    config = next(c for c in quick_configs if c.dtd_name == dtd_name)
    prepared = prepare(config)

    def run():
        lossless = evaluate(prepared, "sets", config.n_documents)
        sampled = evaluate(prepared, "hashes", max(config.sizes) // 2)
        return lossless, sampled

    lossless, sampled = benchmark.pedantic(run, rounds=1, iterations=1)

    floor = lossless.erel_positive.percent
    total = sampled.erel_positive.percent

    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "ablation_skeleton.txt", "a") as out:
        out.write(
            f"{dtd_name}: skeletonisation floor {floor:.2f}% | "
            f"hashes@{max(config.sizes) // 2} total {total:.2f}% | "
            f"sampling component {max(total - floor, 0.0):.2f}%\n"
        )
    print(
        f"\n{dtd_name}: floor={floor:.2f}% total={total:.2f}% "
        f"sampling={max(total - floor, 0.0):.2f}%"
    )

    # The lossless configuration bounds every sampled one from below.
    assert floor <= total + 1e-9
    # Skeletonisation alone is a modest error source on DTD-driven data
    # (documents valid for one DTD rarely split pattern branches across
    # same-tag siblings in ways that matter).
    assert floor < 20.0
