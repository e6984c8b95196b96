"""Section 5.1 setup statistics (Table 1 and the workload profile prose).

Regenerates, at quick scale, the numbers the paper quotes about its data
sets: document counts and sizes, and the positive workloads' average /
most-selective / least-selective pattern selectivities (paper: 8.27% NITF /
36.17% xCBL averages, 0.01% minima, 84.85% / 100% maxima).
"""

from __future__ import annotations

from repro.experiments.figures import setup_summary
from repro.experiments.report import render_summary

from common import RESULTS_DIR


def test_setup_summary(benchmark, quick_configs):
    summary = benchmark.pedantic(
        setup_summary, args=(quick_configs,), rounds=1, iterations=1
    )
    table = render_summary(summary)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "setup_summary.txt").write_text(table)
    print()
    print(table)

    for dtd_name in ("nitf", "xcbl"):
        stats = summary[dtd_name]
        # Documents average ~100 tag pairs at <= 10 levels (Section 5.1).
        assert 60 <= stats["avg_tag_pairs"] <= 160
        assert stats["max_depth"] <= 10
        # Positive patterns span the selectivity range.
        assert 0 < stats["positive_min_selectivity_pct"] < 10
        assert stats["positive_max_selectivity_pct"] >= 50
    # xCBL patterns are less selective than NITF's on average
    # (paper: 36.17% vs 8.27%).
    assert (
        summary["xcbl"]["positive_avg_selectivity_pct"]
        > summary["nitf"]["positive_avg_selectivity_pct"]
    )
