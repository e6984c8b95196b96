"""Ablation: the hash-mode probability estimator (design choice in
``repro.core.selectivity``).

``P(p) = |SEL(rs, rp)| / |S(rs)|`` leaves open how each cardinality is
estimated from distinct samples.  Three candidates:

* **aligned-ratio** — subsample numerator and denominator to a common level
  and ratio the raw counts;
* **exact-N** (the implementation's choice) — expand the numerator at its
  own level, divide by the exactly-known stream count;
* **estimated-N** — expand both numerator and root-sample cardinality.

Aligned-ratio is exact for stream-wide patterns but collapses resolution
whenever one universal path drives the root sample to a high level; exact-N
keeps each query's own sample resolution.  This bench quantifies the gap
that justified the choice (documented in the selectivity module).
"""

from __future__ import annotations

import pytest

from repro.core.errors import average_relative_error
from repro.core.selectivity import SelectivityEstimator
from repro.experiments.harness import build_synopsis, prepare

from common import RESULTS_DIR

CAPACITY = 100  # 20% of the quick-scale stream


def _estimate_all(prepared, strategy: str) -> list[float]:
    synopsis = build_synopsis(prepared, "hashes", CAPACITY)
    estimator = SelectivityEstimator(synopsis)
    root_view = synopsis.full_view(synopsis.root)
    values = []
    for pattern in prepared.positive:
        view = estimator.matching_view(pattern)
        if strategy == "aligned-ratio":
            level = max(view.level, root_view.level)
            root_ids = root_view.at_level(level)
            value = len(view.at_level(level)) / len(root_ids) if root_ids else 0.0
        elif strategy == "exact-N":
            value = view.estimate_cardinality() / synopsis.n_documents
        else:  # estimated-N
            denominator = max(root_view.estimate_cardinality(), 1.0)
            value = view.estimate_cardinality() / denominator
        values.append(min(max(value, 0.0), 1.0))
    return values


@pytest.mark.parametrize("dtd_name", ["nitf", "xcbl"])
def test_estimator_ablation(benchmark, dtd_name, quick_configs):
    config = next(c for c in quick_configs if c.dtd_name == dtd_name)
    prepared = prepare(config)

    def run():
        return {
            strategy: average_relative_error(
                prepared.exact_positive, _estimate_all(prepared, strategy)
            ).percent
            for strategy in ("aligned-ratio", "exact-N", "estimated-N")
        }

    errors = benchmark.pedantic(run, rounds=1, iterations=1)

    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "ablation_estimator.txt", "a") as out:
        out.write(f"{dtd_name} (capacity={CAPACITY}): {errors}\n")
    print(f"\n{dtd_name}: {errors}")

    # The implementation's choice must dominate both alternatives.
    assert errors["exact-N"] <= errors["aligned-ratio"] + 1e-9
    assert errors["exact-N"] <= errors["estimated-N"] + 1e-9
