"""Ablation: the three pruning operators in isolation (design choices of
Section 3.3, applied in the order Section 5.2 reports works best).

Not a paper figure — this quantifies *why* the paper's fold → delete →
merge ordering is sensible: at a matched size reduction, lossless+lossy
folds hurt accuracy the least, deletions hurt negatives the least, and
merges buy the largest size reductions on wide synopses.
"""

from __future__ import annotations

import pytest

from repro.core.errors import average_relative_error
from repro.core.selectivity import SelectivityEstimator
from repro.experiments.harness import build_synopsis, prepare
from repro.synopsis.pruning import (
    delete_low_cardinality,
    fold_leaves,
    merge_same_label,
)
from repro.synopsis.size import measure

from common import RESULTS_DIR

TARGET_REDUCTION = 0.75  # shrink to 75% of the original size


def _shrink_with(synopsis, operator) -> int:
    """Apply one operator repeatedly until the target size is reached."""
    target = int(measure(synopsis).total * TARGET_REDUCTION)
    for _ in range(200):
        if measure(synopsis).total <= target:
            break
        if operator(synopsis) == 0:
            break
    return measure(synopsis).total


OPERATORS = {
    "fold": lambda syn: fold_leaves(syn, min_similarity=0.0, max_folds=25),
    "delete": lambda syn: delete_low_cardinality(syn, max_deletions=25),
    "merge": lambda syn: merge_same_label(syn, min_similarity=0.0, max_merges=25),
}


@pytest.mark.parametrize("operator_name", sorted(OPERATORS))
def test_pruning_operator_ablation(benchmark, nitf_quick, operator_name):
    prepared = prepare(nitf_quick)

    def run():
        synopsis = build_synopsis(prepared, "hashes", 100)
        initial = measure(synopsis).total
        final = _shrink_with(synopsis, OPERATORS[operator_name])
        estimator = SelectivityEstimator(synopsis)
        estimated = [estimator.selectivity(p) for p in prepared.positive]
        erel = average_relative_error(prepared.exact_positive, estimated)
        return initial, final, erel.percent

    initial, final, erel = benchmark.pedantic(run, rounds=1, iterations=1)

    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "ablation_pruning.txt", "a") as out:
        out.write(
            f"{operator_name}: size {initial} -> {final} "
            f"({final / initial:.2f}), Erel {erel:.2f}%\n"
        )

    # Every operator must actually shrink the synopsis...
    assert final < initial
    # ...while keeping estimation functional.
    assert 0.0 <= erel < 400.0
