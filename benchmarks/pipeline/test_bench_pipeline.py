"""Smoke test of the pipeline benchmark.

Runs every workload at ``--scale smoke`` (traced, so one run yields the
end-to-end metrics of its untraced pass and the per-layer metrics of
its traced pass) twice with one seed, and checks the benchmark's
contract: every metric named with its unit, identical deterministic
metrics across the two runs, exact delivery on the per-subscription
workloads, and every traced entry point reached and restored.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pipeline_workloads as bench
import pytest
from pipeline_trace import LAYERS, Tracer, library_targets

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SEED = 5

#: Metrics that depend only on the seed, never on timing.
DETERMINISTIC_END_TO_END = ("delivery_precision", "delivery_recall", "table_entries")
DETERMINISTIC_PER_LAYER = (
    "routing.trie.ops_per_doc",
    "routing.trie.nodes",
    "routing.overlay.forwards_per_doc",
    "routing.overlay.deliveries_per_doc",
    "routing.overlay.ad_messages_per_pair",
    "core.similarity.joint_evaluated_per_pair",
    "core.similarity.memo_size",
    "routing.engine.mean_batch_size",
    "routing.engine.peak_queue_depth",
    "routing.engine.sim_latency_p50",
    "routing.engine.sim_latency_p99",
)


def run_smoke(workload: str) -> tuple[dict, dict]:
    """One traced smoke run: (last-line result, full report)."""
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(SEED),
            "--scale", "smoke",
            "--trace", "1",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    report_path = HERE / "out" / f"{workload}-smoke-seed{SEED}-trace.json"
    report = json.loads(report_path.read_text())
    return result, report


@pytest.fixture(scope="module")
def runs() -> dict[str, list[tuple[dict, dict]]]:
    return {
        workload: [run_smoke(workload), run_smoke(workload)]
        for workload in bench.WORKLOADS
    }


def test_result_line_follows_the_contract(runs):
    units = dict(bench.PER_LAYER)
    for pair in runs.values():
        for result, _ in pair:
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True
            assert result["failed"] == 0 and result["attempted"] >= 1
            assert {
                name: metric["unit"] for name, metric in result["metrics"].items()
            } == units


def test_every_end_to_end_metric_is_reported(runs):
    for pair in runs.values():
        for _, report in pair:
            assert set(report["end_to_end"]) == {name for name, _ in bench.END_TO_END}
            assert all(value > 0 for value in report["end_to_end"].values())


def test_same_seed_runs_agree_on_deterministic_metrics(runs):
    for (_, first), (_, second) in runs.values():
        for name in DETERMINISTIC_END_TO_END:
            assert first["end_to_end"][name] == second["end_to_end"][name], name
        for name in DETERMINISTIC_PER_LAYER:
            assert first["per_layer"][name] == second["per_layer"][name], name
        assert first["failed_ratio"] == second["failed_ratio"] == 0.0


def test_per_subscription_delivery_is_exact(runs):
    for name, pair in runs.items():
        if bench.WORKLOADS[name].community:
            continue
        for _, report in pair:
            assert report["end_to_end"]["delivery_precision"] == 1.0
            assert report["end_to_end"]["delivery_recall"] == 1.0
            assert report["checks"]["mismatched_documents"] == 0
            assert report["traced_checks"]["rebuild_equal"] is True


def test_every_traced_entry_point_is_reached(runs):
    calls: dict[str, int] = {}
    for pair in runs.values():
        for name, count in pair[0][1]["entry_point_calls"].items():
            calls[name] = calls.get(name, 0) + count
    assert {target.name for target in library_targets()} == set(calls)
    assert [name for name, count in calls.items() if count == 0] == []
    assert {name.split(":")[0] for name in calls} == set(LAYERS)


def test_tracer_restores_every_entry_point():
    targets = library_targets()
    originals = [vars(target.owner)[target.attribute] for target in targets]
    with Tracer(targets):
        assert all(
            vars(target.owner)[target.attribute] is not original
            for target, original in zip(targets, originals, strict=True)
        )
    assert all(
        vars(target.owner)[target.attribute] is original
        for target, original in zip(targets, originals, strict=True)
    )


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/pipeline"]
    assert [workload["name"] for workload in spec["workloads"]] == list(
        bench.WORKLOADS
    )
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        bench.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        bench.PER_LAYER
    )
