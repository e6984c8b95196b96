"""Pipeline benchmark: end-to-end and per-layer cost of the routing pipeline.

One workload per run::

    python3 benchmarks/pipeline/run.py --workload publish-persub --seed 0 \\
        --seconds 10 --trace 0

prints a table of every metric with its unit and, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  Without ``--workload`` every workload runs, one
after another, each in a fresh subprocess, followed by a summary; the
command exits non-zero when any workload failed an operation or a
correctness check.  ``--scale smoke`` shrinks every workload to a
seconds-long sanity run.  Full reports (and, when traced, the spans) are
written under ``benchmarks/pipeline/out/``.

The library is imported from the ``src`` directory of the checkout this
file sits in; the command fails without printing a result when it is
missing.  See ``README.md`` for the workloads, the metrics and how to
read a trace.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"
DEFAULT_SECONDS = 10
WORKLOAD_NAMES = ("publish-persub", "churn-community", "engine-zipf-batched")
#: Every measured process runs with this str-hash seed.  A random seed
#: per process lays out the library's tag-keyed dicts and sets
#: differently in every run, and with them the cost of each lookup.
HASH_SEED = "0"


def import_library() -> None:
    """Put the checkout's ``src`` first on the path; insist ``repro``
    resolves there (a stale installed copy would measure other code)."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"pipeline: cannot import repro from {SRC}: {exc}") from None
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"pipeline: repro imported from {origin}, not from {SRC}")


def checks(result: Any, equal: bool) -> dict[str, Any]:
    """The correctness evidence of one pass."""
    return {
        "raised": result.raised,
        "mismatched_documents": result.score.mismatched,
        "rebuild_equal": equal,
    }


def measure(
    name: str, seed: int, seconds: int, scale: str, trace: bool
) -> dict[str, Any]:
    """Run one workload and return its full report."""
    import pipeline_workloads as bench
    from pipeline_trace import Tracer, library_targets

    phases: dict[str, float] = {}
    mark = time.perf_counter()

    def lap(phase: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[phase] = phases.get(phase, 0.0) + now - mark
        mark = now

    workload = bench.WORKLOADS[name]
    shape = workload.shape(scale, seconds)
    inputs = bench.make_inputs(shape, seed)
    lap("inputs")
    oracle = bench.Oracle(inputs)
    lap("oracle")
    setup_times, results, overlay = bench.run_replicas(
        workload,
        shape,
        inputs,
        oracle,
        replicas=1 if trace else bench.REPLICAS,
        builds=1 if trace else workload.builds,
    )
    lap("stream")
    rebuilds = [bench.rebuild_equal(overlay)]
    lap("rebuild_check")
    report: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "trace": trace,
        "shape": vars(shape),
        "passes": len(results),
        "end_to_end": bench.end_to_end(setup_times, results),
        "setup_samples_s": setup_times,
        "host_slowdown": bench.slowdown_summary(results),
        "checks": checks(results[-1], rebuilds[-1]),
        "phase_s": phases,
    }
    if trace:
        untraced = results[0]
        overlay = None
        gc.collect()
        tracer = Tracer(library_targets())
        with tracer:
            with tracer.request("setup"):
                overlay = bench.deploy(workload, inputs)
            traced = bench.run_stream(shape, inputs, oracle, overlay, tracer)
        lap("traced")
        rebuilds.append(bench.rebuild_equal(overlay))
        lap("rebuild_check")
        results.append(traced)
        report["per_layer"] = bench.per_layer(tracer, traced, untraced, overlay)
        report["traced_checks"] = checks(traced, rebuilds[-1])
        report["entry_point_calls"] = tracer.hits()
        tracer.dump(OUT / f"{name}-{scale}-seed{seed}-spans.json")
    attempted = sum(result.attempted for result in results)
    failed = bench.failures(workload, results) + rebuilds.count(False)
    report["attempted"] = attempted
    report["failed"] = failed
    report["failed_ratio"] = failed / attempted
    report["correct"] = failed == 0
    return report


def result_line(report: dict[str, Any]) -> dict[str, Any]:
    """The contract's last output line for one workload run."""
    import pipeline_workloads as bench

    if report["trace"]:
        values, units = report["per_layer"], bench.PER_LAYER
    else:
        values, units = report["end_to_end"], bench.END_TO_END
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            metric: {"value": values[metric], "unit": unit} for metric, unit in units
        },
    }


def print_table(report: dict[str, Any]) -> None:
    """Human-readable metric table of one workload run."""
    import pipeline_workloads as bench

    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"scale {report['scale']}  shape {report['shape']}")
    sections = [("end-to-end (untraced)", report["end_to_end"], bench.END_TO_END)]
    if report["trace"]:
        sections.append(("per-layer (traced)", report["per_layer"], bench.PER_LAYER))
    for title, values, units in sections:
        print(f"  {title}")
        for metric, unit in units:
            print(f"    {metric:44s} {values[metric]:>16.6g} {unit}")
    slowdown = report["host_slowdown"]
    print(f"  host slowdown median {slowdown['median']:.3f} "
          f"(p10 {slowdown['p10']:.3f}, p90 {slowdown['p90']:.3f}); "
          f"times above are divided by it")
    print(f"  failed_ratio {report['failed_ratio']:.6g} "
          f"({report['failed']} of {report['attempted']} operations)  "
          f"correct {report['correct']}")
    print("  phases " + "  ".join(
        f"{phase} {seconds:.1f}s" for phase, seconds in report["phase_s"].items()
    ))


def run_one(args: argparse.Namespace) -> int:
    report = measure(
        args.workload, args.seed, args.seconds, args.scale, bool(args.trace)
    )
    OUT.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    report_path = OUT / f"{args.workload}-{args.scale}-seed{args.seed}{suffix}.json"
    with open(report_path, "w") as out:
        json.dump(report, out, indent=1, sort_keys=True)
    print_table(report)
    print(json.dumps(result_line(report)), flush=True)
    return 0 if report["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh subprocess, one after another."""
    results: dict[str, dict[str, Any]] = {}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--scale", args.scale,
        ]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        print(completed.stdout, end="", flush=True)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            status = 1
        if lines:
            results[name] = json.loads(lines[-1])
    print("summary")
    for name, result in results.items():
        ratio = result["failed"] / result["attempted"]
        print(f"  {name:22s} correct {result['correct']}  "
              f"failed_ratio {ratio:.6g}")
        if not result["correct"]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=int,
        default=DEFAULT_SECONDS,
        help="sets the stream length of every workload (fixed work per value)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0
    )
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Replace this process (same pid, nothing left to wait for) with
        # one whose str hashes, and so dict and set layouts, are fixed.
        arguments = sys.argv[1:] if argv is None else argv
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *arguments],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    import_library()
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
