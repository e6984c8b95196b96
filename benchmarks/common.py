"""Corpus/workload setup shared by the overlay benchmark family.

``bench_overlay.py`` (advertisement policies), ``bench_churn.py``
(subscription lifecycle) and ``bench_latency.py`` (event-driven delivery,
scheduling policies) sweep the same prepared quick-scale workload over the
same seeded broker topology; this module holds that setup once so the
tables stay comparable cell for cell — and so a CI smoke run means the
same thing in every benchmark.

Every overlay starts from :func:`build_overlay` (the family's seeded
topology, subscriptions homed round-robin); each cell then advertises
its own policy and builds its own engine, and ``bench_latency.py`` and
``bench_overload.py`` check each engine run against the synchronous
path's deliveries (:func:`sync_reference`).

It also holds the results directory and figure helpers every benchmark
writes through (kept out of conftest so imports are unambiguous when
tests/ and benchmarks/ load in one session).
"""

from __future__ import annotations

import argparse
import cProfile
import pathlib
import pstats

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import FigureResult
from repro.experiments.harness import PreparedExperiment, prepare
from repro.experiments.report import figure_to_csv, render_figure
from repro.routing.overlay import BrokerOverlay

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: The overlay shape every benchmark in the family routes over.
TOPOLOGY = "random_tree"
TOPOLOGY_SEED = 11


def save_figure(figure: FigureResult) -> str:
    """Persist a figure's table and CSV under benchmarks/results/ and echo
    the table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    table = render_figure(figure)
    (RESULTS_DIR / f"{figure.figure_id}.txt").write_text(table)
    (RESULTS_DIR / f"{figure.figure_id}.csv").write_text(figure_to_csv(figure))
    print()
    print(table)
    return table


def series_map(figure: FigureResult) -> dict[str, list[float]]:
    """label -> ys, for curve-shape assertions."""
    return {series.label: series.ys for series in figure.series}


def overlay_argument_parser(description: str) -> argparse.ArgumentParser:
    """The standalone-CLI surface shared by the overlay benchmarks."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload: a fast end-to-end sanity run for CI",
    )
    parser.add_argument("--dtd", default="nitf", choices=("nitf", "xcbl"))
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top-20 cumulative hot spots",
    )
    return parser


def run_with_profile(args: argparse.Namespace, fn):
    """Run *fn()* — under cProfile when ``--profile`` was passed.

    Every benchmark main routes through this so the profiling surface is
    uniform across the family: hot spots print as a top-20
    cumulative-time table after the benchmark's own output.
    """
    if not getattr(args, "profile", False):
        return fn()
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    print()
    print("profile: top 20 by cumulative time")
    stats.print_stats(20)
    return result


def prepare_quick(dtd: str = "nitf") -> PreparedExperiment:
    """The quick-scale workload the benchmark tables are built from.

    The harness caches preparations in-process, so benchmarks sharing a
    session reuse one corpus and workload.
    """
    return prepare(ExperimentConfig.quick(dtd))


def prepare_smoke(dtd: str = "nitf") -> PreparedExperiment:
    """The tiny CI smoke workload: documents and positive patterns only."""
    return prepare(
        ExperimentConfig.quick(
            dtd, n_documents=60, n_positive=16, n_negative=0, n_pairs=0
        )
    )


def build_overlay(
    n_brokers: int,
    patterns,
    topology: str = TOPOLOGY,
    seed: int = TOPOLOGY_SEED,
    matching: str = "trie",
) -> BrokerOverlay:
    """A topology-seeded overlay with *patterns* attached round-robin.

    Membership only — for call sites that drive the advertisement sweep
    themselves by calling ``overlay.advertise(policy, ...)`` per cell.
    """
    overlay = BrokerOverlay.build(topology, n_brokers, seed=seed, matching=matching)
    overlay.attach_round_robin(patterns)
    return overlay


def sync_reference(
    overlay: BrokerOverlay, corpus
) -> dict[int, frozenset[int]]:
    """Per published document, the synchronous path's delivery set,
    publishing document *i* at broker ``i % len(overlay.brokers)``: what
    the engine-driven benchmarks check each run against."""
    return {
        index: frozenset(
            overlay.route(document, index % len(overlay.brokers))[0]
        )
        for index, document in enumerate(corpus.documents)
    }
