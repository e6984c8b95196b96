"""Multi-broker overlay routing benchmark.

Sweeps broker count × community threshold over the default NITF quick
workload and reports, per configuration, the network-wide filtering cost
(match operations), routing state (table entries), advertisement traffic
and delivery precision/recall — the paper's scalability trade-off measured
across an actual overlay instead of one broker.

The headline claims asserted here:

* community-aggregated advertisement performs fewer total match operations
  than per-subscription advertisement at every broker count;
* recall stays >= 0.9 at similarity threshold 0.5 on the default workload.

Also runnable standalone for a quick smoke check (used by CI)::

    PYTHONPATH=src python benchmarks/bench_overlay.py --smoke
"""

from __future__ import annotations

import argparse

from common import (
    RESULTS_DIR,
    TOPOLOGY,
    build_overlay,
    overlay_argument_parser,
    run_with_profile,
    prepare_quick,
    prepare_smoke,
)
from repro.experiments.harness import prepare
from repro.routing.overlay import OverlayStats
from repro.routing.policy import CommunityPolicy, PerSubscriptionPolicy

BROKER_COUNTS = (2, 4, 8)
THRESHOLDS = (0.7, 0.5, 0.3)
N_SUBSCRIBERS = 60
ACCEPTANCE_THRESHOLD = 0.5


def run_sweep(
    prepared,
    n_subscribers: int = N_SUBSCRIBERS,
    broker_counts: tuple[int, ...] = BROKER_COUNTS,
    thresholds: tuple[float, ...] = THRESHOLDS,
    topology: str = TOPOLOGY,
) -> list[tuple[int, object, OverlayStats]]:
    """Route the prepared corpus under every (brokers, policy) cell.

    Returns ``(n_brokers, threshold-or-None, stats)`` rows; ``None`` marks
    the per-subscription baseline.  Community similarity uses the exact
    corpus provider, isolating the routing trade-off from synopsis
    estimation error (bench_routing.py covers the estimated-similarity
    side).

    Matching runs in ``linear`` (per-pattern scan) mode: the paper's
    fewer-table-entries claim is about scan cost, and the trie's shared
    prefixes already collapse most of the per-subscription redundancy,
    which would blur exactly the effect this sweep measures.
    """
    subscriptions = prepared.positive[:n_subscribers]
    corpus = prepared.corpus
    rows: list[tuple[int, object, OverlayStats]] = []
    for n_brokers in broker_counts:
        overlay = build_overlay(
            n_brokers, subscriptions, topology=topology, matching="linear"
        )
        overlay.advertise(PerSubscriptionPolicy())
        rows.append((n_brokers, None, overlay.route_corpus(corpus)))
        for threshold in thresholds:
            overlay.advertise(CommunityPolicy(threshold), provider=corpus)
            rows.append((n_brokers, threshold, overlay.route_corpus(corpus)))
    return rows


def render(rows: list[tuple[int, object, OverlayStats]]) -> str:
    header = (
        f"{'brokers':>7s} {'regime':24s} {'ops':>7s} {'tables':>6s} "
        f"{'ads':>5s} {'fwd/doc':>7s} {'precision':>9s} {'recall':>7s}"
    )
    lines = [header, "-" * len(header)]
    for n_brokers, threshold, stats in rows:
        regime = (
            "per_subscription"
            if threshold is None
            else f"community(th={threshold})"
        )
        lines.append(
            f"{n_brokers:7d} {regime:24s} {stats.match_operations:7d} "
            f"{stats.total_table_entries:6d} "
            f"{stats.advertisement_messages:5d} "
            f"{stats.forwards_per_document:7.2f} "
            f"{stats.precision:9.3f} {stats.recall:7.3f}"
        )
    return "\n".join(lines) + "\n"


def check_acceptance(rows: list[tuple[int, object, OverlayStats]]) -> None:
    """Assert the headline claims over a finished sweep."""
    baselines = {
        n_brokers: stats for n_brokers, th, stats in rows if th is None
    }
    for n_brokers, threshold, stats in rows:
        if threshold is None:
            # Per-subscription advertisement routes exactly.
            assert stats.precision == 1.0 and stats.recall == 1.0, stats
            continue
        baseline = baselines[n_brokers]
        assert stats.match_operations < baseline.match_operations, (
            n_brokers,
            threshold,
        )
        if threshold == ACCEPTANCE_THRESHOLD:
            assert stats.recall >= 0.9, (n_brokers, stats.recall)


def test_overlay_routing(benchmark, nitf_quick):

    prepared = prepare(nitf_quick)
    rows = benchmark.pedantic(
        lambda: run_sweep(prepared), rounds=1, iterations=1
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    report = render(rows)
    (RESULTS_DIR / "overlay.txt").write_text(report)
    print()
    print(report)

    check_acceptance(rows)


def main() -> None:
    args = overlay_argument_parser(__doc__.splitlines()[0]).parse_args()
    run_with_profile(args, lambda: _run(args))


def _run(args: argparse.Namespace) -> None:

    if args.smoke:
        rows = run_sweep(
            prepare_smoke(args.dtd),
            n_subscribers=16,
            broker_counts=(2, 3),
            thresholds=(0.5,),
        )
    else:
        rows = run_sweep(prepare_quick(args.dtd))
    print(render(rows))
    check_acceptance(rows)
    print("acceptance checks passed")


if __name__ == "__main__":
    main()
