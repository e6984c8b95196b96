"""Subscription-churn benchmark: incremental lifecycle vs periodic rebuild.

Sweeps churn rate × community threshold over the default NITF quick
workload.  Each cell drives the *same* membership trajectory (seeded
departures + arrivals per epoch) through two maintenance regimes:

* **incremental** — the event-driven lifecycle: every arrival/departure is
  absorbed through ``subscribe``/``unsubscribe``, re-aggregating only the
  home broker's touched communities over its live ``SimilarityIndex``;
* **periodic** — membership changes are recorded but tables go stale, with
  a full ``advertise(CommunityPolicy(...))`` rebuild every ``REBUILD_PERIOD`` epochs
  (the classic batch operating mode).

Every event of the incremental regime takes the single-change path:
the policy names the aggregates the event changes (under
``CommunityPolicy`` those of the communities it touched) and the broker
is never re-aggregated or diffed as a whole.  A threshold of ``None``
runs the cell under ``PerSubscriptionPolicy`` instead (printed as
``persub``), where each event changes the one entry it adds or retires.
The smoke sweep runs one such cell beside its community cell.

Reported per cell: delivery quality (minimum and final recall/precision
across epochs) for both regimes, cumulative advertisement traffic, and the
similarity engine's prune ratio (joint-selectivity provider calls skipped
by the tag-disjointness prefilter).

The headline claims asserted here:

* **zero decay for the incremental regime** — after every epoch, each
  broker's routing table is identical to one rebuilt from scratch over the
  surviving subscriptions (the lifecycle protocol loses nothing);
* at rebuild epochs the periodic regime converges back to the incremental
  tables; between rebuilds its delivery quality may decay, which is the
  cost the lifecycle API removes.

A second, burst-shaped sweep compares the per-event lifecycle against the
**batch churn API** (``subscribe_many`` / ``unsubscribe_many``): the same
membership trajectory, with each epoch's arrivals landing as one burst at
one broker, absorbed either event by event or as a single batched
re-aggregation + advertisement diff.  The batched path must end every
epoch on the identical routing tables while spending fewer advertisement
messages across the sweep — the transient community shapes the per-event
loop floods and withdraws between arrivals never hit the wire.

Also runnable standalone for a quick smoke check (used by CI)::

    PYTHONPATH=src python benchmarks/bench_churn.py --smoke
"""

from __future__ import annotations

import argparse

import random
from typing import Optional

from common import (
    RESULTS_DIR,
    TOPOLOGY,
    TOPOLOGY_SEED,
    build_overlay,
    overlay_argument_parser,
    run_with_profile,
    prepare_quick,
    prepare_smoke,
)
from repro.experiments.harness import prepare
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import (
    AdvertisementPolicy,
    CommunityPolicy,
    PerSubscriptionPolicy,
)

N_BROKERS = 4
CHURN_RATES = (0.05, 0.2, 0.4)
THRESHOLDS = (0.7, 0.5, 0.3)
N_SUBSCRIBERS = 40
N_EPOCHS = 6
REBUILD_PERIOD = 3
CHURN_SEED = 23


def table_signature(overlay: BrokerOverlay) -> dict:
    """Per-broker routing state, comparable across subscriber-id histories
    (deliver payloads are renumbered by survivor rank)."""
    rank = {
        subscriber_id: position
        for position, subscriber_id in enumerate(sorted(overlay.subscriptions))
    }
    signature = {}
    for broker_id, node in overlay.brokers.items():
        entries = set()
        for entry in node.table:
            kind, payload = entry.destination
            if kind == "deliver":
                payload = tuple(
                    sorted(rank.get(member, -1 - member) for member in payload)
                )
            entries.add((entry.pattern, kind, payload))
        signature[broker_id] = frozenset(entries)
    return signature


def policy_for(threshold: Optional[float]) -> AdvertisementPolicy:
    """The cell's policy: communities at *threshold*, or one
    advertisement per subscription for ``None``."""
    if threshold is None:
        return PerSubscriptionPolicy()
    return CommunityPolicy(threshold)


def threshold_label(threshold: Optional[float]) -> str:
    return "persub" if threshold is None else f"{threshold:.2f}"


def rebuild(
    overlay: BrokerOverlay, corpus, threshold: Optional[float]
) -> BrokerOverlay:
    """A fresh overlay fully re-aggregated from *overlay*'s membership."""
    fresh = BrokerOverlay.build(TOPOLOGY, len(overlay.brokers), seed=TOPOLOGY_SEED)
    for home_id, pattern in overlay.subscriptions.values():
        fresh.attach(home_id, pattern)
    fresh.advertise(policy_for(threshold), corpus)
    return fresh


def prune_ratio(overlay: BrokerOverlay) -> float:
    """Network-wide tag-disjointness prune ratio of the live indexes."""
    pruned = evaluated = 0
    for node in overlay.brokers.values():
        if node.index is not None:
            pruned += node.index.stats.joint_pruned
            evaluated += node.index.stats.joint_evaluated
    decided = pruned + evaluated
    return pruned / decided if decided else 0.0


class CellResult:
    """Outcome of one (churn rate, threshold) trajectory."""

    def __init__(self, churn_rate: float, threshold: Optional[float]):
        self.churn_rate = churn_rate
        self.threshold = threshold
        self.incremental_recalls: list[float] = []
        self.periodic_recalls: list[float] = []
        self.incremental_precisions: list[float] = []
        self.periodic_precisions: list[float] = []
        self.incremental_ads = 0
        self.periodic_ads = 0
        self.match_operations = 0
        self.prune_ratio = 0.0


def run_cell(
    prepared,
    churn_rate: float,
    threshold: Optional[float],
    n_subscribers: int,
    n_epochs: int,
    n_brokers: int,
    rebuild_period: int,
) -> CellResult:
    corpus = prepared.corpus
    pool = prepared.positive
    initial = pool[:n_subscribers]
    reserve = pool[n_subscribers:] or pool

    incremental = build_overlay(n_brokers, initial)
    periodic = build_overlay(n_brokers, initial)
    incremental.advertise(policy_for(threshold), corpus)
    periodic.advertise(policy_for(threshold), corpus)

    result = CellResult(churn_rate, threshold)
    rng = random.Random(CHURN_SEED)
    arrivals = 0
    events = max(1, round(churn_rate * n_subscribers))
    for epoch in range(1, n_epochs + 1):
        victims = rng.sample(
            sorted(incremental.subscriptions),
            k=min(events, len(incremental.subscriptions)),
        )
        for victim in victims:
            incremental.unsubscribe(victim)
            periodic.detach(victim)
        for _ in range(events):
            pattern = reserve[arrivals % len(reserve)]
            home = (n_subscribers + arrivals) % n_brokers
            arrivals += 1
            incremental.subscribe(home, pattern)
            periodic.attach(home, pattern)
        if epoch % rebuild_period == 0:
            # Periodic regime: pay a full re-flood, drop the stale tables.
            result.periodic_ads += periodic.advertisement_messages
            periodic.advertise(policy_for(threshold), corpus)
            assert table_signature(periodic) == table_signature(incremental), (
                "periodic rebuild must converge to the incremental tables",
                churn_rate,
                threshold,
                epoch,
            )

        # Zero-decay headline: the incremental tables equal a from-scratch
        # re-aggregation over the surviving subscriptions, every epoch.
        fresh = rebuild(incremental, corpus, threshold)
        assert table_signature(incremental) == table_signature(fresh), (
            "incremental lifecycle decayed",
            churn_rate,
            threshold,
            epoch,
        )

        inc_stats = incremental.route_corpus(corpus)
        stale_stats = periodic.route_corpus(corpus)
        result.incremental_recalls.append(inc_stats.recall)
        result.periodic_recalls.append(stale_stats.recall)
        result.incremental_precisions.append(inc_stats.precision)
        result.periodic_precisions.append(stale_stats.precision)
        result.match_operations += inc_stats.match_operations

    result.incremental_ads = incremental.advertisement_messages
    result.periodic_ads += periodic.advertisement_messages
    result.prune_ratio = prune_ratio(incremental)
    return result


class BatchCellResult:
    """Outcome of one burst trajectory: per-event vs batched lifecycle."""

    def __init__(self, threshold: float):
        self.threshold = threshold
        self.per_event_ads = 0
        self.batched_ads = 0


def run_batch_cell(
    prepared,
    threshold: float,
    n_subscribers: int,
    n_epochs: int,
    n_brokers: int,
    burst: int,
) -> BatchCellResult:
    """Drive one burst-shaped trajectory through both churn APIs.

    Each epoch retires *burst* random subscriptions and lands *burst*
    arrivals on a single (rotating) broker.  The per-event overlay
    absorbs them one ``subscribe``/``unsubscribe`` at a time; the
    batched overlay coalesces each side of the epoch through
    ``unsubscribe_many``/``subscribe_many``.  Both must converge to the
    same routing tables every epoch.
    """
    corpus = prepared.corpus
    pool = prepared.positive
    initial = pool[:n_subscribers]
    reserve = pool[n_subscribers:] or pool

    per_event = build_overlay(n_brokers, initial)
    batched = build_overlay(n_brokers, initial)
    per_event.advertise(CommunityPolicy(threshold), corpus)
    batched.advertise(CommunityPolicy(threshold), corpus)

    result = BatchCellResult(threshold)
    rng = random.Random(CHURN_SEED)
    arrivals = 0
    for epoch in range(1, n_epochs + 1):
        victims = rng.sample(
            sorted(per_event.subscriptions),
            k=min(burst, len(per_event.subscriptions)),
        )
        for victim in victims:
            per_event.unsubscribe(victim)
        batched.unsubscribe_many(victims)
        home = epoch % n_brokers
        patterns = []
        for _ in range(burst):
            patterns.append(reserve[arrivals % len(reserve)])
            arrivals += 1
        for pattern in patterns:
            per_event.subscribe(home, pattern)
        batched.subscribe_many(home, patterns)
        assert table_signature(batched) == table_signature(per_event), (
            "batched lifecycle diverged from the per-event loop",
            threshold,
            epoch,
        )
    result.per_event_ads = per_event.advertisement_messages
    result.batched_ads = batched.advertisement_messages
    return result


def run_sweep(
    prepared,
    churn_rates=CHURN_RATES,
    thresholds=THRESHOLDS,
    n_subscribers: int = N_SUBSCRIBERS,
    n_epochs: int = N_EPOCHS,
    n_brokers: int = N_BROKERS,
    rebuild_period: int = REBUILD_PERIOD,
) -> list[CellResult]:
    return [
        run_cell(
            prepared,
            churn_rate,
            threshold,
            n_subscribers,
            n_epochs,
            n_brokers,
            rebuild_period,
        )
        for churn_rate in churn_rates
        for threshold in thresholds
    ]


def run_batch_sweep(
    prepared,
    thresholds=THRESHOLDS,
    n_subscribers: int = N_SUBSCRIBERS,
    n_epochs: int = N_EPOCHS,
    n_brokers: int = N_BROKERS,
    burst: int = 8,
) -> list[BatchCellResult]:
    return [
        run_batch_cell(
            prepared, threshold, n_subscribers, n_epochs, n_brokers, burst
        )
        for threshold in thresholds
    ]


def render_batch(rows: list[BatchCellResult]) -> str:
    header = (
        f"{'thresh':>6s} {'per-event ads':>13s} {'batched ads':>11s} "
        f"{'saved':>7s}"
    )
    lines = [header, "-" * len(header)]
    for cell in rows:
        saved = 1.0 - cell.batched_ads / cell.per_event_ads
        lines.append(
            f"{cell.threshold:6.2f} {cell.per_event_ads:13d} "
            f"{cell.batched_ads:11d} {saved:7.1%}"
        )
    return "\n".join(lines) + "\n"


def render(rows: list[CellResult]) -> str:
    header = (
        f"{'churn':>5s} {'thresh':>6s} {'inc rec':>8s} {'stale rec':>9s} "
        f"{'stale min':>9s} {'inc ads':>8s} {'stale ads':>9s} {'pruned':>7s}"
    )
    lines = [header, "-" * len(header)]
    for cell in rows:
        lines.append(
            f"{cell.churn_rate:5.2f} {threshold_label(cell.threshold):>6s} "
            f"{cell.incremental_recalls[-1]:8.3f} "
            f"{cell.periodic_recalls[-1]:9.3f} "
            f"{min(cell.periodic_recalls):9.3f} "
            f"{cell.incremental_ads:8d} {cell.periodic_ads:9d} "
            f"{cell.prune_ratio:7.1%}"
        )
    return "\n".join(lines) + "\n"


def check_acceptance(rows: list[CellResult]) -> None:
    """Assert the headline claims over a finished sweep.

    The zero-decay equality is asserted per epoch inside :func:`run_cell`;
    here we sanity-check the aggregate outputs.
    """
    for cell in rows:
        for series in (
            cell.incremental_recalls,
            cell.periodic_recalls,
            cell.incremental_precisions,
            cell.periodic_precisions,
        ):
            assert series and all(0.0 <= value <= 1.0 for value in series), cell
        assert 0.0 <= cell.prune_ratio <= 1.0
        assert cell.incremental_ads > 0 and cell.periodic_ads > 0


def check_batch_acceptance(rows: list[BatchCellResult]) -> None:
    """Assert the batching headline over a finished burst sweep.

    Table equality per epoch is asserted inside :func:`run_batch_cell`;
    here: batching never costs extra advertisement traffic in any cell,
    and across the sweep it saves strictly — the transient aggregations
    the per-event loop announces between burst members stay local.
    """
    assert rows
    for cell in rows:
        assert cell.per_event_ads > 0, cell.threshold
        assert cell.batched_ads <= cell.per_event_ads, cell.threshold
    assert sum(cell.batched_ads for cell in rows) < sum(
        cell.per_event_ads for cell in rows
    ), "batched churn saved no advertisement traffic"


def test_churn(benchmark, nitf_quick):

    prepared = prepare(nitf_quick)
    rows = benchmark.pedantic(
        lambda: run_sweep(prepared), rounds=1, iterations=1
    )
    batch_rows = run_batch_sweep(prepared)

    RESULTS_DIR.mkdir(exist_ok=True)
    report = render(rows) + "\n" + render_batch(batch_rows)
    (RESULTS_DIR / "churn.txt").write_text(report)
    print()
    print(report)

    check_acceptance(rows)
    check_batch_acceptance(batch_rows)


def main() -> None:
    args = overlay_argument_parser(__doc__.splitlines()[0]).parse_args()
    run_with_profile(args, lambda: _run(args))


def _run(args: argparse.Namespace) -> None:

    if args.smoke:
        prepared = prepare_smoke(args.dtd)
        rows = run_sweep(
            prepared,
            churn_rates=(0.25,),
            thresholds=(0.5, None),
            n_subscribers=12,
            n_epochs=2,
            n_brokers=3,
            rebuild_period=2,
        )
        batch_rows = run_batch_sweep(
            prepared,
            thresholds=(0.5,),
            n_subscribers=12,
            n_epochs=2,
            n_brokers=3,
            burst=8,
        )
    else:
        prepared = prepare_quick(args.dtd)
        rows = run_sweep(prepared)
        batch_rows = run_batch_sweep(prepared)
    print(render(rows))
    print(render_batch(batch_rows))
    check_acceptance(rows)
    check_batch_acceptance(batch_rows)
    print("acceptance checks passed")


if __name__ == "__main__":
    main()
