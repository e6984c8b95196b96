"""Routing application benchmark (the paper's motivating use case).

Builds semantic communities from estimated similarities (synopsis-backed,
not exact) and measures routing quality and filtering cost against the
per-subscription and flooding baselines — demonstrating the Section 1
claim: similarity-derived communities cut filtering cost while keeping
delivery quality high.
"""

from __future__ import annotations

from repro.core.selectivity import SelectivityEstimator
from repro.experiments.harness import build_synopsis, prepare
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import CommunityPolicy, PerSubscriptionPolicy

from common import RESULTS_DIR


def test_community_routing(benchmark, nitf_quick):
    prepared = prepare(nitf_quick)
    subscriptions = prepared.positive[:60]

    def run():
        synopsis = build_synopsis(prepared, "hashes", 100)
        # One broker matching pattern by pattern: one match operation per
        # table entry, the single-node filtering cost of Section 1.
        overlay = BrokerOverlay(1, [], matching="linear")
        overlay.attach_round_robin(subscriptions)
        overlay.advertise(PerSubscriptionPolicy())
        exact = overlay.route_corpus(prepared.corpus)
        flood = overlay.flooding_stats(prepared.corpus)
        # Each community is filtered by its leader, the first member the
        # greedy clustering placed.
        overlay.advertise(
            CommunityPolicy(0.7, elect_by_selectivity=False, ratio_prefilter=False),
            SelectivityEstimator(synopsis),
        )
        community = overlay.route_corpus(prepared.corpus)
        return exact, flood, community, len(overlay.brokers[0].communities)

    exact, flood, community, n_communities = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    lines = [
        f"subscribers={exact.subscribers} documents={exact.documents} "
        f"communities={n_communities}",
    ]
    for strategy, stats in (
        ("per_subscription", exact),
        ("flooding", flood),
        ("community", community),
    ):
        lines.append(
            f"{strategy:17s} precision={stats.precision:.3f} "
            f"recall={stats.recall:.3f} "
            f"matches/doc={stats.matches_per_document:.1f}"
        )
    report = "\n".join(lines) + "\n"
    (RESULTS_DIR / "routing.txt").write_text(report)
    print()
    print(report)

    # Communities reduce filtering cost below per-subscription matching...
    assert community.match_operations < exact.match_operations
    # ...with far better precision than flooding...
    assert community.precision > flood.precision
    # ...and high recall (estimated-similarity communities are coherent).
    assert community.recall > 0.8
