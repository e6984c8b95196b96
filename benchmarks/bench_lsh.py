"""LSH candidate generation vs the exact all-pairs oracle.

Community formation pays one similarity evaluation per (pattern, leader)
probe; the exact oracle considers every leader for every pattern, so its
evaluation count grows as n · C(n) — the wall the paper's 10⁵–10⁶
subscription targets run into.  This benchmark sweeps
:class:`~repro.core.candidates.LSHCandidates` band/row configurations
over 10³–10⁵ NITF subscriptions and reports, per cell: clustering
wall-clock, similarity evaluations, community count, and pair-level
precision/recall of the LSH clustering against the exact one (two
patterns count as a true positive when both clusterings place them in
the same community; recall < 1 is *dropped co-membership coverage* and
is reported as such, not hidden).

Two shingle sources are swept:

* **structural** — the default :func:`~repro.core.candidates.pattern_tokens`
  (label set + trie spine prefixes).  Cheap and self-contained, but M3
  is extensional: ``/nitf`` and ``//*`` match the same stream while
  sharing no structure, so structural recall plateaus — the table
  records that honestly instead of tuning around it;
* **synopsis** — each pattern shingled by its matching-set sample ids
  from the shared :class:`~repro.synopsis.synopsis.DocumentSynopsis`.
  MinHash over matching samples estimates exactly the Jaccard quantity
  M3 measures, so band collisions track the metric itself; this is the
  configuration the acceptance bar (recall ≥ 0.9 at the default
  16 × 2 bands) is asserted against.

The exact oracle is only run up to ``EXACT_CAP`` subscriptions; above
it the exact cell is reported as *not run* with a growth extrapolation,
and the LSH cells run end-to-end through
``advertise(CommunityPolicy(candidates=...))`` to show interactive
community formation at 10⁵; the advertisement must fill each broker's
leader index once, one ``LSHCandidates.add`` per community leader, and
the ``lsh=`` line reports the count.  The advertised overlay then takes
``CHURN_PAIRS`` seeded resubscribe pairs, must still equal its
from-scratch rebuild, and reports the ``LSHCandidates`` lookups
(``candidates_of``) and pairwise tests (``is_candidate``) each pair
made: churn placement asks each broker's leader index once per placed
member instead of testing every leader.

The standalone run prints an ``lsh=…`` key=value line which CI publishes
as a step output::

    PYTHONPATH=src python benchmarks/bench_lsh.py --smoke
"""

from __future__ import annotations

import argparse
import random
import time
from collections import Counter
from contextlib import contextmanager
from typing import Iterator

from common import overlay_argument_parser, run_with_profile
from repro.core.candidates import LSHCandidates
from repro.core.selectivity import SelectivityEstimator
from repro.core.similarity import m3_joint_over_union
from repro.dtd.builtin import nitf_dtd
from repro.generators.docgen import DocumentGenerator
from repro.generators.querygen import PatternGenConfig, PatternGenerator
from repro.routing.community import leader_clustering
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import CommunityPolicy
from repro.synopsis.synopsis import DocumentSynopsis

SIZES = (1_000, 10_000, 100_000)
SMOKE_SIZES = (300, 1_000)
#: Largest population the exact all-pairs oracle is actually run at.
EXACT_CAP = 10_000
THRESHOLD = 0.5
PATTERN_SEED = 7
DOC_SEED = 21
N_DOCS = 120
N_BROKERS = 8
#: (shingle source, bands, rows); 16 × 2 is the LSHCandidates default.
CONFIGS = (
    ("structural", 16, 2),
    ("synopsis", 8, 2),
    ("synopsis", 16, 2),
    ("synopsis", 16, 4),
)
DEFAULT_CONFIG = ("synopsis", 16, 2)
#: Acceptance floor for the default config wherever recall is measured.
RECALL_FLOOR = 0.9
#: Resubscribe pairs run on the end-to-end overlay, and their seed.
CHURN_PAIRS = 20
CHURN_SEED = 5
#: The ``LSHCandidates`` calls the churn pairs count.
CHURN_CALLS = ("candidates_of", "is_candidate")


class MemoSimilarity:
    """M3 through a pair memo, counting every evaluation dispatched.

    The memo mirrors what a broker's live ``SimilarityIndex`` amortises;
    ``calls`` is the scalability driver the candidate stage exists to
    shrink — how many (pattern, leader) probes clustering dispatches.
    """

    def __init__(self, estimator: SelectivityEstimator):
        self.estimator = estimator
        self.memo: dict = {}
        self.calls = 0

    def __call__(self, p, q) -> float:
        self.calls += 1
        key = (p, q) if hash(p) <= hash(q) else (q, p)
        value = self.memo.get(key)
        if value is None:
            value = m3_joint_over_union(self.estimator, p, q)
            self.memo[key] = value
        return value


def make_synopsis_tokens(estimator: SelectivityEstimator):
    """Shingle a pattern by its matching-set sample ids (memoised)."""
    cache: dict = {}

    def tokens(pattern):
        got = cache.get(pattern)
        if got is None:
            got = [
                ("doc", i)
                for i in sorted(estimator.matching_view(pattern).ids)
            ]
            cache[pattern] = got
        return got

    return tokens


def community_labels(communities, n: int) -> list[int]:
    labels = [0] * n
    for cid, community in enumerate(communities):
        for member in community:
            labels[member] = cid
    return labels


def pair_confusion(exact: list[int], lsh: list[int]):
    """Pair-level precision/recall of *lsh* against *exact* co-membership.

    Computed from the (exact, lsh) contingency table in O(n): the
    co-member pair counts are sums of C(group, 2) over label groups.
    """

    def pair_count(counter) -> int:
        return sum(v * (v - 1) // 2 for v in counter.values())

    true_positive = pair_count(Counter(zip(exact, lsh, strict=True)))
    exact_pairs = pair_count(Counter(exact))
    lsh_pairs = pair_count(Counter(lsh))
    precision = true_positive / lsh_pairs if lsh_pairs else 1.0
    recall = true_positive / exact_pairs if exact_pairs else 1.0
    return precision, recall, exact_pairs - true_positive


class Cell:
    """One (size, config) measurement."""

    def __init__(self, size, source, bands, rows):
        self.size = size
        self.source = source
        self.bands = bands
        self.rows = rows
        self.seconds = 0.0
        self.calls = 0
        self.communities = 0
        self.precision = None
        self.recall = None
        self.dropped_pairs = None

    @property
    def is_default(self) -> bool:
        return (self.source, self.bands, self.rows) == DEFAULT_CONFIG


class SizeRow:
    """The exact baseline plus every LSH cell at one population size."""

    def __init__(self, size: int):
        self.size = size
        self.exact_seconds = None
        self.exact_calls = None
        self.exact_communities = None
        self.cells: list[Cell] = []


def prepare_workload(max_size: int):
    dtd = nitf_dtd()
    config = PatternGenConfig(height=3, p_branch=0.05)
    patterns = PatternGenerator(
        dtd, seed=PATTERN_SEED, config=config
    ).generate_many(max_size, distinct=False)
    synopsis = DocumentSynopsis(mode="sets", capacity=128, seed=DOC_SEED)
    docgen = DocumentGenerator(dtd, seed=DOC_SEED)
    for _ in range(N_DOCS):
        synopsis.insert_document(docgen.generate())
    return patterns, SelectivityEstimator(synopsis)


def run_sweep(sizes=SIZES, exact_cap: int = EXACT_CAP) -> list[SizeRow]:
    patterns, estimator = prepare_workload(max(sizes))
    synopsis_tokens = make_synopsis_tokens(estimator)
    rows = []
    for size in sizes:
        row = SizeRow(size)
        population = dict(enumerate(patterns[:size]))
        exact_labels = None
        if size <= exact_cap:
            similarity = MemoSimilarity(estimator)
            started = time.perf_counter()
            exact = leader_clustering(population, similarity, THRESHOLD).communities
            row.exact_seconds = time.perf_counter() - started
            row.exact_calls = similarity.calls
            row.exact_communities = len(exact)
            exact_labels = community_labels(exact, size)
        for source, bands, rows_ in CONFIGS:
            cell = Cell(size, source, bands, rows_)
            template = LSHCandidates(
                bands=bands,
                rows=rows_,
                seed=0,
                tokens=synopsis_tokens if source == "synopsis" else None,
            )
            similarity = MemoSimilarity(estimator)
            started = time.perf_counter()
            clustered = leader_clustering(
                population, similarity, THRESHOLD, candidates=template
            ).communities
            cell.seconds = time.perf_counter() - started
            cell.calls = similarity.calls
            cell.communities = len(clustered)
            if exact_labels is not None:
                cell.precision, cell.recall, cell.dropped_pairs = (
                    pair_confusion(
                        exact_labels, community_labels(clustered, size)
                    )
                )
            row.cells.append(cell)
        rows.append(row)
    return rows


def run_end_to_end(
    size: int, n_brokers: int = N_BROKERS
) -> tuple[float, int, Counter]:
    """Wall-clock of a full LSH-gated advertise() at *size* subscriptions,
    its ``LSHCandidates.add`` calls, which must be one per community
    leader, and the ``LSHCandidates`` calls of :func:`churn_pairs` on the
    overlay it built, which must then equal its from-scratch rebuild."""
    patterns, estimator = prepare_workload(size)
    template = LSHCandidates(tokens=make_synopsis_tokens(estimator))
    started = time.perf_counter()
    overlay = BrokerOverlay.random_tree(n_brokers, seed=11)
    overlay.attach_round_robin(patterns)
    with lsh_calls(("add",)) as advertised:
        overlay.advertise(
            CommunityPolicy(threshold=THRESHOLD, candidates=template), estimator
        )
    seconds = time.perf_counter() - started
    leaders = sum(len(node.clusters.communities) for node in overlay.brokers.values())
    assert advertised["add"] == leaders, (
        f"advertise made {advertised['add']} LSHCandidates.add calls for "
        f"{leaders} leaders"
    )
    calls = churn_pairs(overlay)
    assert overlay.topology_signature() == overlay.rebuilt().topology_signature(), (
        "churned overlay differs from its from-scratch rebuild"
    )
    return seconds, advertised["add"], calls


@contextmanager
def lsh_calls(names) -> Iterator[Counter]:
    """Count the calls of the ``LSHCandidates`` methods *names* made in
    the block."""
    calls: Counter = Counter()
    originals = {name: vars(LSHCandidates)[name] for name in names}

    def counted(name, method):
        def count(self, *args):
            calls[name] += 1
            return method(self, *args)

        return count

    try:
        for name, method in originals.items():
            setattr(LSHCandidates, name, counted(name, method))
        yield calls
    finally:
        for name, method in originals.items():
            setattr(LSHCandidates, name, method)


def churn_pairs(overlay, pairs: int = CHURN_PAIRS, seed: int = CHURN_SEED) -> Counter:
    """Resubscribe *pairs* seeded random subscriptions of *overlay*, each
    at its home with its own pattern, counting the ``LSHCandidates``
    calls (:data:`CHURN_CALLS`) the pairs make."""
    rng = random.Random(seed)
    with lsh_calls(CHURN_CALLS) as calls:
        for _ in range(pairs):
            victim = rng.choice(list(overlay.subscriptions))
            home, pattern = overlay.subscriptions[victim]
            overlay.unsubscribe(victim)
            overlay.subscribe(home, pattern)
    return calls


def render(rows: list[SizeRow]) -> str:
    header = (
        f"{'patterns':>8s} {'shingles':>10s} {'config':>7s} {'secs':>7s} "
        f"{'sim evals':>10s} {'comms':>6s} {'prec':>6s} {'recall':>7s} "
        f"{'dropped pairs':>14s}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        if row.exact_seconds is not None:
            lines.append(
                f"{row.size:8d} {'—':>10s} {'exact':>7s} "
                f"{row.exact_seconds:7.2f} {row.exact_calls:10d} "
                f"{row.exact_communities:6d} {'1.000':>6s} {'1.000':>7s} "
                f"{0:14d}"
            )
        else:
            lines.append(
                f"{row.size:8d} {'—':>10s} {'exact':>7s} "
                f"{'not run':>7s}  (cap {EXACT_CAP}; n·C growth puts it "
                f"~{row.size // EXACT_CAP}x the {EXACT_CAP} cell)"
            )
        for cell in row.cells:
            star = "*" if cell.is_default else " "
            if cell.recall is None:
                tail = f"{'—':>6s} {'—':>7s} {'—':>14s}"
            else:
                tail = (
                    f"{cell.precision:6.3f} {cell.recall:7.3f} "
                    f"{cell.dropped_pairs:14d}"
                )
            lines.append(
                f"{cell.size:8d} {cell.source:>10s} "
                f"{f'{cell.bands}x{cell.rows}{star}':>7s} {cell.seconds:7.2f} "
                f"{cell.calls:10d} {cell.communities:6d} {tail}"
            )
    return "\n".join(lines) + "\n"


def check_acceptance(rows: list[SizeRow]) -> None:
    """Assert the headline claims over a finished sweep."""
    for row in rows:
        for cell in row.cells:
            assert cell.communities > 0, (row.size, cell.source)
            if cell.is_default and cell.recall is not None:
                assert cell.recall >= RECALL_FLOOR, (
                    f"default-config recall {cell.recall:.3f} below "
                    f"{RECALL_FLOOR} at {row.size} patterns"
                )
        if row.exact_calls is not None and row.size >= 1_000:
            for cell in row.cells:
                assert cell.calls < row.exact_calls, (
                    f"{cell.source} {cell.bands}x{cell.rows} dispatched "
                    f"{cell.calls} similarity evaluations vs exact "
                    f"{row.exact_calls} at {row.size}"
                )


def default_cell(rows: list[SizeRow]):
    """The largest measured-recall cell of the default configuration."""
    for row in reversed(rows):
        for cell in row.cells:
            if cell.is_default and cell.recall is not None:
                return row, cell
    raise AssertionError("no measured default-config cell")


def main() -> None:
    args = overlay_argument_parser(__doc__.splitlines()[0]).parse_args()
    run_with_profile(args, lambda: _run(args))


def _run(args: argparse.Namespace) -> None:
    sizes = SMOKE_SIZES if args.smoke else SIZES
    rows = run_sweep(sizes=sizes)
    print(render(rows))
    check_acceptance(rows)
    end_to_end_size = sizes[-1]
    end_to_end, leader_adds, churn_calls = run_end_to_end(
        end_to_end_size, n_brokers=4 if args.smoke else N_BROKERS
    )
    per_pair = {name: churn_calls[name] / CHURN_PAIRS for name in CHURN_CALLS}
    print(
        f"end-to-end advertise(CommunityPolicy, candidates=lsh) at "
        f"{end_to_end_size} subscriptions: {end_to_end:.1f}s"
    )
    print(
        f"{CHURN_PAIRS} resubscribe pairs: churned overlay == from-scratch "
        f"rebuild; per pair {per_pair['candidates_of']:.2f} candidates_of, "
        f"{per_pair['is_candidate']:.2f} is_candidate"
    )
    print("acceptance checks passed")
    row, cell = default_cell(rows)
    speedup = (
        row.exact_seconds / cell.seconds if cell.seconds > 0 else float("inf")
    )
    print(
        f"lsh=recall {cell.recall:.3f} precision {cell.precision:.3f} at "
        f"{row.size} patterns ({cell.bands}x{cell.rows} synopsis shingles, "
        f"{cell.calls} vs {row.exact_calls} sim evals, "
        f"{speedup:.1f}x wall-clock; advertise at {end_to_end_size}: "
        f"{end_to_end:.1f}s, {leader_adds} LSHCandidates.add, one per leader; "
        f"per resubscribe pair "
        f"{per_pair['candidates_of']:.2f} candidates_of, "
        f"{per_pair['is_candidate']:.2f} is_candidate)"
    )


if __name__ == "__main__":
    main()
