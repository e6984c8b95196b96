"""Batched trie matching: shared-traversal drains vs one-at-a-time.

Sweeps batch size × routing-table size × corpus skew and matches the
same document stream through ``RoutingTable.destinations_for_batch``,
which funnels every document in a drain through one
cross-document memo pool (:class:`repro.routing.trie.PatternTrie`,
``match_batch``).  Two corpora:

* **uniform** — every document freshly generated: batches share only
  whatever small subtrees the DTD makes common, so memoisation helps
  modestly at best;
* **skewed** — documents Zipf-sampled (θ = 1.5) from a small pool, the
  hot-document regime of a real feed: repeated documents and repeated
  subtrees dominate, so each batch re-matches mostly structure the pool
  has already paid for.

Reported per cell: trie ops per document, memo hit rate, wall-clock.
The headline claims asserted here:

* batched destinations equal the sequential ``destinations_for`` output
  for every document at every cell — table order included;
* batched ops never exceed the summed sequential ops, at every batch
  size (coarser partitions merge finer ones, so ops are non-increasing
  in batch size everywhere);
* on the skewed corpus, ops **strictly decrease** as batch size grows,
  the memo hit rate is positive from batch size 2 up, and the ops ratio
  vs sequential drops below 1.0 by batch size 8.

The standalone run prints a ``batch=…`` key=value line with the memo
hit rate and batched-vs-sequential ops ratio at the largest skewed
cell, which CI publishes as a step output::

    PYTHONPATH=src python benchmarks/bench_batch.py --smoke
"""

from __future__ import annotations

import argparse
import random
import time

from common import RESULTS_DIR, overlay_argument_parser, run_with_profile
from repro.dtd.builtin import nitf_dtd
from repro.generators.docgen import DocumentGenerator
from repro.generators.querygen import PatternGenerator
from repro.generators.zipf import ZipfSampler
from repro.routing.table import RoutingTable

TABLE_SIZES = (1_000, 5_000)
SMOKE_TABLE_SIZES = (300, 1_000)
BATCH_SIZES = (1, 2, 4, 8, 16, 32)
SMOKE_BATCH_SIZES = (1, 4, 16)
#: Stream lengths are divisible by every swept batch size, so coarser
#: partitions merge finer ones exactly and ops are comparable cell for
#: cell.
N_DOCS = 64
SMOKE_N_DOCS = 32
#: Distinct documents behind the skewed stream.
POOL_SIZE = 12
SKEW_THETA = 1.5
PATTERN_SEED = 7
DOC_SEED = 21
POOL_SEED = 33
STREAM_SEED = 5


class BatchPoint:
    """One (corpus, table size, batch size) cell."""

    def __init__(self, corpus: str, size: int, batch: int):
        self.corpus = corpus
        self.size = size
        self.batch = batch
        self.ops = 0
        self.hits = 0
        self.misses = 0
        self.seconds = 0.0
        self.sequential_ops = 0
        self.agreed = True

    @property
    def hit_rate(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    @property
    def ops_ratio(self) -> float:
        return self.ops / self.sequential_ops if self.sequential_ops else 0.0


def build_table(patterns) -> RoutingTable:
    """One per-subscription table: subscriber *i* is destination *i*."""
    table = RoutingTable()
    for index, pattern in enumerate(patterns):
        table.add(pattern, index)
    return table


def make_corpora(n_docs: int) -> dict[str, list]:
    """The uniform and Zipf-skewed document streams, seeded."""
    dtd = nitf_dtd()
    uniform_gen = DocumentGenerator(dtd, seed=DOC_SEED)
    uniform = [uniform_gen.generate() for _ in range(n_docs)]
    pool_gen = DocumentGenerator(dtd, seed=POOL_SEED)
    pool = [pool_gen.generate() for _ in range(POOL_SIZE)]
    sampler = ZipfSampler(
        POOL_SIZE, theta=SKEW_THETA, rng=random.Random(STREAM_SEED)
    )
    skewed = [pool[sampler.sample()] for _ in range(n_docs)]
    return {"uniform": uniform, "skewed": skewed}


def measure_sequential(table: RoutingTable, documents):
    """Summed one-document ``destinations_for`` ops and delivery lists."""
    operations = 0
    delivered = []
    for document in documents:
        match = table.destinations_for(document)
        operations += match.operations
        delivered.append(match.destinations)
    return operations, delivered


def measure_batched(table: RoutingTable, documents, batch_size: int):
    """One sweep of the stream drained *batch_size* documents at a time."""
    operations = hits = misses = 0
    delivered = []
    started = time.perf_counter()
    for start in range(0, len(documents), batch_size):
        chunk = documents[start : start + batch_size]
        result = table.destinations_for_batch(chunk)
        operations += result.total_operations
        hits += result.memo_hits
        misses += result.memo_misses
        delivered.extend(step.destinations for step in result.steps)
    return operations, hits, misses, time.perf_counter() - started, delivered


def run_sweep(
    table_sizes=TABLE_SIZES,
    batch_sizes=BATCH_SIZES,
    n_docs: int = N_DOCS,
) -> list[BatchPoint]:
    for batch_size in batch_sizes:
        if n_docs % batch_size:
            raise ValueError(
                f"stream length {n_docs} not divisible by batch {batch_size}"
            )
    corpora = make_corpora(n_docs)
    generator = PatternGenerator(nitf_dtd(), seed=PATTERN_SEED)
    patterns = generator.generate_many(max(table_sizes), distinct=False)
    rows = []
    for size in table_sizes:
        table = build_table(patterns[:size])
        for corpus_name, documents in corpora.items():
            sequential_ops, sequential_lists = measure_sequential(
                table, documents
            )
            for batch_size in batch_sizes:
                point = BatchPoint(corpus_name, size, batch_size)
                point.sequential_ops = sequential_ops
                (
                    point.ops,
                    point.hits,
                    point.misses,
                    point.seconds,
                    delivered,
                ) = measure_batched(table, documents, batch_size)
                point.agreed = delivered == sequential_lists
                rows.append(point)
    return rows


def render(rows: list[BatchPoint], n_docs: int) -> str:
    header = (
        f"{'corpus':>7s} {'patterns':>8s} {'batch':>5s} {'ops/doc':>8s} "
        f"{'seq/doc':>8s} {'ratio':>6s} {'hit rate':>8s} {'wall s':>7s}"
    )
    lines = [header, "-" * len(header)]
    for point in rows:
        lines.append(
            f"{point.corpus:>7s} {point.size:8d} {point.batch:5d} "
            f"{point.ops / n_docs:8.1f} "
            f"{point.sequential_ops / n_docs:8.1f} {point.ops_ratio:6.3f} "
            f"{point.hit_rate:8.3f} {point.seconds:7.3f}"
        )
    return "\n".join(lines) + "\n"


def check_acceptance(rows: list[BatchPoint]) -> None:
    """Assert the headline claims over a finished sweep."""
    cells: dict[tuple[str, int], list[BatchPoint]] = {}
    for point in rows:
        assert point.agreed, (
            f"batched destinations diverged from sequential at "
            f"{point.corpus}/{point.size}/batch {point.batch}"
        )
        assert point.ops <= point.sequential_ops, (
            f"batched ops exceed sequential at "
            f"{point.corpus}/{point.size}/batch {point.batch}: "
            f"{point.ops} vs {point.sequential_ops}"
        )
        cells.setdefault((point.corpus, point.size), []).append(point)
    for (corpus, size), points in cells.items():
        points.sort(key=lambda p: p.batch)
        for previous, current in zip(points, points[1:], strict=False):
            assert current.ops <= previous.ops, (
                f"ops grew with batch size at {corpus}/{size}: "
                f"batch {previous.batch} -> {current.batch} cost "
                f"{previous.ops} -> {current.ops}"
            )
            if corpus == "skewed":
                assert current.ops < previous.ops, (
                    f"ops not strictly decreasing on the skewed corpus at "
                    f"{size}: batch {previous.batch} -> {current.batch} "
                    f"cost {previous.ops} -> {current.ops}"
                )
        if corpus == "skewed":
            for point in points:
                if point.batch >= 2:
                    assert point.hit_rate > 0.0, (
                        f"no memo hits at skewed/{size}/batch {point.batch}"
                    )
                if point.batch >= 8:
                    assert point.ops_ratio < 1.0, (
                        f"batched ops not below sequential at "
                        f"skewed/{size}/batch {point.batch}: "
                        f"ratio {point.ops_ratio:.3f}"
                    )


def test_batch_matching(benchmark):

    rows = benchmark.pedantic(
        lambda: run_sweep(
            table_sizes=SMOKE_TABLE_SIZES,
            batch_sizes=SMOKE_BATCH_SIZES,
            n_docs=SMOKE_N_DOCS,
        ),
        rounds=1,
        iterations=1,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    report = render(rows, SMOKE_N_DOCS)
    (RESULTS_DIR / "batch_matching.txt").write_text(report)
    print()
    print(report)
    check_acceptance(rows)


def main() -> None:
    args = overlay_argument_parser(__doc__.splitlines()[0]).parse_args()
    run_with_profile(args, lambda: _run(args))


def _run(args: argparse.Namespace) -> None:
    if args.smoke:
        n_docs = SMOKE_N_DOCS
        rows = run_sweep(
            table_sizes=SMOKE_TABLE_SIZES,
            batch_sizes=SMOKE_BATCH_SIZES,
            n_docs=n_docs,
        )
    else:
        n_docs = N_DOCS
        rows = run_sweep()
    print(render(rows, n_docs))
    check_acceptance(rows)
    top = max(
        (p for p in rows if p.corpus == "skewed"),
        key=lambda p: (p.size, p.batch),
    )
    print("acceptance checks passed")
    print(
        f"batch=skewed ops ratio {top.ops_ratio:.3f} at batch {top.batch}, "
        f"{top.size} patterns (memo hit rate {top.hit_rate:.3f}, "
        f"{top.ops} vs {top.sequential_ops} ops)"
    )


if __name__ == "__main__":
    main()
