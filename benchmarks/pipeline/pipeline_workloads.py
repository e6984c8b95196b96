"""The pipeline benchmark's workloads: seeded inputs, set-up, stream, oracle.

Three workloads drive the routing pipeline (XML parse → routing tables
and trie matching → overlay forwarding; synopsis → selectivity →
similarity → LSH candidates → community clustering where the policy
aggregates; the discrete-event engine where delivery is simulated):

* ``publish-persub`` — 10 000 subscriptions under
  :class:`~repro.routing.policy.PerSubscriptionPolicy`; one closed-loop
  publisher sends each document once, as XML text (``parse_xml`` →
  ``BrokerOverlay.route``, round-robin over brokers), with one
  resubscribe pair after every 5th document.  Trie matching dominates;
  similarity and clustering never run.
* ``churn-community`` — 2 000 subscriptions under
  :class:`~repro.routing.policy.CommunityPolicy` with
  :class:`~repro.core.candidates.LSHCandidates` shingled by synopsis
  matching-set sample ids; a resubscribe pair after every 4th document.
  Each pair re-clusters a broker, so similarity, candidates and
  clustering do most of the work.
* ``engine-zipf-batched`` — the same 10 000-subscription overlay driven
  through :class:`~repro.routing.engine.DeliveryEngine` with batched
  drains: episodes of 50 Poisson arrivals Zipf-sampled from a
  200-document pool, each delivered by one ``run()`` of a fresh engine,
  with the episode's resubscribe pairs (one per 2 documents) before it.

Every input is generated before any clock starts: the deployment
(subscription population and churn schedule, synopsis documents,
published documents, engine episodes) from a constant seed, the
traffic (the order documents or episodes are published in) from
``--seed``.  ``--seconds`` fixes the amount of work through
per-workload rates measured once on the reference machine, so two
commits run identical work for one seed.  Every time is divided by the
host slowdown sampled around it (see :mod:`pipeline_hostspeed`).
Ground truth comes from :class:`~repro.xmltree.corpus.DocumentCorpus`
match sets computed before set-up; deliveries are scored between timed
operations, never inside one.
"""

from __future__ import annotations

import gc
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, ContextManager, Iterable, Iterator, Optional

import repro.xmltree.parser as xml_parser
from repro.core.candidates import LSHCandidates
from repro.core.pattern import TreePattern
from repro.core.selectivity import SelectivityEstimator
from repro.dtd.builtin import nitf_dtd
from repro.generators.docgen import DocumentGenerator
from repro.generators.querygen import PatternGenerator
from repro.generators.zipf import ZipfSampler
from repro.routing.engine import BatchServiceModel, DeliveryEngine, LinkModel
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import CommunityPolicy, PerSubscriptionPolicy
from repro.synopsis.synopsis import DocumentSynopsis
from repro.xmltree.corpus import DocumentCorpus
from repro.xmltree.tree import XMLTree

import pipeline_hostspeed as hostspeed
from pipeline_trace import LAYERS, Tracer

BROKERS = 8
TOPOLOGY_SEED = 11
#: Seed of the deployment every run shares (see make_inputs).  Drawn
#: per run, one broad pattern more or less swung the community table
#: size by 20% between seeds, a heavy-tailed handful of expensive
#: resubscribe pairs swung churn p50 by 30%, which 752 documents got
#: published alone spread publish p99 by 7%, and the walls of engine
#: episodes with different Zipf samples differed by up to 40%, so the
#: draw decided which episode set the tail; a fixed deployment keeps
#: cross-seed spreads about the system, not the draw.
DEPLOYMENT_SEED = 7
THRESHOLD = 0.5
SYNOPSIS_CAPACITY = 128
SYNOPSIS_SEED = 0
POOL_THETA = 1.2
ARRIVAL_RATE = 2.0
SERVICE = BatchServiceModel(base=0.2, per_match=0.001, per_doc=0.05, max_batch=32)
LINKS = LinkModel(default=1.0)

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("publish_throughput_dps", "docs/s"),
    ("publish_latency_p50_ms", "ms"),
    ("publish_latency_p95_ms", "ms"),
    ("churn_latency_p50_ms", "ms"),
    ("churn_latency_p90_ms", "ms"),
    ("delivery_precision", "ratio"),
    ("delivery_recall", "ratio"),
    ("table_entries", "entries"),
    ("peak_rss_mb", "MB"),
)

#: Layers set-up can reach (parsing and the engine run only in streams).
SETUP_LAYERS = tuple(
    layer for layer in LAYERS if layer not in ("xmltree", "routing.engine")
)

#: (name, unit) of every per-layer metric of the traced run.
PER_LAYER = (
    ("xmltree.parse_us_per_doc", "us"),
    ("routing.table.match_ms_per_doc", "ms"),
    ("routing.table.match_calls_per_doc", "count"),
    ("routing.table.update_ms_per_pair", "ms"),
    ("routing.trie.ops_per_doc", "count"),
    ("routing.trie.ns_per_op", "ns"),
    ("routing.trie.nodes", "count"),
    ("routing.trie.batch_hit_rate", "ratio"),
    ("routing.overlay.route_self_ms_per_doc", "ms"),
    ("routing.overlay.churn_self_ms_per_pair", "ms"),
    ("routing.overlay.forwards_per_doc", "count"),
    ("routing.overlay.deliveries_per_doc", "count"),
    ("routing.overlay.ad_messages_per_pair", "count"),
    ("routing.community.cluster_calls_per_pair", "count"),
    ("core.similarity.joint_calls_per_pair", "count"),
    ("core.similarity.joint_evaluated_per_pair", "count"),
    ("core.similarity.candidate_pruned_per_pair", "count"),
    ("core.similarity.prune_ratio", "ratio"),
    ("core.similarity.memo_size", "count"),
    ("core.selectivity.probes_per_pair", "count"),
    ("core.candidates.lsh_calls_per_pair", "count"),
    ("synopsis.inserts", "count"),
    ("routing.engine.mean_batch_size", "docs"),
    ("routing.engine.peak_queue_depth", "jobs"),
    ("routing.engine.sim_latency_p50", "sim_units"),
    ("routing.engine.sim_latency_p99", "sim_units"),
    *((f"{layer}.stream_share", "ratio") for layer in LAYERS),
    *((f"{layer}.setup_share", "ratio") for layer in SETUP_LAYERS),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)


#: Replica overlays an untraced run drives through the same stream.  The
#: shared host can slow one vCPU without the other; replica *i* runs
#: pinned to allowed CPU ``i mod n``, the replicas take turns step by
#: step, and an operation's latency is its fastest replica — the same
#: operation on identical state, measured within about a second on
#: different CPUs.  A third replica did not steady the engine's tail.
REPLICAS = 2


@dataclass(frozen=True)
class Shape:
    """How much work one pass of a workload does."""

    subscriptions: int
    documents: int
    #: A resubscribe pair follows every n-th document (in the engine
    #: workload, an episode's pairs all run before it).
    pair_every: int
    synopsis_documents: int = 0
    #: Distinct documents published (0: every publish is a document of
    #: its own).
    pool: int = 0
    #: Documents per engine episode (0: closed-loop routing).
    episode: int = 0

    def __post_init__(self) -> None:
        if self.documents % (self.episode or self.pair_every):
            raise ValueError("a stream is a whole number of steps")
        if self.episode % self.pair_every:
            raise ValueError("an episode is a whole number of pairs")

    @property
    def pairs(self) -> int:
        """Resubscribe pairs in the stream."""
        return self.documents // self.pair_every

    @property
    def steps(self) -> int:
        """Steps of the stream: a pair's worth of documents and the pair
        (closed loop), or an episode's pairs and the episode (engine)."""
        return self.documents // (self.episode or self.pair_every)


@dataclass(frozen=True)
class Workload:
    """One workload: its policy family, delivery path and sizes."""

    name: str
    community: bool
    full: Shape
    smoke: Shape
    #: Documents per second of ``--seconds`` at full scale: a pass is
    #: about ``docs_per_second * seconds / REPLICAS`` documents long
    #: (whole steps), a constant calibrated so that the timed operations
    #: of an untraced run take about ``--seconds`` on a 2-vCPU reference
    #: machine.
    docs_per_second: float
    #: Timed set-ups of an untraced run (the replicas are the last ones):
    #: as many as a community build's cost leaves room for.
    builds: int

    def shape(self, scale: str, seconds: int) -> Shape:
        """The run's sizes at *scale* (``full`` or ``smoke``)."""
        if scale == "smoke":
            return self.smoke
        step = self.full.episode or self.full.pair_every
        steps = max(1, round(self.docs_per_second * seconds / REPLICAS / step))
        return replace(self.full, documents=steps * step)


#: Pair frequencies give each pass about a hundred pairs, the fewest
#: that put ten samples beyond the churn p90; the engine workload's
#: pairs come in blocks between episodes and need two hundred before
#: their median stops jumping between clusters of pair costs.  Every
#: document of an engine episode has about the same latency, so the
#: engine's median and tail are episode walls: with three 200-document
#: episodes the p50 was the middle one and the tail the slowest, so
#: episodes are 50 documents long and a pass has eight.
#: ``churn-community`` builds only its two replicas: a community build
#: costs about 4.5 s, and a third one did not fit the time a run has.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="publish-persub",
            community=False,
            full=Shape(10_000, 0, pair_every=5),
            smoke=Shape(1_000, 40, pair_every=5),
            docs_per_second=100.0,
            builds=5,
        ),
        Workload(
            name="churn-community",
            community=True,
            full=Shape(2_000, 0, pair_every=4, synopsis_documents=120),
            smoke=Shape(200, 36, pair_every=4, synopsis_documents=30),
            docs_per_second=78.0,
            builds=2,
        ),
        Workload(
            name="engine-zipf-batched",
            community=False,
            full=Shape(10_000, 0, pair_every=2, pool=200, episode=50),
            smoke=Shape(1_000, 60, pair_every=5, pool=30, episode=30),
            docs_per_second=80.0,
            builds=5,
        ),
    )
}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything a run feeds the library."""

    #: Initial subscriptions, attached round-robin.
    patterns: list[TreePattern]
    #: The fresh subscription of each resubscribe pair.
    churn_patterns: list[TreePattern]
    #: Per pair: position in the live-subscription list to retire.
    victims: list[int]
    #: Per pair: home broker of the fresh subscription.
    homes: list[int]
    #: Distinct documents as XML text; a document's corpus key is its
    #: position here.
    texts: list[str]
    #: Corpus key of every publish, in publish order.
    stream: list[int]
    #: Simulated publish time of every publish within its episode
    #: (engine workload only).
    arrivals: list[float]
    #: Documents the community workload's synopsis summarises.
    synopsis_documents: list[XMLTree]


def make_inputs(shape: Shape, seed: int) -> Inputs:
    """Generate a run's inputs; the same seed gives the same inputs.

    The deployment — the subscription population and its churn schedule,
    the synopsis's documents, the published documents and the engine's
    episodes (Zipf samples and arrival times) — comes from
    :data:`DEPLOYMENT_SEED`; *seed* draws the traffic: the order the
    documents, or the engine's episodes, are published in, and so the
    broker each document enters at and the routing state it meets.
    """
    dtd = nitf_dtd()
    traffic = random.Random(seed)
    documents = DocumentGenerator(dtd, seed=DEPLOYMENT_SEED + 2)
    texts = [
        xml_parser.tree_to_xml(documents.generate())
        for _ in range(shape.pool or shape.documents)
    ]
    if shape.pool:
        episodes = random.Random(DEPLOYMENT_SEED + 5)
        sampler = ZipfSampler(shape.pool, theta=POOL_THETA, rng=episodes)
        drawn: list[tuple[list[int], list[float]]] = []
        for _ in range(shape.steps):
            times = [0.0]
            for _ in range(shape.episode - 1):
                times.append(times[-1] + episodes.expovariate(ARRIVAL_RATE))
            drawn.append(([sampler.sample() for _ in times], times))
        traffic.shuffle(drawn)
        stream = [key for keys, _ in drawn for key in keys]
        arrivals = [at for _, times in drawn for at in times]
    else:
        stream = list(range(shape.documents))
        traffic.shuffle(stream)
        arrivals = []
    synopsis_source = DocumentGenerator(dtd, seed=DEPLOYMENT_SEED + 1)
    churn = random.Random(DEPLOYMENT_SEED + 3)
    return Inputs(
        patterns=PatternGenerator(dtd, seed=DEPLOYMENT_SEED).generate_many(
            shape.subscriptions, distinct=False
        ),
        churn_patterns=PatternGenerator(dtd, seed=DEPLOYMENT_SEED + 4).generate_many(
            shape.pairs, distinct=False
        ),
        victims=[churn.randrange(shape.subscriptions) for _ in range(shape.pairs)],
        homes=[churn.randrange(BROKERS) for _ in range(shape.pairs)],
        texts=texts,
        stream=stream,
        arrivals=arrivals,
        synopsis_documents=[
            synopsis_source.generate(doc_id=index)
            for index in range(shape.synopsis_documents)
        ],
    )


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------


class Oracle:
    """Exact ground truth from ``DocumentCorpus`` match sets.

    Every distinct subscription pattern is matched once against the
    corpus of distinct published documents; what is kept is, per
    document, the patterns matching it.
    """

    def __init__(self, inputs: Inputs) -> None:
        corpus = DocumentCorpus(
            [
                xml_parser.parse_xml(text, doc_id=key)
                for key, text in enumerate(inputs.texts)
            ]
        )
        self.matching: dict[int, list[TreePattern]] = {}
        for pattern in dict.fromkeys(inputs.patterns + inputs.churn_patterns):
            for key in corpus.match_set(pattern):
                self.matching.setdefault(key, []).append(pattern)


class Score:
    """Deliveries scored against the oracle as the stream runs.

    Tracks which subscription ids hold which pattern, so the expected
    delivery set of a publish is every live holder of a pattern that
    matches the document.
    """

    def __init__(
        self, oracle: Oracle, ids: Iterable[int], patterns: Iterable[TreePattern]
    ) -> None:
        self.matching = oracle.matching
        self.holders: dict[TreePattern, set[int]] = {}
        self.pattern_of: dict[int, TreePattern] = {}
        for subscriber, pattern in zip(ids, patterns, strict=True):
            self.holders.setdefault(pattern, set()).add(subscriber)
            self.pattern_of[subscriber] = pattern
        self.true = 0
        self.delivered = 0
        self.wanted = 0
        #: Publishes whose delivered set differs from the oracle's.
        self.mismatched = 0

    def resubscribed(self, retired: int, fresh: int, pattern: TreePattern) -> None:
        """Follow one resubscribe pair."""
        self.holders[self.pattern_of.pop(retired)].discard(retired)
        self.holders.setdefault(pattern, set()).add(fresh)
        self.pattern_of[fresh] = pattern

    def published(self, key: int, got: Iterable[int]) -> None:
        """Score one delivered set for the document with corpus *key*."""
        wanted: set[int] = set()
        for pattern in self.matching.get(key, ()):
            wanted |= self.holders.get(pattern, set())
        got = set(got)
        self.true += len(got & wanted)
        self.delivered += len(got)
        self.wanted += len(wanted)
        self.mismatched += got != wanted

    @property
    def precision(self) -> float:
        return self.true / self.delivered if self.delivered else 1.0

    @property
    def recall(self) -> float:
        return self.true / self.wanted if self.wanted else 1.0


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------


def synopsis_tokens(
    estimator: SelectivityEstimator,
) -> Callable[[TreePattern], list[tuple[str, int]]]:
    """LSH shingles: the ids of the synopsis samples a pattern matches.

    MinHash over these ids estimates the Jaccard overlap of two
    patterns' matching sets, the quantity M3 measures.  Memoised per
    pattern, as a broker would cache it.
    """
    cache: dict[TreePattern, list[tuple[str, int]]] = {}

    def tokens(pattern: TreePattern) -> list[tuple[str, int]]:
        found = cache.get(pattern)
        if found is None:
            found = [
                ("doc", sample)
                for sample in sorted(estimator.matching_view(pattern).ids)
            ]
            cache[pattern] = found
        return found

    return tokens


def deploy(workload: Workload, inputs: Inputs) -> BrokerOverlay:
    """Inputs → routable overlay: topology, attach, advertise (and, for
    communities, the synopsis the similarity estimates come from)."""
    overlay = BrokerOverlay.build("random_tree", BROKERS, seed=TOPOLOGY_SEED)
    overlay.attach_round_robin(inputs.patterns)
    if not workload.community:
        overlay.advertise(PerSubscriptionPolicy())
        return overlay
    synopsis = DocumentSynopsis(
        mode="sets", capacity=SYNOPSIS_CAPACITY, seed=SYNOPSIS_SEED
    )
    for document in inputs.synopsis_documents:
        synopsis.insert_document(document)
    estimator = SelectivityEstimator(synopsis)
    policy = CommunityPolicy(
        threshold=THRESHOLD,
        candidates=LSHCandidates(tokens=synopsis_tokens(estimator)),
    )
    overlay.advertise(policy, estimator)
    return overlay


def rebuild_equal(overlay: BrokerOverlay) -> bool:
    """Incrementally maintained routing state equals a fresh rebuild."""
    return overlay.topology_signature() == overlay.rebuilt().topology_signature()


# ----------------------------------------------------------------------
# the timed stream
# ----------------------------------------------------------------------


@dataclass
class StreamResult:
    """What one pass over the stream measured."""

    documents: int
    #: Per document, its latency (None where the call raised).
    publish_ms: list[Optional[float]]
    #: Per resubscribe pair, its latency (None where it raised).
    churn_ms: list[Optional[float]]
    #: Wall of every timed operation — a publish or engine episode, a
    #: resubscribe pair — in execution order (None where it raised).
    operations_ms: list[Optional[float]]
    #: Host slowdown sampled before the first operation and after each
    #: completed one; every time above is the operation's wall divided by
    #: the geometric mean of the samples around it (see pipeline_hostspeed).
    slowdowns: list[float]
    score: Score
    raised: int
    attempted: int
    trie_ops: int
    forwards: int
    ad_messages: int
    rss_mb: float
    #: Routing-table entries over all brokers, averaged over the steps.
    table_entries: float
    #: Per engine episode: (service batches, serviced documents, peak
    #: queue depth, simulated latency p50, p99).
    episodes: list[tuple[int, int, int, float, float]] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        """Summed wall of the operations that completed."""
        return sum(ms for ms in self.operations_ms if ms is not None) / 1e3

    def outcome(self) -> tuple[float, ...]:
        """Everything about the pass that must not depend on timing."""
        score = self.score
        return (
            score.true,
            score.delivered,
            score.wanted,
            score.mismatched,
            self.table_entries,
            self.trie_ops,
            self.forwards,
            self.ad_messages,
        )


Request = Callable[..., ContextManager[Any]]


def _untraced(kind: str, index: Optional[int] = None) -> ContextManager[None]:
    return nullcontext()


def _report_failure(what: str) -> None:
    print(f"pipeline: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class _Pass:
    """Mutable state of one pass over the stream."""

    def __init__(
        self,
        overlay: BrokerOverlay,
        inputs: Inputs,
        oracle: Oracle,
        request: Request,
    ) -> None:
        self.overlay = overlay
        self.inputs = inputs
        self.request = request
        self.live = list(overlay.subscriptions)
        self.score = Score(oracle, self.live, inputs.patterns)
        self.ads_before = overlay.advertisement_messages
        self.publish_ms: list[Optional[float]] = []
        self.churn_ms: list[Optional[float]] = []
        self.operations_ms: list[Optional[float]] = []
        self.slowdowns = [hostspeed.slowdown()]
        self.table_sizes: list[int] = []
        self.pairs = 0
        self.raised = 0
        self.trie_ops = 0
        self.forwards = 0
        self.episodes: list[tuple[int, int, int, float, float]] = []

    def resubscribe(self) -> None:
        """The next pair: retire a live subscription, subscribe a fresh one."""
        pair = self.pairs
        self.pairs += 1
        position = self.inputs.victims[pair]
        victim = self.live[position]
        pattern = self.inputs.churn_patterns[pair]
        with self.request("churn", pair):
            started = time.perf_counter()
            try:
                self.overlay.unsubscribe(victim)
                fresh = self.overlay.subscribe(self.inputs.homes[pair], pattern)
            except Exception:
                self.raised += 1
                self.churn_ms.append(None)
                self.operations_ms.append(None)
                _report_failure(f"resubscribe pair {pair}")
                return
            elapsed = (time.perf_counter() - started) * 1e3
        elapsed /= self.slowdown()
        self.churn_ms.append(elapsed)
        self.operations_ms.append(elapsed)
        self.live[position] = fresh
        self.score.resubscribed(victim, fresh, pattern)

    def route(self, index: int) -> None:
        """Publish document *index*: XML text → delivered set."""
        key = self.inputs.stream[index]
        with self.request("publish", index):
            started = time.perf_counter()
            try:
                tree = xml_parser.parse_xml(self.inputs.texts[key], doc_id=key)
                got, operations, forwards = self.overlay.route(tree, index % BROKERS)
            except Exception:
                self.raised += 1
                self.publish_ms.append(None)
                self.operations_ms.append(None)
                _report_failure(f"publish {index}")
                return
            elapsed = (time.perf_counter() - started) * 1e3
        elapsed /= self.slowdown()
        self.publish_ms.append(elapsed)
        self.operations_ms.append(elapsed)
        self.trie_ops += sum(operations.values())
        self.forwards += forwards
        self.score.published(key, got)

    def episode(self, first: int, last: int) -> None:
        """Publish documents ``first..last-1`` into a fresh engine and
        deliver them with one ``run()``; each document's latency runs
        from the moment its text is handed over to the run's return."""
        inputs = self.inputs
        engine = DeliveryEngine(self.overlay, service=SERVICE, links=LINKS)
        handed: list[float] = []
        published: list[tuple[int, int]] = []
        with self.request("publish", first):
            try:
                for position in range(first, last):
                    handed.append(time.perf_counter())
                    key = inputs.stream[position]
                    tree = xml_parser.parse_xml(inputs.texts[key], doc_id=key)
                    index = engine.publish(
                        tree, position % BROKERS, inputs.arrivals[position]
                    )
                    published.append((index, key))
                stats = engine.run()
            except Exception:
                self.raised += last - first
                self.publish_ms.extend([None] * (last - first))
                self.operations_ms.append(None)
                _report_failure(f"engine episode at document {first}")
                return
            finished = time.perf_counter()
        slowdown = self.slowdown()
        self.publish_ms.extend((finished - at) * 1e3 / slowdown for at in handed)
        self.operations_ms.append((finished - handed[0]) * 1e3 / slowdown)
        self.trie_ops += stats.match_operations
        self.forwards += stats.forwards
        self.episodes.append(
            (
                stats.service_batches,
                stats.serviced_documents,
                max(stats.queue_depth_peaks.values(), default=0),
                stats.latency_p50,
                stats.latency_p99,
            )
        )
        delivered = engine.delivered_sets()
        for index, key in published:
            self.score.published(key, delivered[index])

    def slowdown(self) -> float:
        """Sample the host slowdown, outside any request, and return the
        geometric mean of this sample and the one before: the slowdown
        of the operation between them."""
        slowdown = hostspeed.slowdown()
        self.slowdowns.append(slowdown)
        return math.sqrt(self.slowdowns[-2] * slowdown)

    def step(self, shape: Shape, step: int) -> None:
        """Step *step* of the stream (see :attr:`Shape.steps`), then a
        sample of the routing-table size."""
        if shape.episode:
            for _ in range(shape.episode // shape.pair_every):
                self.resubscribe()
            first = step * shape.episode
            self.episode(first, first + shape.episode)
        else:
            first = step * shape.pair_every
            for index in range(first, first + shape.pair_every):
                self.route(index)
            self.resubscribe()
        self.table_sizes.append(
            sum(len(node.table) for node in self.overlay.brokers.values())
        )

    def result(self) -> StreamResult:
        overlay = self.overlay
        return StreamResult(
            documents=len(self.inputs.stream),
            publish_ms=self.publish_ms,
            churn_ms=self.churn_ms,
            operations_ms=self.operations_ms,
            slowdowns=self.slowdowns,
            score=self.score,
            raised=self.raised,
            attempted=len(self.inputs.stream) + self.pairs,
            trie_ops=self.trie_ops,
            forwards=self.forwards,
            ad_messages=overlay.advertisement_messages - self.ads_before,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            table_entries=statistics.fmean(self.table_sizes),
            episodes=self.episodes,
        )


def run_stream(
    shape: Shape,
    inputs: Inputs,
    oracle: Oracle,
    overlay: BrokerOverlay,
    tracer: Optional[Tracer] = None,
) -> StreamResult:
    """One pass over the workload's stream, scored as it goes."""
    request: Request = tracer.request if tracer is not None else _untraced
    run = _Pass(overlay, inputs, oracle, request)
    with frozen_heap():
        for step in range(shape.steps):
            run.step(shape, step)
    return run.result()


@contextmanager
def frozen_heap() -> Iterator[None]:
    """Collect, then exempt every object alive now from the cycle
    collector until the block ends.

    The deployed overlays and the oracle are the bulk of the heap and
    live through the whole stream; left in the collector's oldest
    generation, each full collection walks all of them, a pause of tens
    of milliseconds that lands on whichever operation happens to trip
    it.  Frozen, collections cost what the stream itself allocates.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def run_replicas(
    workload: Workload,
    shape: Shape,
    inputs: Inputs,
    oracle: Oracle,
    replicas: int,
    builds: int,
) -> tuple[list[float], list[StreamResult], BrokerOverlay]:
    """*builds* timed set-ups, then the last *replicas* overlays driven
    through the stream in lockstep, one step at a time each.

    Build *i* and replica *i* run pinned to allowed CPU ``i mod n``
    (where the platform lets a process pin itself).  A set-up's time is
    its wall divided by the host slowdown, the geometric mean of the
    median of three samples before it and three after.  Returns every
    set-up time, every replica's result and the last replica's overlay.
    """
    allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

    def pin(index: int) -> None:
        if allowed:
            os.sched_setaffinity(0, {allowed[index % len(allowed)]})

    def slowdown() -> float:
        return statistics.median(hostspeed.slowdown() for _ in range(3))

    setup_times: list[float] = []
    overlays: list[BrokerOverlay] = []
    try:
        for build in range(builds):
            pin(build)
            gc.collect()
            before = slowdown()
            started = time.perf_counter()
            overlay = deploy(workload, inputs)
            elapsed = time.perf_counter() - started
            setup_times.append(elapsed / math.sqrt(before * slowdown()))
            if build >= builds - replicas:
                overlays.append(overlay)
            del overlay
        runs = [_Pass(overlay, inputs, oracle, _untraced) for overlay in overlays]
        with frozen_heap():
            for step in range(shape.steps):
                for replica, run in enumerate(runs):
                    pin(replica)
                    run.step(shape, step)
    finally:
        if allowed:
            os.sched_setaffinity(0, allowed)
    return setup_times, [run.result() for run in runs], overlays[-1]


def failures(workload: Workload, results: list[StreamResult]) -> int:
    """Raised calls, wrong deliveries where delivery must be exact, and
    passes whose timing-independent outcome differs from the first's."""
    first = results[0].outcome()
    return sum(
        result.raised
        + (0 if workload.community else result.score.mismatched)
        + (result.outcome() != first)
        for result in results
    )


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def fastest(samples: list[list[Optional[float]]]) -> list[float]:
    """Per operation, its fastest pass; operations that raised in any
    pass are left out (they count as failed instead)."""
    return [
        min(values)
        for values in zip(*samples, strict=True)
        if None not in values
    ]


def slowdown_summary(results: list[StreamResult]) -> dict[str, float]:
    """Median, 10th and 90th percentile of every host-slowdown sample."""
    samples = [sample for result in results for sample in result.slowdowns]
    return {
        "median": _percentile(samples, 50),
        "p10": _percentile(samples, 10),
        "p90": _percentile(samples, 90),
    }


def _percentile(values: list[float], q: int) -> float:
    """The *q*-th percentile (inclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(
    setup_times: list[float], results: list[StreamResult]
) -> dict[str, float]:
    """Every end-to-end metric of an untraced run's passes."""
    publish = fastest([result.publish_ms for result in results])
    churn = fastest([result.churn_ms for result in results])
    busy_ms = sum(fastest([result.operations_ms for result in results]))
    first = results[0]
    return {
        "setup_s": statistics.median(setup_times),
        "publish_throughput_dps": first.documents / busy_ms * 1e3,
        "publish_latency_p50_ms": _percentile(publish, 50),
        "publish_latency_p95_ms": _percentile(publish, 95),
        "churn_latency_p50_ms": _percentile(churn, 50),
        "churn_latency_p90_ms": _percentile(churn, 90),
        "delivery_precision": first.score.precision,
        "delivery_recall": first.score.recall,
        "table_entries": first.table_entries,
        "peak_rss_mb": max(result.rss_mb for result in results),
    }


def per_layer(
    tracer: Tracer,
    traced: StreamResult,
    untraced: StreamResult,
    overlay: BrokerOverlay,
) -> dict[str, float]:
    """Every per-layer metric of one traced pass.

    Times are layer self times (span minus child spans and folded
    calls) under publish requests, per document, or under churn
    requests, per resubscribe pair, divided by the pass's median host
    slowdown; a share divides a layer's self time by the summed wall of
    the requests of that phase.
    """
    docs = max(1, traced.documents)
    pairs = max(1, len(traced.churn_ms))
    slowdown = statistics.median(traced.slowdowns) if traced.slowdowns else 1.0
    table = "routing.table:RoutingTable."
    match_names = (table + "destinations_for", table + "destinations_for_batch")
    match_ns = tracer.entry_self_ns("publish", *match_names) / slowdown
    stream_wall = tracer.wall_ns("publish") + tracer.wall_ns("churn")
    setup_wall = tracer.wall_ns("setup")
    batch = tracer.counters.get(table + "destinations_for_batch", {})
    lookups = batch.get("memo_hits", 0) + batch.get("memo_misses", 0)
    indexes = [
        node.index for node in overlay.brokers.values() if node.index is not None
    ]
    decided = pruned = evaluated = candidate_pruned = 0
    for index in indexes:
        stats = index.stats
        pruned_here = (
            stats.joint_pruned + stats.joint_ratio_pruned + stats.label_overlap_pruned
        )
        pruned += pruned_here
        decided += stats.joint_evaluated + pruned_here
        evaluated += stats.joint_evaluated
        candidate_pruned += stats.candidate_pruned
    episodes = traced.episodes
    serviced = sum(episode[1] for episode in episodes)
    batches = sum(episode[0] for episode in episodes)

    def share(layer: str, wall: int, *kinds: str) -> float:
        if not wall:
            return 0.0
        return sum(tracer.self_ns(kind, layer) for kind in kinds) / wall

    def churn_calls(*names: str) -> float:
        return tracer.calls("churn", *names) / pairs

    def self_ms(kind: str, layer: str, per: int) -> float:
        return tracer.self_ns(kind, layer) / slowdown / per / 1e6

    def mean(values: list[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    metrics = {
        "xmltree.parse_us_per_doc": self_ms("publish", "xmltree", docs) * 1e3,
        "routing.table.match_ms_per_doc": match_ns / docs / 1e6,
        "routing.table.match_calls_per_doc": tracer.calls("publish", *match_names)
        / docs,
        "routing.table.update_ms_per_pair": self_ms("churn", "routing.table", pairs),
        "routing.trie.ops_per_doc": traced.trie_ops / docs,
        "routing.trie.ns_per_op": match_ns / traced.trie_ops if traced.trie_ops else 0.0,
        # The table keeps its trie private; a refactor that drops the
        # attribute reads as 0 here rather than breaking the benchmark.
        "routing.trie.nodes": float(
            sum(
                getattr(getattr(node.table, "_trie", None), "node_count", 0)
                for node in overlay.brokers.values()
            )
        ),
        "routing.trie.batch_hit_rate": (
            batch.get("memo_hits", 0) / lookups if lookups else 0.0
        ),
        "routing.overlay.route_self_ms_per_doc": self_ms(
            "publish", "routing.overlay", docs
        ),
        "routing.overlay.churn_self_ms_per_pair": self_ms(
            "churn", "routing.overlay", pairs
        ),
        "routing.overlay.forwards_per_doc": traced.forwards / docs,
        "routing.overlay.deliveries_per_doc": traced.score.delivered / docs,
        "routing.overlay.ad_messages_per_pair": traced.ad_messages / pairs,
        "routing.community.cluster_calls_per_pair": churn_calls(
            "routing.community:policy.leader_clustering"
        ),
        "core.similarity.joint_calls_per_pair": churn_calls(
            "core.similarity:SimilarityIndex.joint_selectivity"
        ),
        "core.similarity.joint_evaluated_per_pair": evaluated / pairs,
        "core.similarity.candidate_pruned_per_pair": candidate_pruned / pairs,
        "core.similarity.prune_ratio": pruned / decided if decided else 0.0,
        "core.similarity.memo_size": float(sum(index.memo_size for index in indexes)),
        "core.selectivity.probes_per_pair": churn_calls(
            *(
                f"core.selectivity:SelectivityEstimator.{name}"
                for name in ("selectivity", "joint_selectivity", "matching_view")
            )
        ),
        "core.candidates.lsh_calls_per_pair": churn_calls(
            *(
                f"core.candidates:LSHCandidates.{name}"
                for name in ("add", "discard", "candidates_of", "is_candidate")
            )
        ),
        "synopsis.inserts": float(
            tracer.calls("setup", "synopsis:DocumentSynopsis.insert_document")
        ),
        "routing.engine.mean_batch_size": serviced / batches if batches else 0.0,
        "routing.engine.peak_queue_depth": float(
            max((episode[2] for episode in episodes), default=0)
        ),
        "routing.engine.sim_latency_p50": mean([episode[3] for episode in episodes]),
        "routing.engine.sim_latency_p99": mean([episode[4] for episode in episodes]),
    }
    for layer in LAYERS:
        metrics[f"{layer}.stream_share"] = share(
            layer, stream_wall, "publish", "churn"
        )
    for layer in SETUP_LAYERS:
        metrics[f"{layer}.setup_share"] = share(layer, setup_wall, "setup")
    covered = sum(
        tracer.self_ns(kind, layer) for kind in ("publish", "churn") for layer in LAYERS
    )
    metrics["trace.coverage"] = covered / stream_wall if stream_wall else 0.0
    metrics["trace.overhead_ratio"] = traced.busy_s / untraced.busy_s - 1.0
    metrics["trace.spans"] = float(len(tracer.spans))
    return metrics
