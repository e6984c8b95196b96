"""Out-of-process span recorder for the pipeline benchmark.

The library stays free of clocks (reprolint RL002), so the benchmark
times each layer from the outside: :class:`Tracer` swaps the public
entry points of every layer — class attributes such as
``RoutingTable.destinations_for`` and module-level import sites such as
``repro.routing.policy.leader_clustering`` — for timing wrappers, for
the duration of the traced run only, and puts the originals back
afterwards (:meth:`Tracer.restore` checks that it did).

Each wrapped call becomes a span ``(id, name, start, end, parent,
request kind, request index)`` kept in memory and written as JSON when
the run ends.  Hot inner calls (joint selectivity, LSH probes, table
updates during advertisement) are *folded*: they open no span of their
own, and their count and total time are added to the nearest enclosing
span instead, so the trace stays bounded however many of them a pass
makes.  A layer's self time is its calls' duration minus the part their
children (spans and folded calls alike) cover; :attr:`Tracer.totals`
keeps ``[calls, total ns, self ns]`` per ``(request kind, entry point)``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import FunctionType
from typing import Any, Iterator, Optional

#: The layers, in pipeline order; every :class:`Target` names one.
LAYERS = (
    "xmltree",
    "synopsis",
    "core.selectivity",
    "core.similarity",
    "core.candidates",
    "routing.community",
    "routing.table",
    "routing.overlay",
    "routing.engine",
)


@dataclass(frozen=True)
class Target:
    """One traced entry point: ``owner.attribute`` in *layer*."""

    layer: str
    owner: Any
    attribute: str
    #: Fold calls into the enclosing span as (count, time) instead of
    #: recording a span per call.
    fold: bool = False
    #: Integer attributes of the call's result summed per entry point
    #: (e.g. a batch match's memo hits).
    counters: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        """``layer:Owner.attribute`` — the span name."""
        return f"{self.layer}:{self.owner.__name__.rsplit('.', 1)[-1]}.{self.attribute}"


def library_targets() -> list[Target]:
    """Every entry point the traced run wraps, one or more per layer."""
    import repro.routing.policy as policy_module
    import repro.xmltree.parser as parser_module
    from repro.core.candidates import LSHCandidates
    from repro.core.selectivity import SelectivityEstimator
    from repro.core.similarity import SimilarityIndex
    from repro.routing.engine import DeliveryEngine
    from repro.routing.overlay import BrokerOverlay
    from repro.routing.table import RoutingTable
    from repro.synopsis.synopsis import DocumentSynopsis

    def folded(layer: str, owner: Any, *attributes: str) -> list[Target]:
        return [Target(layer, owner, name, fold=True) for name in attributes]

    return [
        Target("xmltree", parser_module, "parse_xml"),
        Target("synopsis", DocumentSynopsis, "insert_document"),
        *folded(
            "core.selectivity",
            SelectivityEstimator,
            "selectivity",
            "joint_selectivity",
            "matching_view",
        ),
        *folded(
            "core.similarity",
            SimilarityIndex,
            "__call__",
            "selectivity",
            "joint_selectivity",
        ),
        *folded(
            "core.candidates",
            LSHCandidates,
            "add",
            "discard",
            "candidates_of",
            "is_candidate",
        ),
        Target("routing.community", policy_module, "leader_clustering"),
        Target("routing.table", RoutingTable, "destinations_for"),
        Target(
            "routing.table",
            RoutingTable,
            "destinations_for_batch",
            counters=("memo_hits", "memo_misses"),
        ),
        *folded(
            "routing.table",
            RoutingTable,
            "add",
            "remove_pattern",
            "remove_destination",
        ),
        *[
            Target("routing.overlay", BrokerOverlay, name)
            for name in (
                "advertise",
                "route",
                "process_at",
                "process_batch_at",
                "subscribe",
                "unsubscribe",
            )
        ],
        Target("routing.engine", DeliveryEngine, "run"),
    ]


class Tracer:
    """Span recorder over a fixed set of wrapped entry points.

    Use as a context manager around the traced run: entering installs
    the wrappers, leaving restores the originals.  :meth:`request`
    opens the root span of one unit of benchmark work (the set-up, one
    published document, one resubscribe pair) so every layer span below
    it carries that request's kind and index.
    """

    #: Name of the root span :meth:`request` opens.
    ROOT = "bench"

    def __init__(self, targets: list[Target]) -> None:
        self.targets = targets
        self.layer_of = {target.name: target.layer for target in targets}
        #: Closed spans: [id, name, start ns, end ns, parent id,
        #: request kind, request index, {folded name: [count, ns]}].
        self.spans: list[list[Any]] = []
        #: (request kind, name) -> [calls, total ns, self ns].
        self.totals: dict[tuple[str, str], list[int]] = {}
        #: name -> {result attribute: summed value}.
        self.counters: dict[str, dict[str, int]] = {}
        self._stack: list[list[Any]] = []
        self._next_id = 0
        self._kind = "idle"
        self._index: Optional[int] = None
        self._installed: list[tuple[Target, Any]] = []

    # -- installation --------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def install(self) -> None:
        """Swap every target for its timing wrapper."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            original = vars(target.owner).get(target.attribute)
            if not isinstance(original, FunctionType):
                self.restore()
                raise TypeError(
                    f"cannot trace {target.name}: expected a plain function "
                    f"attribute, found {original!r}"
                )
            setattr(target.owner, target.attribute, self._wrap(target, original))
            self._installed.append((target, original))

    def restore(self) -> None:
        """Put every original back and check that it is in place."""
        while self._installed:
            target, original = self._installed.pop()
            setattr(target.owner, target.attribute, original)
            if vars(target.owner).get(target.attribute) is not original:
                raise RuntimeError(f"failed to restore {target.name}")

    # -- recording -----------------------------------------------------

    def _wrap(self, target: Target, fn: FunctionType) -> FunctionType:
        name = target.name
        fold = target.fold
        counters = target.counters
        stack = self._stack
        clock = time.perf_counter_ns
        close = self._close

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [None if fold else self._open(name), 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(name, frame, start, end)
            if counters:
                sums = self.counters.setdefault(name, {})
                for counter in counters:
                    sums[counter] = sums.get(counter, 0) + getattr(result, counter)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced  # type: ignore[return-value]

    def _open(self, name: str) -> list[Any]:
        """A new span record parented on the innermost open span."""
        parent = next(
            (frame[0][0] for frame in reversed(self._stack) if frame[0]),
            None,
        )
        self._next_id += 1
        return [self._next_id, name, 0, 0, parent, self._kind, self._index, {}]

    def _close(self, name: str, frame: list[Any], start: int, end: int) -> None:
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        total = self.totals.setdefault((self._kind, name), [0, 0, 0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[1]
        record = frame[0]
        if record is not None:
            record[2] = start
            record[3] = end
            self.spans.append(record)
            return
        for outer in reversed(self._stack):
            if outer[0]:
                folds = outer[0][7].setdefault(name, [0, 0])
                folds[0] += 1
                folds[1] += duration
                return

    @contextmanager
    def request(self, kind: str, index: Optional[int] = None) -> Iterator[None]:
        """Root span of one unit of benchmark work."""
        self._kind = kind
        self._index = index
        frame = [self._open(self.ROOT), 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._close(self.ROOT, frame, start, end)
            self._kind = "idle"
            self._index = None

    # -- reading -------------------------------------------------------

    def calls(self, kind: str, *names: str) -> int:
        """Calls of the entry points *names* under requests of *kind*."""
        return sum(self.totals.get((kind, name), (0, 0, 0))[0] for name in names)

    def self_ns(self, kind: str, layer: str) -> int:
        """Self time of *layer* under requests of *kind*."""
        return sum(
            total[2]
            for (total_kind, name), total in self.totals.items()
            if total_kind == kind and self.layer_of.get(name) == layer
        )

    def entry_self_ns(self, kind: str, *names: str) -> int:
        """Self time of the entry points *names* under *kind*."""
        return sum(self.totals.get((kind, name), (0, 0, 0))[2] for name in names)

    def wall_ns(self, kind: str) -> int:
        """Summed root-span duration of every request of *kind*."""
        return self.totals.get((kind, self.ROOT), (0, 0, 0))[1]

    def hits(self) -> dict[str, int]:
        """Calls per traced entry point over the whole run."""
        counts = {target.name: 0 for target in self.targets}
        for (_, name), total in self.totals.items():
            if name in counts:
                counts[name] += total[0]
        return counts

    def dump(self, path: Path) -> None:
        """Write the spans and per-entry-point totals as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "span_fields": [
                "id",
                "name",
                "start_ns",
                "end_ns",
                "parent",
                "request_kind",
                "request_index",
                "folded",
            ],
            "spans": self.spans,
            "totals": [
                {"kind": kind, "name": name, "calls": c, "ns": t, "self_ns": s}
                for (kind, name), (c, t, s) in sorted(self.totals.items())
            ],
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
