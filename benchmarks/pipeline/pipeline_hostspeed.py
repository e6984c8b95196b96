"""Host speed: how fast the CPU runs plain Python right now.

The reference VM shares its host, and the speed it gives one process
swings by up to 2x within seconds and for minutes on end, on both vCPUs
at once.  Run to run, wall-clock metrics swung with it by up to 44%,
past any bound a regression check could use.  This module times three
fixed pure-Python kernels that never touch the library — a tree-pattern
walk over dicts and lists, pointer chasing through small objects, and
string tokenising — and :func:`slowdown` returns how much slower than on a
calm reference VM they ran, as the geometric mean of the three ratios.

The benchmark samples the slowdown before the first timed operation and
after each one, and divides an operation's wall time by the geometric
mean of the samples on either side of it: the operation's time at
reference speed.  Measured on the reference VM, dividing by the sample
after each operation cut the run-to-run spread of the closed-loop
timing metrics from 0.05-0.12 to 0.02-0.05 (interquartile range over
median, ten runs).  The kernels are part of the benchmark, so a change
to the library cannot change them.  A fourth kernel, dict lookups over a 15 MB table,
tracked the library so badly that it was left out.
"""

from __future__ import annotations

import math
import random
import time

_RNG = random.Random(20070415)
_TAGS = [f"t{i}" for i in range(24)]


class _Node:
    __slots__ = ("tag", "children")

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.children: list[_Node] = []


def _tree(size: int) -> _Node:
    nodes = [_Node(_RNG.choice(_TAGS))]
    for _ in range(size - 1):
        node = _Node(_RNG.choice(_TAGS))
        _RNG.choice(nodes).children.append(node)
        nodes.append(node)
    return nodes[0]


_FOREST = [_tree(60) for _ in range(4)]
_PATHS = [tuple(_RNG.sample(_TAGS, _RNG.randint(1, 4))) for _ in range(30)]


def _below(node: _Node, tag: str, found: list[_Node]) -> None:
    for child in node.children:
        if child.tag == tag:
            found.append(child)
        _below(child, tag, found)


def _match() -> int:
    """Index each tree by tag, then follow descendant paths through it."""
    hits = 0
    for tree in _FOREST:
        by_tag: dict[str, list[_Node]] = {}
        stack = [tree]
        while stack:
            node = stack.pop()
            by_tag.setdefault(node.tag, []).append(node)
            stack.extend(node.children)
        for path in _PATHS:
            frontier = by_tag.get(path[0], [])
            for tag in path[1:]:
                found: list[_Node] = []
                for node in frontier:
                    _below(node, tag, found)
                frontier = found
            hits += bool(frontier)
    return hits


class _Cell:
    __slots__ = ("key", "links")

    def __init__(self, key: int) -> None:
        self.key = key
        self.links: list[_Cell] = []


_CELLS = [_Cell(key) for key in range(20_000)]
for _cell in _CELLS:
    _cell.links = [_CELLS[_RNG.randrange(len(_CELLS))] for _ in range(3)]


def _chase() -> int:
    """Follow links through a 20 000-object graph."""
    cell = _CELLS[0]
    total = 0
    for _ in range(6_000):
        total += cell.key
        cell = cell.links[total % 3]
    return total


_TEXT = " ".join(
    f"<{tag} a='{_RNG.randrange(99)}'>w{_RNG.randrange(500)}</{tag}>"
    for tag in (_RNG.choice(_TAGS) for _ in range(300))
)


def _tokenise() -> int:
    """Count the element names of a fixed XML-like text."""
    counts: dict[str, int] = {}
    for token in _TEXT.split():
        head = token.partition(">")[0].lstrip("<")
        counts[head] = counts.get(head, 0) + 1
    return len(counts)


#: Kernel → its median milliseconds on the reference VM (2-vCPU Xeon,
#: Python 3.11) in a calm stretch.
REFERENCE_MS = {_match: 0.12, _chase: 0.30, _tokenise: 0.125}


def slowdown() -> float:
    """How much slower than the reference VM plain Python runs now: 1.0
    at reference speed, 2.0 at half of it.

    Each kernel runs twice and only the second call is timed, so the
    caches the benchmark's last operation evicted are warm again.
    """
    logs = 0.0
    for kernel, reference in REFERENCE_MS.items():
        kernel()
        started = time.perf_counter()
        kernel()
        logs += math.log((time.perf_counter() - started) * 1e3 / reference)
    return math.exp(logs / len(REFERENCE_MS))
