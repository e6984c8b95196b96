"""Candidate-pair generation for similarity evaluation past the O(n²) wall.

Community formation (``leader_clustering`` and
``advertise(CommunityPolicy)``) is gated on pairwise pattern similarity,
and every similarity evaluation costs a joint-selectivity probe — the
dominant cost the :class:`~repro.core.similarity.SimilarityIndex` memo
amortises but cannot avoid.  Comparing every pattern with every other is
quadratic in the subscription population, which is infeasible at the
10⁵–10⁶ scale the paper's routing results target.  This module makes the
candidate set a first-class, swappable stage, queried one pattern at a
time — never enumerated as all pairs:

* :class:`ExactCandidates` — the all-pairs oracle (every pair is a
  candidate), optionally prefiltered by label-set overlap;
* :class:`LSHCandidates` — banded MinHash locality-sensitive hashing
  (as in "Similarity Search and Locality Sensitive Hashing using
  TCAMs"): each pattern is shingled into its tag *label set* plus its
  merged-trie *spine prefixes* (the structural-similarity seeds PR 6's
  trie exposed), MinHash-signed, and bucketed per band — only patterns
  colliding in at least one band become candidates.  Tunable
  ``bands × rows`` trades recall against candidate-set size, and the
  bucket tables are maintained incrementally under add/remove churn so
  the generator composes with the subscription lifecycle.

A generator instance doubles as its own *template*: :meth:`spawn` clones
the configuration with an empty population (sharing the signature memo,
which depends only on the configuration), which is how each broker of an
overlay — and each clustering pass — gets a private population without
recomputing signatures.

Consumers: ``leader_clustering(candidates=...)`` compares a pattern
only against the leaders among its candidates, held by a spawn it
fills with the leaders it founds, and ``CommunityPolicy(candidates=...)``
carries a template into every broker of an overlay, whose clustering
record keeps that spawn of the broker's current leaders to answer each
churn placement with one ``candidates_of`` lookup.  Those two decide
which pairs are compared; the similarity index they ask is never asked
about any other pair.
"""

from __future__ import annotations

import random
from hashlib import blake2b
from operator import eq
from typing import Callable, Hashable, Iterable, Optional, Protocol, Sequence

from repro.core.pattern import TreePattern

__all__ = [
    "CandidateGenerator",
    "ExactCandidates",
    "LSHCandidates",
    "pattern_tokens",
]

#: Modulus of the universal hash family: the Mersenne prime 2^61 - 1.
_MERSENNE = (1 << 61) - 1

#: Stable 64-bit token hashes, shared process-wide (tokens are values).
_TOKEN_HASHES: dict = {}

#: Pattern label sets, shared process-wide (patterns are immutable).
_LABEL_SETS: dict[TreePattern, frozenset[str]] = {}


def _token_hash(token: tuple) -> int:
    """A stable (process- and seed-independent) 64-bit hash of one token.

    Python's builtin ``hash`` is salted per process for strings, which
    would make signatures — and therefore communities — irreproducible
    across runs; blake2b is stable and cached per distinct token.
    """
    cached = _TOKEN_HASHES.get(token)
    if cached is None:
        digest = blake2b(repr(token).encode(), digest_size=8).digest()
        cached = int.from_bytes(digest, "big")
        _TOKEN_HASHES[token] = cached
    return cached


def _label_set(pattern: TreePattern) -> frozenset[str]:
    """The pattern's plain tag labels, cached per distinct pattern."""
    cached = _LABEL_SETS.get(pattern)
    if cached is None:
        cached = pattern.tags()
        _LABEL_SETS[pattern] = cached
    return cached


def _spine_prefix_tokens(pattern: TreePattern) -> list[tuple]:
    """One token per prefix of the pattern's merged-trie spine.

    Reuses the trie's canonical spine decomposition — two patterns share
    a spine-prefix token exactly when they would share a trie node, so
    structurally similar patterns (the trie PR's community seeds) agree
    on a long prefix of these tokens.  Imported lazily: the candidate
    layer is core, the trie is routing, and only this shingle borrows
    from the upper layer.
    """
    from repro.routing.trie import _decompose

    steps, _gates = _decompose(pattern)
    spine: list[tuple[str, str]] = []
    tokens: list[tuple] = []
    for axis, label, _branches in steps:
        spine.append((axis, label))
        tokens.append(("spine", tuple(spine)))
    return tokens


def pattern_tokens(pattern: TreePattern) -> list[tuple]:
    """The shingle set MinHash signatures are computed over.

    Label tokens capture *what* the pattern talks about, spine-prefix
    tokens capture *how it is shaped*; their union makes both a shared
    vocabulary and a shared structure raise collision probability.
    """
    tokens: list[tuple] = [("label", tag) for tag in sorted(_label_set(pattern))]
    tokens.extend(_spine_prefix_tokens(pattern))
    return tokens


class CandidateGenerator(Protocol):
    """The pluggable candidate-pair stage of similarity evaluation.

    Keys are caller-chosen hashable handles (clustering positions,
    leader subscriber ids); the generator never interprets them.
    ``is_candidate`` must be symmetric, must hold for equal patterns,
    and must be a pure function of the two patterns — the population
    only feeds the query-side method ``candidates_of``.
    ``candidates_of(p)`` returns exactly the keys whose pattern *q*
    passes ``is_candidate(p, q)``: ``leader_clustering`` and a broker
    placing a member under churn gate by the first, a leader founded by
    a broker's repair tests the later members by the second, and nothing
    filters the pairs again, so the two must agree for a churned broker
    to cluster as a from-scratch one does.
    """

    def spawn(self) -> "CandidateGenerator":
        """A fresh, empty generator with this generator's configuration."""
        ...

    def add(self, key: Hashable, pattern: TreePattern) -> None:
        """Admit *pattern* to the population under *key*."""
        ...

    def discard(self, key: Hashable) -> bool:
        """Retire *key*; True when it was present."""
        ...

    def is_candidate(self, p: TreePattern, q: TreePattern) -> bool:
        """Whether the pair (p, q) is worth a similarity evaluation."""
        ...

    def candidates_of(self, pattern: TreePattern) -> set:
        """Keys of the population members whose pattern passes
        ``is_candidate(pattern, ·)`` — exactly those."""
        ...

    def describe(self) -> str:
        """A short label for reports and mode strings."""
        ...

    def __len__(self) -> int: ...


class ExactCandidates:
    """The all-pairs oracle: every pair is a candidate.

    This reproduces the historical behaviour bit for bit, and is the
    ground truth LSH recall is measured against.  With
    ``prefilter_labels=True`` the generator additionally drops pairs
    whose label sets are disjoint — the synopsis-overlap heuristic
    generalising the ``//``-free tag-disjointness prune.  It is a
    heuristic: two label-disjoint ``//``-patterns can share matching
    documents.  A pattern with an *empty* label set (pure wildcards)
    asserts nothing about vocabulary and is never pruned.
    """

    def __init__(self, prefilter_labels: bool = False) -> None:
        self.prefilter_labels = prefilter_labels
        self._patterns: dict[Hashable, TreePattern] = {}

    def spawn(self) -> "ExactCandidates":
        """A fresh, empty generator with the same configuration."""
        return ExactCandidates(prefilter_labels=self.prefilter_labels)

    def add(self, key: Hashable, pattern: TreePattern) -> None:
        """Register *pattern* under *key*; keys must be unique."""
        if key in self._patterns:
            raise ValueError(f"duplicate candidate key {key!r}")
        self._patterns[key] = pattern

    def discard(self, key: Hashable) -> bool:
        """Remove *key* if present; returns whether it was registered."""
        return self._patterns.pop(key, None) is not None

    def _labels_overlap(self, p: TreePattern, q: TreePattern) -> bool:
        labels_p = _label_set(p)
        labels_q = _label_set(q)
        # An empty label set (pure wildcard/descendant pattern) asserts
        # nothing about vocabulary, so it overlaps everything.
        return not labels_p or not labels_q or not labels_p.isdisjoint(labels_q)

    def is_candidate(self, p: TreePattern, q: TreePattern) -> bool:
        """Whether the pair survives the (optional) label prefilter."""
        if not self.prefilter_labels or p == q:
            return True
        return self._labels_overlap(p, q)

    def candidates_of(self, pattern: TreePattern) -> set:
        """Keys of every registered pattern that pairs with *pattern*."""
        if not self.prefilter_labels:
            return set(self._patterns)
        return {
            key
            for key, candidate in self._patterns.items()
            if self._labels_overlap(pattern, candidate)
        }

    def describe(self) -> str:
        """Short configuration label for benchmark output."""
        if self.prefilter_labels:
            return "exact(prefilter=labels)"
        return "exact"

    def __len__(self) -> int:
        return len(self._patterns)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(population={len(self._patterns)})"


class LSHCandidates:
    """Banded MinHash candidate generation over pattern signatures.

    Each pattern is shingled by :func:`pattern_tokens` (label set plus
    trie spine prefixes) and signed with ``bands × rows`` MinHash values
    from a seeded universal hash family; the signature is split into
    ``bands`` bands of ``rows`` values, and two patterns are candidates
    exactly when at least one band agrees.  For token-set Jaccard
    similarity *s*, the collision probability is the classic
    ``1 - (1 - s^rows)^bands`` S-curve: more rows sharpen the threshold,
    more bands raise recall.  The default 16 × 2 keeps recall above 0.99
    at Jaccard 0.5 while pruning the long dissimilar tail.

    Equal patterns have equal signatures, so duplicates always collide —
    LSH clustering degrades only on *near*-duplicate structure.  The
    bucket tables are plain dict[set] structures maintained per
    :meth:`add` / :meth:`discard`, so the generator rides along with
    subscription churn at O(bands) per event.

    The *default* shingles are structural, so candidate quality tracks
    *structural* similarity.  The paper's metrics are extensional —
    M3 scores two patterns by how much their **matching document sets**
    overlap, and structurally alien patterns (``/nitf`` vs ``//*``) can
    match exactly the same stream.  ``tokens`` swaps the shingle source:
    pass a callable returning any hashable tokens per pattern — most
    usefully the pattern's *synopsis matching-set sample ids* (see
    ``benchmarks/bench_lsh.py``), under which band-collision probability
    tracks the M3 similarity itself, because MinHash over matching-set
    samples estimates exactly the Jaccard quantity M3 measures.

    ``signature_fn`` swaps the MinHash for a caller-supplied signature
    (length ``bands × rows``); :meth:`degenerate` uses it to build the
    one-band, one-row constant-signature configuration under which every
    pair collides — the config that provably reproduces exact
    clustering, pinned by the property suite.

    Signatures depend only on the configuration, never on the
    population, so :meth:`spawn` shares the signature memo between a
    template and all its spawns (each broker's generator reuses
    signatures any other broker already computed).
    """

    def __init__(
        self,
        bands: int = 16,
        rows: int = 2,
        seed: int = 0,
        tokens: Optional[Callable[[TreePattern], Iterable[tuple]]] = None,
        signature_fn: Optional[Callable[[TreePattern], Sequence[int]]] = None,
        _shared: Optional[tuple] = None,
    ) -> None:
        if not isinstance(bands, int) or bands < 1:
            raise ValueError("bands must be an integer >= 1")
        if not isinstance(rows, int) or rows < 1:
            raise ValueError("rows must be an integer >= 1")
        self.bands = bands
        self.rows = rows
        self.seed = seed
        self.tokens = tokens
        self.signature_fn = signature_fn
        if _shared is None:
            rng = random.Random(seed)
            params = tuple(
                (rng.randrange(1, _MERSENNE), rng.randrange(_MERSENNE))
                for _ in range(bands * rows)
            )
            _shared = (params, {})
        self._shared = _shared
        self._params: Sequence[tuple[int, int]] = _shared[0]
        self._signature_memo: dict[TreePattern, tuple[int, ...]] = _shared[1]
        #: band bucket -> its keys, in a dict used as an ordered set.
        self._buckets: dict[tuple[int, tuple[int, ...]], dict[Hashable, None]] = {}
        #: key -> its band bucket ids, for O(bands) removal.
        self._bucket_ids: dict[Hashable, tuple[tuple[int, tuple[int, ...]], ...]] = {}

    @classmethod
    def degenerate(cls) -> "LSHCandidates":
        """The collide-everything configuration: one band, one row, and a
        constant (identity) signature — every pair lands in one bucket,
        so LSH-backed clustering equals exact clustering by construction.
        """
        return cls(bands=1, rows=1, signature_fn=lambda pattern: (0,))

    def spawn(self) -> "LSHCandidates":
        """A fresh, empty generator sharing hash parameters and memo."""
        return LSHCandidates(
            bands=self.bands,
            rows=self.rows,
            seed=self.seed,
            tokens=self.tokens,
            signature_fn=self.signature_fn,
            _shared=self._shared,
        )

    # -- signatures ----------------------------------------------------------

    def signature(self, pattern: TreePattern) -> tuple[int, ...]:
        """The pattern's MinHash signature (memoised per distinct pattern)."""
        cached = self._signature_memo.get(pattern)
        if cached is not None:
            return cached
        if self.signature_fn is not None:
            cached = tuple(self.signature_fn(pattern))
            if len(cached) != self.bands * self.rows:
                raise ValueError(
                    f"signature_fn must return bands*rows={self.bands * self.rows} "
                    f"values, got {len(cached)}"
                )
        else:
            source = self.tokens if self.tokens is not None else pattern_tokens
            token_hashes = [_token_hash(token) for token in source(pattern)]
            if not token_hashes:
                # A token-free pattern still needs a well-defined
                # signature; the sentinel collides all such patterns.
                token_hashes = [_token_hash(("no-tokens",))]
            cached = tuple(
                min((a * h + b) % _MERSENNE for h in token_hashes)
                for a, b in self._params
            )
        self._signature_memo[pattern] = cached
        return cached

    def _band_ids(
        self, pattern: TreePattern
    ) -> list[tuple[int, tuple[int, ...]]]:
        signature = self.signature(pattern)
        rows = self.rows
        return [
            (band, signature[band * rows : (band + 1) * rows])
            for band in range(self.bands)
        ]

    # -- population ----------------------------------------------------------

    def add(self, key: Hashable, pattern: TreePattern) -> None:
        """Insert *pattern* into its band buckets; keys must be unique."""
        if key in self._bucket_ids:
            raise ValueError(f"duplicate candidate key {key!r}")
        band_ids = tuple(self._band_ids(pattern))
        self._bucket_ids[key] = band_ids
        for band_id in band_ids:
            self._buckets.setdefault(band_id, {})[key] = None

    def discard(self, key: Hashable) -> bool:
        """Remove *key* from its buckets; returns whether it was present."""
        band_ids = self._bucket_ids.pop(key, None)
        if band_ids is None:
            return False
        for band_id in band_ids:
            bucket = self._buckets[band_id]
            del bucket[key]
            if not bucket:
                del self._buckets[band_id]
        return True

    # -- queries -------------------------------------------------------------

    def is_candidate(self, p: TreePattern, q: TreePattern) -> bool:
        """Whether at least one signature band of *p* and *q* agrees."""
        if p == q:
            return True
        # Row agreements, grouped into bands of ``rows`` by zipping one
        # iterator with itself: every pass runs in C.
        agreements = iter(map(eq, self.signature(p), self.signature(q)))
        return any(map(all, zip(*[agreements] * self.rows, strict=True)))

    def candidates_of(self, pattern: TreePattern) -> set:
        """Keys sharing at least one band bucket with *pattern*."""
        found: set = set()
        for band_id in self._band_ids(pattern):
            bucket = self._buckets.get(band_id)
            if bucket:
                found.update(bucket)
        return found

    def bucket_sizes(self) -> list[int]:
        """Occupied-bucket sizes, for load diagnostics and benchmarks."""
        return sorted((len(bucket) for bucket in self._buckets.values()), reverse=True)

    def describe(self) -> str:
        """Short configuration label for benchmark output."""
        if self.signature_fn is not None:
            return f"lsh(bands={self.bands}, rows={self.rows}, custom-signature)"
        if self.tokens is not None:
            return f"lsh(bands={self.bands}, rows={self.rows}, custom-tokens)"
        return f"lsh(bands={self.bands}, rows={self.rows})"

    def __len__(self) -> int:
        return len(self._bucket_ids)

    def __repr__(self) -> str:
        return (
            f"LSHCandidates(bands={self.bands}, rows={self.rows}, "
            f"population={len(self._bucket_ids)}, buckets={len(self._buckets)})"
        )

