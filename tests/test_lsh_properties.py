"""Property suite pinning the candidate subsystem to the exact oracle.

The headline guarantees of the LSH candidate-generation PR:

* the **degenerate** LSH configuration (one band, one row, constant
  signature — every pair collides) reproduces exact leader clustering
  bit-for-bit;
* :class:`~repro.core.candidates.ExactCandidates`-gated leader
  clustering is identical to the un-gated code path;
* :class:`~repro.core.candidates.LSHCandidates` maintained **under
  churn** (any interleaving of adds and removes) ends in exactly the
  state of a fresh build over the survivors;
* its pairwise gate ``is_candidate`` answers exactly as comparing the
  two signatures band slice by band slice.

Similarity here is label-set Jaccard — deterministic, cheap, and enough
to exercise every tie-break the clustering makes.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import ExactCandidates, LSHCandidates
from repro.core.pattern_parser import parse_xpath
from repro.routing.community import leader_clustering
from tests.strategies import property_max_examples, tree_patterns


def label_jaccard(p, q) -> float:
    """Deterministic toy similarity: Jaccard over plain-tag label sets."""
    tags_p, tags_q = p.tags(), q.tags()
    if not tags_p and not tags_q:
        return 1.0
    union = tags_p | tags_q
    return len(tags_p & tags_q) / len(union)


def shape(patterns, threshold, candidates=None):
    """The communities of *patterns*, keyed by position."""
    return leader_clustering(
        dict(enumerate(patterns)), label_jaccard, threshold, candidates
    ).communities


pattern_lists = st.lists(tree_patterns(), min_size=0, max_size=10)


class TestDegenerateLshEqualsExact:
    @settings(max_examples=property_max_examples(40), deadline=None)
    @given(
        patterns=pattern_lists,
        threshold=st.sampled_from((0.0, 0.3, 0.5, 0.8, 1.0)),
    )
    def test_leader_clustering(self, patterns, threshold):
        degenerate = shape(patterns, threshold, LSHCandidates.degenerate())
        assert degenerate == shape(patterns, threshold)


class TestExactGateIsIdentity:
    @settings(max_examples=property_max_examples(40), deadline=None)
    @given(
        patterns=pattern_lists,
        threshold=st.sampled_from((0.0, 0.3, 0.5, 0.8, 1.0)),
    )
    def test_leader_clustering(self, patterns, threshold):
        gated = shape(patterns, threshold, ExactCandidates())
        assert gated == shape(patterns, threshold)


class TestLshChurnEqualsRebuild:
    @settings(max_examples=property_max_examples(40), deadline=None)
    @given(
        patterns=st.lists(tree_patterns(), min_size=1, max_size=12),
        removals=st.sets(st.integers(min_value=0, max_value=11)),
        data=st.data(),
    )
    def test_interleaved_churn(self, patterns, removals, data):
        template = LSHCandidates(bands=6, rows=2, seed=1)
        churned = template.spawn()
        # Interleave: every pattern is added; a chosen subset is removed
        # at a random later point (possibly after further adds).
        pending = []
        for key, pattern in enumerate(patterns):
            churned.add(key, pattern)
            if key in removals:
                pending.append(key)
            while pending and data.draw(st.booleans()):
                churned.discard(pending.pop(0))
        for key in pending:
            churned.discard(key)

        survivors = [
            (key, pattern)
            for key, pattern in enumerate(patterns)
            if key not in removals
        ]
        fresh = template.spawn()
        for key, pattern in survivors:
            fresh.add(key, pattern)

        assert len(churned) == len(fresh)
        assert churned._buckets == fresh._buckets
        for _, pattern in survivors:
            assert churned.candidates_of(pattern) == fresh.candidates_of(
                pattern
            )

    @settings(max_examples=property_max_examples(25), deadline=None)
    @given(patterns=st.lists(tree_patterns(), min_size=1, max_size=8))
    def test_drain_and_refill(self, patterns):
        generator = LSHCandidates(bands=4, rows=2, seed=3)
        for key, pattern in enumerate(patterns):
            generator.add(key, pattern)
        for key in range(len(patterns)):
            assert generator.discard(key) is True
        assert len(generator) == 0
        assert generator._buckets == {}
        # The drained generator accepts the population again unchanged.
        for key, pattern in enumerate(patterns):
            generator.add(key, pattern)
        fresh = generator.spawn()
        for key, pattern in enumerate(patterns):
            fresh.add(key, pattern)
        assert generator._buckets == fresh._buckets


def band_slice_candidate(sig_p, sig_q, bands, rows) -> bool:
    """The pairwise gate as band slices: some band's rows all agree."""
    return any(
        sig_p[band * rows : (band + 1) * rows]
        == sig_q[band * rows : (band + 1) * rows]
        for band in range(bands)
    )


@st.composite
def signature_pairs(draw):
    """A band and row count and two signatures of that length, over a
    small alphabet so that rows and whole bands often agree."""
    bands = draw(st.integers(min_value=1, max_value=6), label="bands")
    rows = draw(st.integers(min_value=1, max_value=4), label="rows")
    values = st.lists(
        st.integers(min_value=0, max_value=2),
        min_size=bands * rows,
        max_size=bands * rows,
    )
    return bands, rows, tuple(draw(values)), tuple(draw(values))


class TestPairwiseGate:
    P, Q = parse_xpath("/a"), parse_xpath("/b")

    @settings(max_examples=property_max_examples(100), deadline=None)
    @given(signature_pairs())
    def test_is_candidate_equals_band_slices(self, drawn):
        bands, rows, sig_p, sig_q = drawn
        signatures = {self.P: sig_p, self.Q: sig_q}
        generator = LSHCandidates(
            bands=bands, rows=rows, signature_fn=signatures.__getitem__
        )
        expected = band_slice_candidate(sig_p, sig_q, bands, rows)
        assert generator.is_candidate(self.P, self.Q) is expected
        assert generator.is_candidate(self.Q, self.P) is expected
