"""The candidate-generation subsystem: exact oracle and LSH.

Covers the generator contract (population lifecycle, symmetry,
duplicate-key rejection), the label-overlap prefilter semantics (empty
label sets are never pruned), the LSH bucket-table maintenance under
churn, and the integration points: the ``SimilarityIndex(candidates=...)``
population, and the heap-based ``top_k``.
"""

import pytest

from repro.core.candidates import ExactCandidates, LSHCandidates, pattern_tokens
from repro.core.pattern_parser import parse_xpath
from repro.core.similarity import SimilarityEstimator, SimilarityIndex
from repro.xmltree.corpus import DocumentCorpus

P = parse_xpath

PATTERNS = [P("/a/b"), P("/a/c/e"), P("//d/e"), P("/a/b[c]"), P("//*")]


@pytest.fixture()
def corpus(figure2_documents):
    return DocumentCorpus(figure2_documents)


class TestExactCandidates:
    def test_every_pair_is_a_candidate(self):
        generator = ExactCandidates()
        for key, pattern in enumerate(PATTERNS):
            generator.add(key, pattern)
        assert len(generator) == len(PATTERNS)
        n = len(PATTERNS)
        for pattern in PATTERNS:
            assert generator.candidates_of(pattern) == set(range(n))
        assert generator.candidates_of(P("/z")) == set(range(n))
        assert generator.is_candidate(P("/a"), P("/z"))

    def test_duplicate_key_rejected(self):
        generator = ExactCandidates()
        generator.add(1, P("/a"))
        with pytest.raises(ValueError):
            generator.add(1, P("/b"))

    def test_discard(self):
        generator = ExactCandidates()
        generator.add(1, P("/a"))
        assert generator.discard(1) is True
        assert generator.discard(1) is False
        assert len(generator) == 0

    def test_spawn_is_empty_with_same_config(self):
        template = ExactCandidates(prefilter_labels=True)
        template.add(1, P("/a"))
        fresh = template.spawn()
        assert len(fresh) == 0
        assert fresh.prefilter_labels is True

    def test_label_prefilter_drops_disjoint_vocabularies(self):
        generator = ExactCandidates(prefilter_labels=True)
        generator.add("ab", P("//a/b"))
        generator.add("cd", P("//c/d"))
        generator.add("bx", P("//b"))
        assert generator.candidates_of(P("//a/b")) == {"ab", "bx"}
        assert generator.candidates_of(P("//b")) == {"ab", "bx"}
        assert generator.candidates_of(P("//c/d")) == {"cd"}
        assert generator.candidates_of(P("//d")) == {"cd"}
        assert not generator.is_candidate(P("//a"), P("//c"))

    def test_pure_wildcard_patterns_are_never_prefiltered(self):
        generator = ExactCandidates(prefilter_labels=True)
        generator.add("star", P("//*"))
        generator.add("cd", P("//c/d"))
        assert generator.candidates_of(P("//*")) == {"star", "cd"}
        assert generator.candidates_of(P("//c/d")) == {"star", "cd"}
        # A vocabulary disjoint from //c/d still pairs with the wildcard.
        assert generator.candidates_of(P("//e")) == {"star"}
        assert generator.is_candidate(P("//*"), P("//c/d"))

    def test_equal_patterns_always_candidates(self):
        generator = ExactCandidates(prefilter_labels=True)
        assert generator.is_candidate(P("//a"), P("//a"))

    def test_describe(self):
        assert ExactCandidates().describe() == "exact"
        assert "prefilter" in ExactCandidates(prefilter_labels=True).describe()


class TestLSHCandidates:
    def test_signatures_are_deterministic_across_instances(self):
        first = LSHCandidates(bands=8, rows=3, seed=4)
        second = LSHCandidates(bands=8, rows=3, seed=4)
        for pattern in PATTERNS:
            assert first.signature(pattern) == second.signature(pattern)
            assert len(first.signature(pattern)) == 24

    def test_different_seeds_differ(self):
        a = LSHCandidates(seed=0).signature(P("/a/b/c"))
        b = LSHCandidates(seed=1).signature(P("/a/b/c"))
        assert a != b

    def test_equal_patterns_always_collide(self):
        generator = LSHCandidates(bands=4, rows=4)
        assert generator.is_candidate(P("/a/b"), P("/a/b"))

    def test_population_maintenance_under_churn(self):
        generator = LSHCandidates(bands=8, rows=2)
        generator.add("x", P("/a/b"))
        generator.add("y", P("/a/b"))
        generator.add("z", P("//q/r/s"))
        # Identical patterns share every band bucket.
        assert {"x", "y"} <= generator.candidates_of(P("/a/b"))
        assert generator.discard("y") is True
        assert generator.discard("y") is False
        assert "x" in generator.candidates_of(P("/a/b"))
        assert "y" not in generator.candidates_of(P("/a/b"))
        assert "y" not in generator.candidates_of(P("//q/r/s"))
        assert len(generator) == 2
        # Buckets hold no retired keys.
        assert all(
            "y" not in bucket for bucket in generator._buckets.values()
        )

    def test_duplicate_key_rejected(self):
        generator = LSHCandidates()
        generator.add(1, P("/a"))
        with pytest.raises(ValueError):
            generator.add(1, P("/b"))

    def test_candidates_of_agrees_with_is_candidate(self):
        generator = LSHCandidates(bands=6, rows=2, seed=2)
        population = {key: pattern for key, pattern in enumerate(PATTERNS)}
        for key, pattern in population.items():
            generator.add(key, pattern)
        for probe in PATTERNS + [P("//x"), P("/a/b/c/d")]:
            reported = generator.candidates_of(probe)
            truth = {
                key
                for key, pattern in population.items()
                if generator.is_candidate(probe, pattern)
            }
            # candidates_of is bucket-driven: it may miss the p == q
            # shortcut for patterns outside the population but must agree
            # for members.
            assert reported == {
                key
                for key in truth
                if any(
                    band_id in generator._bucket_ids[key]
                    for band_id in generator._band_ids(probe)
                )
            }

    def test_spawn_shares_signature_memo(self):
        template = LSHCandidates(bands=8, rows=2, seed=7)
        clone = template.spawn()
        assert clone._signature_memo is template._signature_memo
        template.signature(P("/a/b"))
        assert P("/a/b") in clone._signature_memo
        assert len(clone) == 0

    def test_degenerate_config_collides_everything(self):
        generator = LSHCandidates.degenerate()
        for key, pattern in enumerate(PATTERNS):
            generator.add(key, pattern)
        n = len(PATTERNS)
        for pattern in PATTERNS + [P("//zz")]:
            assert generator.candidates_of(pattern) == set(range(n))
        for p in PATTERNS:
            for q in PATTERNS:
                assert generator.is_candidate(p, q)
        assert generator.is_candidate(P("/a"), P("//zz"))

    def test_signature_fn_length_validated(self):
        generator = LSHCandidates(bands=2, rows=2, signature_fn=lambda p: (0,))
        with pytest.raises(ValueError):
            generator.signature(P("/a"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LSHCandidates(bands=0)
        with pytest.raises(ValueError):
            LSHCandidates(rows=0)

    def test_bucket_sizes_and_describe(self):
        generator = LSHCandidates(bands=4, rows=2)
        generator.add(1, P("/a/b"))
        generator.add(2, P("/a/b"))
        sizes = generator.bucket_sizes()
        assert sizes and sizes[0] == 2
        assert generator.describe() == "lsh(bands=4, rows=2)"
        assert "custom" in LSHCandidates.degenerate().describe()

    def test_tokens_mix_labels_and_spines(self):
        tokens = pattern_tokens(P("/a/b[c]"))
        kinds = {token[0] for token in tokens}
        assert kinds == {"label", "spine"}

    def test_custom_token_source(self):
        # Shingle by tag set only: /a/b and //b//a share both tokens, so
        # they collide in every band; /c shares none, so in no band.
        generator = LSHCandidates(
            bands=4, rows=2, tokens=lambda p: sorted(p.tags())
        )
        assert generator.is_candidate(P("/a/b"), P("//b//a"))
        assert not generator.is_candidate(P("/a/b"), P("/c"))
        spawned = generator.spawn()
        assert spawned.tokens is generator.tokens
        assert spawned._signature_memo is generator._signature_memo
        assert "custom-tokens" in generator.describe()

    def test_token_free_pattern_gets_sentinel_signature(self):
        generator = LSHCandidates(bands=2, rows=2, tokens=lambda p: [])
        assert generator.signature(P("/a")) == generator.signature(P("/b"))
        assert generator.is_candidate(P("/a"), P("/b"))


class TestIndexCandidateGate:
    def test_population_stays_in_sync(self, corpus):
        generator = LSHCandidates(bands=4, rows=2)
        index = SimilarityIndex(corpus, candidates=generator)
        first = index.add(P("//b"))
        index.add(P("//e"))
        assert len(generator) == 2
        index.remove(first)
        assert len(generator) == 1

    def test_exact_candidates_change_nothing(self, corpus):
        patterns = [P("//b"), P("//e"), P("/a/d")]
        plain = SimilarityIndex(corpus, patterns)
        gated = SimilarityIndex(
            corpus, patterns, candidates=ExactCandidates()
        )
        for p, g in zip(plain.handles(), gated.handles(), strict=True):
            assert plain.row(p) == gated.row(g)
        assert gated.stats.candidate_pruned == 0


class TestHeapTopK:
    def baseline(self, scored, k):
        ordered = sorted(scored, key=lambda pair: (-pair[1], pair[0]))
        return ordered[:k]

    def test_index_top_k_matches_full_sort(self, corpus):
        patterns = [P("//b"), P("//e"), P("/a/d"), P("/a/c"), P("//m")]
        index = SimilarityIndex(corpus, patterns)
        anchor = index.handles()[0]
        row = index.row(anchor)
        scored = [(h, v) for h, v in row.items() if h != anchor]
        for k in (1, 2, len(patterns) + 5):
            assert index.top_k(anchor, k) == self.baseline(scored, k)

    def test_estimator_top_k_matches_full_sort(self, corpus):
        estimator = SimilarityEstimator(corpus)
        candidates = [P("//e"), P("/a/d"), P("/a/c"), P("//m")]
        scored = [
            (index, estimator.similarity(P("//b"), candidate))
            for index, candidate in enumerate(candidates)
        ]
        assert estimator.top_k(P("//b"), candidates, k=3) == self.baseline(
            scored, 3
        )
