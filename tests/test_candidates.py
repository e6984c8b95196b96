"""The candidate-generation subsystem: exact oracle and LSH.

Covers the generator contract (population lifecycle, symmetry,
duplicate-key rejection), the label-overlap prefilter semantics (empty
label sets are never pruned), and the LSH bucket-table maintenance under
churn.
"""

import pytest

from repro.core.candidates import ExactCandidates, LSHCandidates, pattern_tokens
from repro.core.pattern_parser import parse_xpath

P = parse_xpath

PATTERNS = [P("/a/b"), P("/a/c/e"), P("//d/e"), P("/a/b[c]"), P("//*")]


#: ``LSHCandidates(seed=0).signature`` of NITF patterns under the default
#: structural tokens (label set plus trie spine prefixes).
STRUCTURAL_SIGNATURES = {
    "/nitf/head/title": (
        473370426010310636, 351000415356809021, 373521480254169859,
        147707944025931092, 388548938236430141, 449223529674438266,
        260213446148268683, 392374601837382264, 62405889883530396,
        298096734721742540, 328074053254224551, 22884225867336661,
        502950590878549626, 264499325660734183, 39580611556355296,
        822348758985012719, 132660516098214651, 111337974095837046,
        322912628274953255, 797314986191249210, 271951035076460964,
        43692286844342015, 656538729075490751, 549179742995305780,
        531483172687447797, 842227179265567896, 19197725826197923,
        314899146547662914, 251996540566417757, 293479473306147619,
        141803590708842093, 46293783535646887,
    ),
    "//body.content//p": (
        371893108601656391, 28045102809842787, 405617445059425798,
        42832831360356639, 479656650169514880, 191341903235156158,
        101005458082634108, 132998475393247393, 244577189276534519,
        749890512591638872, 129224371583918036, 783792124482349876,
        133707929390519454, 416687981381522742, 1622345756585611681,
        204283311796680189, 171974787729881671, 101462389382966610,
        116223573294758531, 27758756613502174, 838900645601311478,
        744086048153341175, 341398594576074349, 751140687342727237,
        257654136690630066, 382661503902222684, 227015001112555631,
        314287079531823156, 699347761129636320, 315283631714036729,
        1040989150771858357, 1037063084969832985,
    ),
    "/nitf[head/meta]/body/body.head/hl1": (
        387860021214704856, 332239068815411806, 193245244814308638,
        10775487308110469, 388548938236430141, 446406833162985051,
        260213446148268683, 288346689137617285, 151560876628086482,
        58503192675828622, 328074053254224551, 21328993390961720,
        130088511214257167, 180888369357058866, 39580611556355296,
        56449544935655232, 233010175379757704, 111337974095837046,
        150003809984911452, 45602834174658068, 75979995148318606,
        114852854010925225, 143648871156481317, 120959688784910898,
        192568413064736521, 21562651672165514, 5212808882601104,
        125553595085693081, 72879410244570146, 47363526207557614,
        74992337057215048, 9522707529568690,
    ),
}

#: The same signature of ``/nitf/head/title`` shingled by its tag names.
TAG_SIGNATURE = (
    724568100376752443, 376922719228623270, 1114868513224688487,
    871127754447523742, 262061578494911467, 931716237984026970,
    90432039252478658, 438017572765953988, 10804698260961481,
    1408950252723882144, 172369104153757493, 268002763757489967,
    718016982484692793, 317828938364786604, 79267532494378190,
    258656353615456966, 719916827260950954, 2082874467454863778,
    1519995327496419547, 588066787373810529, 575773739052998278,
    223753164089229670, 1970298238192748354, 391109580285643809,
    237008326798526155, 727625388652954426, 654610377106163398,
    26100519393336112, 455212395290979174, 400315042992585549,
    1701907267128059849, 1919177091389460239,
)

#: The signature every token-free pattern shares.
SENTINEL_SIGNATURE = (
    1269528115305292993, 1929377977348127727, 263474135420402673,
    682479590207769084, 494878343373558632, 1789510055663467595,
    46967978326059687, 2218808376867245353, 2165373404337670907,
    843169730305863335, 311482882521725204, 319301674362355583,
    1563283824972095181, 1673251460305377946, 1110345555590125778,
    46720176851806848, 1278231571878050414, 156110854887975410,
    1410800079396211810, 1710260636387688202, 525157969499508958,
    427374722866952142, 2134026470892891204, 1376535918368132749,
    2248837096535772034, 1959213525613063360, 9241073390380118,
    541958664625552097, 398500436204954610, 52833479077040080,
    1782604377182799186, 1722513603197680190,
)


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

    @pytest.mark.parametrize("count", [2.5, 2.0, float("nan")])
    @pytest.mark.parametrize("name", ["bands", "rows"])
    def test_non_integer_band_shape_is_refused(self, name, count):
        with pytest.raises(ValueError, match=name):
            LSHCandidates(**{name: count})

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

    @pytest.mark.parametrize(
        ("tokens", "xpath", "expected"),
        [(None, xpath, values) for xpath, values in STRUCTURAL_SIGNATURES.items()]
        + [
            (lambda p: sorted(p.tags()), "/nitf/head/title", TAG_SIGNATURE),
            (lambda p: [], "/nitf", SENTINEL_SIGNATURE),
        ],
        ids=["structural-title", "structural-p", "structural-hl1", "tags", "sentinel"],
    )
    def test_signature_values_are_pinned(self, tokens, xpath, expected):
        # Communities are placed by these values, so a rewrite of the
        # MinHash must reproduce them, not just stay deterministic.
        assert LSHCandidates(seed=0, tokens=tokens).signature(P(xpath)) == expected
