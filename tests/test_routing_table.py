"""Covering-aware broker routing tables."""

import pytest

from repro.core.containment import contains
from repro.core.pattern_parser import parse_xpath
from repro.routing.table import DELIVER, FORWARD, RoutingTable, TableEntry
from repro.xmltree.tree import XMLTree
from tests.test_broker_step_properties import reference_step


@pytest.fixture()
def document():
    # a(b(e(k)), d(e(m)))
    return XMLTree.from_nested(
        ("a", [("b", [("e", ["k"])]), ("d", [("e", ["m"])])]), doc_id=1
    )


class TestCoveringInsert:
    def test_plain_insert(self):
        table = RoutingTable()
        assert table.add(parse_xpath("/a/b"), "link-1")
        assert len(table) == 1

    def test_covered_insert_dropped(self):
        table = RoutingTable()
        table.add(parse_xpath("/a"), "link-1")
        # /a/b ⊑ /a: anything matching /a/b already routes over link-1.
        assert not table.add(parse_xpath("/a/b"), "link-1")
        assert len(table) == 1
        # The dropped insert is absorbed under /a, its flood stopped here.
        assert table.export_destination("link-1") == [
            (parse_xpath("/a"), False),
            (parse_xpath("/a/b"), True),
        ]

    def test_general_insert_evicts_covered(self):
        table = RoutingTable()
        table.add(parse_xpath("/a/b/e"), "link-1")
        table.add(parse_xpath("/a/b/f"), "link-1")
        assert table.add(parse_xpath("/a/b"), "link-1")
        assert len(table) == 1
        assert table.patterns_for("link-1") == [parse_xpath("/a/b")]
        # Both evicted entries are absorbed under /a/b, having flooded.
        assert table.export_destination("link-1") == [
            (parse_xpath("/a/b"), False),
            (parse_xpath("/a/b/e"), False),
            (parse_xpath("/a/b/f"), False),
        ]

    def test_duplicate_pattern_same_destination_dropped(self):
        table = RoutingTable()
        table.add(parse_xpath("//e"), "link-1")
        assert not table.add(parse_xpath("//e"), "link-1")
        assert len(table) == 1

    def test_covering_is_per_destination(self):
        table = RoutingTable()
        table.add(parse_xpath("/a"), "link-1")
        # The same narrow pattern must survive for a different destination.
        assert table.add(parse_xpath("/a/b"), "link-2")
        assert len(table) == 2

    def test_incomparable_patterns_coexist(self):
        table = RoutingTable()
        table.add(parse_xpath("/a/b"), "link-1")
        assert table.add(parse_xpath("/a/d"), "link-1")
        assert len(table) == 2

    def test_equivalent_patterns_keep_one_entry_in_either_order(self):
        # /a and /.[a][a] contain each other: the table keeps the one
        # that sorts first, whichever arrived first.
        plain, doubled = parse_xpath("/a"), parse_xpath("/.[a][a]")
        keeper = plain if plain.sorts_before(doubled) else doubled
        for order in ((plain, doubled), (doubled, plain)):
            table = RoutingTable()
            for pattern in order:
                table.add(pattern, "link-1")
            assert table.patterns_for("link-1") == [keeper]
            assert table.covers(plain, "link-1")
            assert table.covers(doubled, "link-1")


class TestMatching:
    def test_destinations_and_operation_count(self, document):
        # Per-pattern operation counts are the linear oracle's semantics.
        table = RoutingTable(matching="linear")
        table.add(parse_xpath("/a/b"), "link-1")
        table.add(parse_xpath("/a/q"), "link-2")
        match = table.destinations_for(document)
        assert match.destinations == ["link-1"]
        assert match.operations == 2

    def test_trie_mode_counts_trie_operations(self, document):
        table = RoutingTable()
        assert table.matching == "trie"
        table.add(parse_xpath("/a/b"), "link-1")
        table.add(parse_xpath("/a/q"), "link-2")
        match = table.destinations_for(document)
        assert match.destinations == ["link-1"]
        assert match.operations > 0

    def test_trie_and_linear_agree_per_call(self, document):
        table = RoutingTable()
        table.add(parse_xpath("/a/b"), "link-1")
        table.add(parse_xpath("/a/q"), "link-2")
        table.add(parse_xpath("//e"), "link-3")
        via_trie = table.destinations_for(document, matching="trie")
        via_linear = table.destinations_for(document, matching="linear")
        assert (
            via_trie.destinations
            == via_linear.destinations
            == ["link-1", "link-3"]
        )

    def test_unknown_matching_mode_rejected(self):
        with pytest.raises(ValueError):
            RoutingTable(matching="bloom")

    def test_unknown_per_call_matching_mode_rejected(self, document):
        # Misspelt, neither entry point falls back to the linear scan.
        table = RoutingTable()
        table.add(parse_xpath("/a"), "link-1")
        with pytest.raises(ValueError, match="unknown matching mode: 'tire'"):
            table.destinations_for(document, matching="tire")
        with pytest.raises(ValueError, match="unknown matching mode: 'Trie'"):
            table.destinations_for_batch([document], matching="Trie")

    def test_short_circuit_within_destination(self, document):
        table = RoutingTable(matching="linear")
        # Both match; one evaluation suffices to decide the destination.
        table.add(parse_xpath("/a/b"), "link-1")
        table.add(parse_xpath("/a/d"), "link-1")
        match = table.destinations_for(document)
        assert match.destinations == ["link-1"]
        assert match.operations == 1

    def test_exclude_skips_without_counting(self, document):
        table = RoutingTable(matching="linear")
        table.add(parse_xpath("/a/b"), "link-1")
        table.add(parse_xpath("/a/b"), "link-2")
        match = table.destinations_for(document, exclude=["link-1"])
        assert match.destinations == ["link-2"]
        assert match.operations == 1

    def test_exclude_skips_in_trie_mode(self, document):
        table = RoutingTable()
        table.add(parse_xpath("/a/b"), "link-1")
        table.add(parse_xpath("/a/b"), "link-2")
        match = table.destinations_for(document, exclude=["link-1"])
        destinations = match.destinations
        assert destinations == ["link-2"]

    def test_no_match_empty(self, document):
        table = RoutingTable(matching="linear")
        table.add(parse_xpath("/z"), "link-1")
        match = table.destinations_for(document)
        assert match.destinations == []
        assert match.operations == 1

    def test_destinations_in_table_order(self, document):
        # Deterministic dispatch: destinations come back in the order the
        # table first saw them, not in set-iteration (hash) order — in
        # both matching modes.
        for matching in ("trie", "linear"):
            table = RoutingTable(matching=matching)
            table.add(parse_xpath("/a/b"), "link-2")
            table.add(parse_xpath("/a/d"), "link-1")
            table.add(parse_xpath("/a"), "link-3")
            destinations = table.destinations_for(document).destinations
            assert destinations == ["link-2", "link-1", "link-3"], matching


class TestMaintenance:
    def test_remove_destination_returns_removed_patterns(self):
        table = RoutingTable()
        table.add(parse_xpath("/a/b"), "link-1")
        table.add(parse_xpath("/a/d"), "link-1")
        table.add(parse_xpath("/a"), "link-2")
        assert table.remove_destination("link-1") == [
            parse_xpath("/a/b"),
            parse_xpath("/a/d"),
        ]
        assert len(table) == 1
        assert table.destinations() == ["link-2"]
        assert table.remove_destination("missing") == []

    def test_remove_destination_returns_maximal_patterns_only(self):
        table = RoutingTable()
        table.add(parse_xpath("/a/b"), "link-1")
        table.add(parse_xpath("/a"), "link-1")  # evicts /a/b
        assert table.remove_destination("link-1") == [parse_xpath("/a")]

    def test_contains_reports_active_entries_only(self):
        table = RoutingTable()
        table.add(parse_xpath("/a"), "link-1")
        table.add(parse_xpath("/a/b"), "link-1")  # covered by /a
        assert parse_xpath("/a") in table
        assert parse_xpath("/a/b") not in table
        assert parse_xpath("/z") not in table
        assert "not a pattern" not in table

    def test_contains_follows_the_active_registrations(self):
        table = RoutingTable()
        table.add(parse_xpath("/a/b"), "link-1")
        table.add(parse_xpath("/a"), "link-2")
        table.add(parse_xpath("/a/b"), "link-2")  # absorbed under /a
        assert parse_xpath("/a/b") in table
        table.remove_pattern(parse_xpath("/a/b"), "link-1")
        # Still absorbed for link-2, but active nowhere.
        assert table.patterns_for("link-2") == [parse_xpath("/a")]
        assert parse_xpath("/a/b") not in table
        assert parse_xpath("/a") in table

    def test_clear_drops_entries_and_absorbed_instances(self, document):
        table = RoutingTable()
        table.add(parse_xpath("/a"), "link-1")
        table.add(parse_xpath("/a/b"), "link-1")
        table.destinations_for(document)
        table.clear()
        assert len(table) == 0
        assert table.destinations() == []
        assert table.export_destination("link-1") == []
        assert parse_xpath("/a") not in table
        match = table.destinations_for(document)
        assert match.destinations == [] and match.operations == 0

    def test_iteration_yields_entries(self):
        table = RoutingTable()
        table.add(parse_xpath("/a/b"), "link-1")
        entries = list(table)
        assert entries == [
            TableEntry(pattern=parse_xpath("/a/b"), destination="link-1")
        ]

    def test_repr_mentions_sizes(self):
        table = RoutingTable()
        table.add(parse_xpath("/a"), "link-1")
        assert "entries=1" in repr(table)


class TestRemovePattern:
    def test_remove_active_entry(self):
        table = RoutingTable()
        table.add(parse_xpath("/a/b"), "link-1")
        removed, restored = table.remove_pattern(parse_xpath("/a/b"), "link-1")
        assert removed and restored == []
        assert len(table) == 0
        assert table.destinations() == []

    def test_remove_unknown_is_noop(self):
        table = RoutingTable()
        table.add(parse_xpath("/a/b"), "link-1")
        assert table.remove_pattern(parse_xpath("/z"), "link-1") == (False, [])
        assert table.remove_pattern(parse_xpath("/a/b"), "link-9") == (False, [])
        assert len(table) == 1

    def test_removing_cover_restores_absorbed_insert(self):
        table = RoutingTable()
        table.add(parse_xpath("/a"), "link-1")
        table.add(parse_xpath("/a/b"), "link-1")  # covered, absorbed
        removed, restored = table.remove_pattern(parse_xpath("/a"), "link-1")
        assert removed and restored == [parse_xpath("/a/b")]
        assert table.patterns_for("link-1") == [parse_xpath("/a/b")]
        assert table.export_destination("link-1") == [(parse_xpath("/a/b"), False)]

    def test_removing_cover_restores_evicted_entries(self):
        table = RoutingTable()
        table.add(parse_xpath("/a/b/e"), "link-1")
        table.add(parse_xpath("/a/b/f"), "link-1")
        table.add(parse_xpath("/a/b"), "link-1")  # evicts both
        removed, restored = table.remove_pattern(parse_xpath("/a/b"), "link-1")
        assert removed
        # Evicted entries come back as active entries, but are *not*
        # reported for re-advertising: their floods had already propagated
        # before the eviction.
        assert restored == []
        assert sorted(table.patterns_for("link-1"), key=repr) == sorted(
            [parse_xpath("/a/b/e"), parse_xpath("/a/b/f")], key=repr
        )
        assert len(table.export_destination("link-1")) == 2

    def test_superseded_equivalent_returns_when_its_keeper_leaves(self):
        plain, doubled = parse_xpath("/a"), parse_xpath("/.[a][a]")
        keeper, other = (
            (plain, doubled) if plain.sorts_before(doubled) else (doubled, plain)
        )
        table = RoutingTable()
        table.add(other, "link-1")
        assert table.add(keeper, "link-1")  # takes the active slot
        assert table.export_destination("link-1") == [(keeper, False), (other, False)]
        removed, restored = table.remove_pattern(keeper, "link-1")
        # The superseded entry had already flooded onward: it comes back
        # active without being re-advertised.
        assert removed and restored == []
        assert table.patterns_for("link-1") == [other]

    def test_duplicate_instances_are_reference_counted(self):
        table = RoutingTable()
        table.add(parse_xpath("//e"), "link-1")
        table.add(parse_xpath("//e"), "link-1")  # duplicate, absorbed
        removed, restored = table.remove_pattern(parse_xpath("//e"), "link-1")
        assert (removed, restored) == (False, [])
        assert parse_xpath("//e") in table
        removed, restored = table.remove_pattern(parse_xpath("//e"), "link-1")
        assert (removed, restored) == (True, [])
        assert len(table) == 0

    def test_removing_absorbed_instance_keeps_cover(self):
        table = RoutingTable()
        table.add(parse_xpath("/a"), "link-1")
        table.add(parse_xpath("/a/b"), "link-1")  # absorbed under /a
        removed, restored = table.remove_pattern(parse_xpath("/a/b"), "link-1")
        assert (removed, restored) == (False, [])
        # The absorbed instance is gone: removing the cover restores nothing.
        removed, restored = table.remove_pattern(parse_xpath("/a"), "link-1")
        assert (removed, restored) == (True, [])
        assert len(table) == 0

    def test_eviction_transfers_absorbed_bookkeeping(self):
        table = RoutingTable()
        table.add(parse_xpath("/a/b/e"), "link-1")
        table.add(parse_xpath("/a/b/e/k"), "link-1")  # absorbed under /a/b/e
        table.add(parse_xpath("/a/b"), "link-1")  # evicts /a/b/e (and its cargo)
        assert table.patterns_for("link-1") == [parse_xpath("/a/b")]
        removed, restored = table.remove_pattern(parse_xpath("/a/b"), "link-1")
        assert removed
        # /a/b/e becomes active again (no re-advertising needed: it was
        # evicted, so its flood already propagated) and re-absorbs the
        # covered insert /a/b/e/k.
        assert restored == []
        assert table.patterns_for("link-1") == [parse_xpath("/a/b/e")]
        removed, restored = table.remove_pattern(parse_xpath("/a/b/e"), "link-1")
        # /a/b/e/k's flood died in this table, so now it must re-advertise.
        assert removed and restored == [parse_xpath("/a/b/e/k")]

    def test_removing_evicted_instance_continues_unadvertise(self):
        table = RoutingTable()
        table.add(parse_xpath("/a/b"), "link-1")  # propagated beyond
        table.add(parse_xpath("/a"), "link-1")    # evicts /a/b
        # The evicted instance had flooded through before the eviction, so
        # retiring it reports removed=True (the walk must continue) while
        # the covering entry stays.
        removed, restored = table.remove_pattern(parse_xpath("/a/b"), "link-1")
        assert (removed, restored) == (True, [])
        assert table.patterns_for("link-1") == [parse_xpath("/a")]
        # The cover now absorbs nothing: removing it restores nothing.
        removed, restored = table.remove_pattern(parse_xpath("/a"), "link-1")
        assert (removed, restored) == (True, [])
        assert len(table) == 0

    def test_compiled_matchers_pruned_with_retired_entries(self, document):
        # Matchers are compiled lazily by the linear scan only.
        table = RoutingTable(matching="linear")
        table.add(parse_xpath("/a/b"), "link-1")
        table.add(parse_xpath("/a/b"), "link-2")
        table.destinations_for(document)  # compiles the matcher
        assert len(table._matchers) == 1
        table.remove_pattern(parse_xpath("/a/b"), "link-1")
        # Still active for link-2: the compiled matcher stays cached.
        assert len(table._matchers) == 1
        table.remove_destination("link-2")
        assert table._matchers == {}

    def test_compiled_matchers_pruned_on_eviction(self, document):
        table = RoutingTable(matching="linear")
        table.add(parse_xpath("/a/b/e"), "link-1")
        table.destinations_for(document)
        assert len(table._matchers) == 1
        table.add(parse_xpath("/a/b"), "link-1")  # evicts /a/b/e
        assert parse_xpath("/a/b/e") not in table._matchers

    def test_restored_entry_may_be_reabsorbed_by_another_cover(self):
        table = RoutingTable()
        table.add(parse_xpath("/a/b/e"), "link-1")
        table.add(parse_xpath("/a/b"), "link-1")   # evicts /a/b/e
        table.add(parse_xpath("//e"), "link-1")    # incomparable with /a/b
        removed, restored = table.remove_pattern(parse_xpath("/a/b"), "link-1")
        assert removed
        # /a/b/e resurfaces but //e covers it, so it is not re-activated.
        assert restored == []
        assert sorted(table.patterns_for("link-1"), key=repr) == sorted(
            [parse_xpath("//e")], key=repr
        )


class TestTopologySurgery:
    """The primitives broker join/leave is built on."""

    def test_rename_destination_moves_actives_and_absorbed(self):
        table = RoutingTable()
        table.add(parse_xpath("/a"), "link-1")
        table.add(parse_xpath("/a/b"), "link-1")  # absorbed under /a
        table.add(parse_xpath("/a/c"), "link-1")  # absorbed under /a
        table.remove_pattern(parse_xpath("/a/c"), "link-1")  # builds the index
        assert table.rename_destination("link-1", "link-9")
        assert list(table._absorbed) == ["link-9"]
        assert table._absorbed["link-9"][parse_xpath("/a")].index is not None
        assert table.destinations() == ["link-9"]
        assert table.patterns_for("link-9") == [parse_xpath("/a")]
        # The reversible-covering record travelled with the rename.
        removed, restored = table.remove_pattern(parse_xpath("/a"), "link-9")
        assert removed and restored == [parse_xpath("/a/b")]

    def test_rename_missing_destination_is_noop(self):
        table = RoutingTable()
        assert not table.rename_destination("link-1", "link-2")
        assert len(table) == 0

    def test_rename_onto_existing_destination_rejected(self):
        table = RoutingTable()
        table.add(parse_xpath("/a"), "link-1")
        table.add(parse_xpath("/a/b"), "link-2")
        with pytest.raises(ValueError):
            table.rename_destination("link-1", "link-2")

    def test_seed_records_downstream_has_state(self):
        table = RoutingTable()
        table.seed(parse_xpath("/a"), "link-1")
        table.seed(parse_xpath("/a/b"), "link-1")  # absorbed, flag False
        removed, restored = table.remove_pattern(parse_xpath("/a"), "link-1")
        assert removed
        # /a/b becomes active but is NOT reported for re-advertising:
        # seeding promised its downstream state already exists.
        assert restored == []
        assert table.patterns_for("link-1") == [parse_xpath("/a/b")]

    def test_seed_with_pending_flood_flag_readvertises(self):
        table = RoutingTable()
        table.seed(parse_xpath("/a"), "link-1")
        table.seed(parse_xpath("/a/b"), "link-1", resume_flood=True)
        removed, restored = table.remove_pattern(parse_xpath("/a"), "link-1")
        assert removed and restored == [parse_xpath("/a/b")]

    def test_export_destination_lists_actives_then_absorbed(self):
        table = RoutingTable()
        table.add(parse_xpath("/a/b/e"), "link-1")
        table.add(parse_xpath("/a/b"), "link-1")   # evicts /a/b/e (False)
        table.add(parse_xpath("/a/b/f"), "link-1")  # covered insert (True)
        table.add(parse_xpath("//e"), "link-1")
        exported = table.export_destination("link-1")
        assert exported[: len(table.patterns_for("link-1"))] == [
            (parse_xpath("/a/b"), False),
            (parse_xpath("//e"), False),
        ]
        assert (parse_xpath("/a/b/e"), False) in exported
        assert (parse_xpath("/a/b/f"), True) in exported

    def test_export_then_seed_transplants_state(self):
        table = RoutingTable()
        table.add(parse_xpath("/a/b/e"), "link-1")
        table.add(parse_xpath("/a/b"), "link-1")
        table.add(parse_xpath("/a/b/f"), "link-1")
        clone = RoutingTable()
        for pattern, resume_flood in table.export_destination("link-1"):
            clone.seed(pattern, "link-1", resume_flood)
        assert clone.patterns_for("link-1") == table.patterns_for("link-1")
        # The clone replays the same resurrection behaviour: the covered
        # insert /a/b/f re-advertises, the evicted /a/b/e does not.
        removed, restored = clone.remove_pattern(parse_xpath("/a/b"), "link-1")
        assert removed and restored == [parse_xpath("/a/b/f")]

    def test_covers_probes_like_add(self):
        table = RoutingTable()
        table.add(parse_xpath("/a"), "link-1")
        assert table.covers(parse_xpath("/a/b"), "link-1")
        assert table.covers(parse_xpath("/a"), "link-1")
        assert not table.covers(parse_xpath("//e"), "link-1")
        assert not table.covers(parse_xpath("/a/b"), "link-2")

    def test_forwarded_instances_reflect_what_propagated(self):
        table = RoutingTable()
        table.add(parse_xpath("/a/b/e"), "link-1")  # active → propagated
        table.add(parse_xpath("/a/b"), "link-1")    # evicts: both went out
        table.add(parse_xpath("/a/b/f"), "link-1")  # covered: died here
        table.add(parse_xpath("//e"), "link-2")
        table.add(parse_xpath("/a/d"), ("deliver", (7,)))
        forwarded = table.forwarded_instances()
        assert forwarded.count(parse_xpath("/a/b")) == 1
        assert forwarded.count(parse_xpath("/a/b/e")) == 1
        assert parse_xpath("/a/b/f") not in forwarded
        assert parse_xpath("//e") in forwarded
        assert parse_xpath("/a/d") in forwarded
        # The excluded link contributes nothing.
        assert parse_xpath("//e") not in table.forwarded_instances(
            exclude=("link-2",)
        )

    def test_remove_destination_regression_no_residual_bookkeeping(
        self, document
    ):
        # The remove_broker path: dropping a link's destination must not
        # leave absorbed-instance records or cached matchers behind.
        table = RoutingTable()
        table.add(parse_xpath("/a/b"), "link-1")
        table.add(parse_xpath("/a"), "link-1")      # evicts /a/b
        table.add(parse_xpath("/a/d"), "link-1")    # covered insert
        table.add(parse_xpath("/a/e"), "link-1")    # covered insert
        table.remove_pattern(parse_xpath("/a/e"), "link-1")
        # The retirement index is built, inside /a's cover record.
        assert table._absorbed["link-1"][parse_xpath("/a")].index is not None
        table.add(parse_xpath("/a"), "link-2")
        table.destinations_for(document)            # compile matchers
        assert table.remove_destination("link-1") == [parse_xpath("/a")]
        # Retirement indexes live in the cover records, so no index
        # outlives them either.
        assert table._absorbed == {}
        assert "link-1" not in table._by_destination
        # /a stays cached (active for link-2); nothing else survives.
        assert set(table._matchers) <= {parse_xpath("/a")}
        # Re-adding the destination starts from a clean slate: the old
        # absorbed instances are gone for good.
        table.add(parse_xpath("/a"), "link-1")
        removed, restored = table.remove_pattern(parse_xpath("/a"), "link-1")
        assert removed and restored == []


def legacy_restore_order(candidates):
    """The pre-DAG O(k³) rescan picker, kept as the order oracle."""
    remaining = sorted(candidates, key=lambda item: item[1])
    ordered = []
    while remaining:
        pick = 0
        for position, (pattern, _) in enumerate(remaining):
            if not any(
                contains(other, pattern) and not contains(pattern, other)
                for index, (other, _) in enumerate(remaining)
                if index != position
            ):
                pick = position
                break
        ordered.append(remaining.pop(pick))
    return ordered


class TestRestoreOrderRegression:
    """The containment-DAG restore order against the legacy rescan."""

    def test_order_identical_to_legacy_rescan(self):
        chain = [parse_xpath("/a" + "/b" * depth) for depth in range(4)]
        candidates = [
            (chain[3], True),
            (chain[1], False),
            (parse_xpath("/c/d"), True),     # incomparable with the chain
            (chain[1], True),                # duplicate, flood flag differs
            (chain[2], True),
            (parse_xpath("//d"), False),     # contains /c/d
            (chain[0], True),
        ]
        assert RoutingTable._restore_order(candidates) == (
            legacy_restore_order(candidates)
        )

    def test_deep_absorption_chain_restores_in_quadratic_contains(
        self, monkeypatch
    ):
        depth = 100
        chain = [
            parse_xpath("/a" + "/b" * level) for level in range(depth)
        ]
        table = RoutingTable()
        for pattern in reversed(chain[1:]):
            table.add(pattern, "link-1")
        table.add(chain[0], "link-1")  # /a absorbs the whole chain
        assert table.patterns_for("link-1") == [chain[0]]

        calls = {"contains": 0}
        import repro.routing.table as table_module

        real_contains = table_module.contains

        def counting_contains(p, q):
            calls["contains"] += 1
            return real_contains(p, q)

        monkeypatch.setattr(table_module, "contains", counting_contains)
        removed, restored = table.remove_pattern(chain[0], "link-1")
        assert removed
        # Maximal-first: /a/b claims the active slot, the rest re-absorb.
        assert table.patterns_for("link-1") == [chain[1]]
        k = depth - 1
        # The DAG build is ≤ k·(k−1) contains calls; re-admission adds
        # O(k) more per candidate.  The legacy rescan needed Θ(k³)
        # (~half a million here).
        assert calls["contains"] <= 3 * k * k, calls["contains"]
        # The absorbed chain survived intact: peeling the new cover
        # promotes the next level, exactly as before the rewrite.
        removed, _ = table.remove_pattern(chain[1], "link-1")
        assert removed
        assert table.patterns_for("link-1") == [chain[2]]


class TestPruneMatcherRegression:
    """Matcher-cache pruning asks the trie, not a destination scan."""

    def test_remove_destination_leaves_no_matcher_residue(self, document):
        table = RoutingTable(matching="linear")
        for index in range(20):
            table.add(parse_xpath(f"/a/b/t{index}"), "link-1")
            table.add(parse_xpath(f"/a/b/t{index}"), "link-2")
        table.destinations_for(document)  # compile every matcher
        assert len(table._matchers) == 20
        table.remove_destination("link-1")
        # Still active for link-2: every matcher stays.
        assert len(table._matchers) == 20
        table.remove_destination("link-2")
        assert table._matchers == {}
        assert len(table._trie) == 0

    def test_pruning_never_scans_destination_lists(self, document):
        class ScanGuard(dict):
            def values(self):
                raise AssertionError(
                    "_prune_matcher scanned _by_destination"
                )

        table = RoutingTable(matching="linear")
        for index in range(5):
            table.add(parse_xpath(f"/a/t{index}"), "link-1")
            table.add(parse_xpath(f"/a/t{index}"), "link-2")
        table.destinations_for(document)
        table._by_destination = ScanGuard(table._by_destination)
        table.remove_pattern(parse_xpath("/a/t0"), "link-1")
        table.remove_destination("link-2")
        # /a/t0 lost both registrations; /a/t1 survives via link-1.
        assert parse_xpath("/a/t0") not in table._matchers
        assert parse_xpath("/a/t1") in table._matchers

    def test_activity_refcounts_track_every_mutation(self):
        table = RoutingTable()
        table.add(parse_xpath("/a/b"), "link-1")
        table.add(parse_xpath("/a/b"), "link-2")
        table.add(parse_xpath("/a"), "link-1")   # evicts /a/b for link-1
        expected = {}
        for destination, patterns in table._by_destination.items():
            for pattern in patterns:
                expected.setdefault(pattern, set()).add(destination)
        assert len(table._trie) == len(expected)
        for pattern, destinations in expected.items():
            assert table._trie.destinations_of(pattern) == destinations
        table.remove_destination("link-2")
        assert len(table._trie) == 1
        assert table._trie.destinations_of(parse_xpath("/a")) == {"link-1"}


class TestTrieModeOrdering:
    def legacy_order(self, table, matched):
        """The pre-index ordering contract: a full table scan."""
        return [d for d in table._by_destination if d in matched]

    def test_rank_index_reproduces_table_scan_order(self, document):
        table = RoutingTable()
        # Interleave adds so matched destinations are not sorted by name.
        table.add(parse_xpath("//e"), "link-9")
        table.add(parse_xpath("/a/b"), "link-2")
        table.add(parse_xpath("/a"), "link-5")
        table.add(parse_xpath("/a/d"), "link-0")
        found = table.destinations_for(document).destinations
        assert found == self.legacy_order(table, set(found))
        assert found == ["link-9", "link-2", "link-5", "link-0"]

    def test_order_pinned_across_churn(self, document):
        table = RoutingTable()
        for name in ("link-3", "link-1", "link-4", "link-2"):
            table.add(parse_xpath("//e"), name)
        table.remove_destination("link-1")
        table.add(parse_xpath("//e"), "link-1")  # re-admitted: goes last
        table.rename_destination("link-4", "link-9")  # rename: moves last
        table.remove_pattern(parse_xpath("//e"), "link-2")
        table.add(parse_xpath("/a"), "link-2")  # emptied, re-admitted last
        found = table.destinations_for(document).destinations
        assert found == self.legacy_order(table, set(found))
        assert found == ["link-3", "link-1", "link-9", "link-2"]



@pytest.mark.parametrize("mode", ["trie", "linear"])
class TestDeliverMembers:
    """Broker steps of deliver groups at the edges of member upkeep, in
    both matching modes, against the step read off the table-order
    destination list."""

    DOCUMENT = XMLTree.from_nested(("a", ["b"]), doc_id=0)

    def step(self, table, mode, exclude=()):
        match = table.destinations_for(
            self.DOCUMENT, exclude=exclude, matching=mode
        )
        expected = reference_step(match.destinations, match.operations)
        step = match.deliveries, match.forwards
        assert step == expected[:2]
        return step

    def test_an_excluded_deliver_group_delivers_none_of_its_members(
        self, mode
    ):
        table = RoutingTable()
        table.add(parse_xpath("/a"), (DELIVER, (1, 2)))
        table.add(parse_xpath("/a"), (DELIVER, (2, 3)))
        table.add(parse_xpath("/a/b"), (DELIVER, (4,)))
        table.add(parse_xpath("/a"), (FORWARD, 9))
        assert self.step(table, mode) == (frozenset({1, 2, 3, 4}), (9,))
        # Member 2 stays: the group it shares is not excluded.
        assert self.step(table, mode, [(DELIVER, (1, 2))]) == (
            frozenset({2, 3, 4}),
            (9,),
        )
        assert self.step(
            table, mode, [(DELIVER, (1, 2)), (DELIVER, (2, 3)), (FORWARD, 9)]
        ) == (frozenset({4}), ())

    def test_one_of_two_groups_on_a_pattern_leaves(self, mode):
        table = RoutingTable()
        pattern = parse_xpath("/a")
        table.add(pattern, (DELIVER, (1, 2)))
        table.add(pattern, (DELIVER, (2, 3)))
        assert self.step(table, mode) == (frozenset({1, 2, 3}), ())
        assert table.remove_pattern(pattern, (DELIVER, (2, 3)))[0]
        # Member 2 is still named by the group that stays.
        assert self.step(table, mode) == (frozenset({1, 2}), ())
        assert table.remove_pattern(pattern, (DELIVER, (1, 2)))[0]
        assert self.step(table, mode) == (frozenset(), ())

    def test_a_renamed_deliver_group_delivers_its_new_members(self, mode):
        table = RoutingTable()
        table.add(parse_xpath("/a"), (DELIVER, (1, 2)))
        table.add(parse_xpath("/a/b"), (DELIVER, (1, 2)))
        table.add(parse_xpath("/a/b"), (DELIVER, (3,)))
        table.add(parse_xpath("/a"), (FORWARD, 9))
        assert table.rename_destination((DELIVER, (1, 2)), (DELIVER, (5,)))
        assert self.step(table, mode) == (frozenset({3, 5}), (9,))
        assert table.rename_destination((FORWARD, 9), (DELIVER, (6,)))
        assert self.step(table, mode) == (frozenset({3, 5, 6}), ())
        assert table.rename_destination((DELIVER, (3,)), (FORWARD, 7))
        assert self.step(table, mode) == (frozenset({5, 6}), (7,))

    def test_compaction_keeps_every_group_its_members(self, mode):
        # Most of the groups on one entry leave, one by one.
        table = RoutingTable()
        table.add(parse_xpath("/a"), (FORWARD, 9))
        for member in range(8):
            table.add(parse_xpath("/a/b"), (DELIVER, (member,)))
        table.add(parse_xpath("/a"), (DELIVER, (8, 9)))
        for member in range(1, 7):
            table.remove_pattern(parse_xpath("/a/b"), (DELIVER, (member,)))
            assert self.step(table, mode)[0] == frozenset(
                {0, *range(member + 1, 10)}
            )
        assert self.step(table, mode) == (frozenset({0, 7, 8, 9}), (9,))
