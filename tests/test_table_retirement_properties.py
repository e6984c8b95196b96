"""Property suite for the routing table's retirement index.

``RoutingTable.remove_pattern`` finds the absorbed advertisement
instance it retires through per-cover indexes keyed by pattern hash,
instead of comparing the pattern with every instance the destination's
covers absorbed.  This suite pins that it retires
exactly the instance that comparison scan would have, and answers
exactly as it did.

Hypothesis interleaves inserts, seeds with either flood flag,
retirements, renames and destination removals over a small pattern
alphabet, parsed afresh for each operation so equal patterns arrive as
distinct objects; covering, eviction, duplicate instances and
resurrection all occur.  Before every retirement the expected outcome is
read off the cover records alone, the way the scan worked: a duplicate
of the active entry under that entry's own record, otherwise the first
instance with an equal pattern under the first cover, in the order the
cover records were made, holding one.  After every operation:

* a retired absorbed instance returns ``removed`` exactly when its flood
  flag is False, and the cover records equal the records before with
  that one instance gone, in order;
* a retirement with nothing to retire changes nothing;
* every cover record's built retirement index lists, per pattern hash,
  exactly the numbers of the record's instances with that hash, in
  record order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pattern_parser import parse_xpath
from repro.routing.table import RoutingTable
from tests.strategies import property_max_examples

XPATHS = ("/a", "/a/b", "/a/b/c", "/a/*", "//b", "//c", "/a/c", "/*")
DESTINATIONS = ("x", "y", "z")

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(XPATHS),
            st.sampled_from(DESTINATIONS),
        ),
        st.tuples(
            st.just("seed"),
            st.sampled_from(XPATHS),
            st.sampled_from(DESTINATIONS),
            st.booleans(),
        ),
        st.tuples(
            st.just("remove_pattern"),
            st.sampled_from(XPATHS),
            st.sampled_from(DESTINATIONS),
        ),
        st.tuples(
            st.just("rename"),
            st.sampled_from(DESTINATIONS),
            st.sampled_from(DESTINATIONS),
        ),
        st.tuples(st.just("remove_destination"), st.sampled_from(DESTINATIONS)),
    ),
    max_size=40,
)


def records(table, destination):
    """The cover records of *destination*: per active cover, in the
    order the records were made, its absorbed ``(pattern, flood flag)``
    instances in order."""
    return [
        (cover, list(instances.values()))
        for cover, instances in table._absorbed.get(destination, {}).items()
    ]


def scanned(table, pattern, destination):
    """What a scan of the records retires: ``(cover position, instance
    position, flood flag)``, ``"active"`` when the active entry itself
    leaves, or None when nothing is retired."""
    actives = table.patterns_for(destination)
    if not actives:
        return None
    active = next((p for p in actives if p == pattern), None)
    for slot, (cover, instances) in enumerate(records(table, destination)):
        if active is not None and cover != active:
            continue
        for position, (absorbed, flag) in enumerate(instances):
            if absorbed == pattern:
                return slot, position, flag
    return "active" if active is not None else None


def indexed(table, destination):
    """The covers of *destination* whose record has built its index."""
    return [
        cover
        for cover, record in table._absorbed.get(destination, {}).items()
        if record.index is not None
    ]


def assert_index_consistent(table):
    for destination, covers in table._absorbed.items():
        for cover, record in covers.items():
            if record.index is None:
                continue
            expected: dict = {}
            for number, (pattern, _) in record.items():
                expected.setdefault(hash(pattern), []).append(number)
            assert record.index == expected, (destination, cover)


class TestRetirementIndex:
    @settings(max_examples=property_max_examples(60), deadline=None)
    @given(operations)
    def test_index_retires_what_the_scan_retired(self, ops):
        table = RoutingTable()
        for op in ops:
            kind = op[0]
            if kind == "add":
                table.add(parse_xpath(op[1]), op[2])
            elif kind == "seed":
                table.seed(parse_xpath(op[1]), op[2], op[3])
            elif kind == "rename":
                if op[2] not in table.destinations():
                    table.rename_destination(op[1], op[2])
            elif kind == "remove_destination":
                table.remove_destination(op[1])
            else:
                pattern, destination = parse_xpath(op[1]), op[2]
                expected = scanned(table, pattern, destination)
                before = records(table, destination)
                actives = table.patterns_for(destination)
                removed, restored = table.remove_pattern(pattern, destination)
                if expected is None:
                    assert (removed, restored) == (False, [])
                    assert records(table, destination) == before
                    assert table.patterns_for(destination) == actives
                elif expected == "active":
                    assert removed
                else:
                    slot, position, flag = expected
                    assert (removed, restored) == (flag is False, [])
                    _, instances = before[slot]
                    del instances[position]
                    if not instances:
                        del before[slot]
                    assert records(table, destination) == before
                    assert table.patterns_for(destination) == actives
            assert_index_consistent(table)
            table._trie.check()

    def test_first_cover_in_table_order_gives_up_its_instance(self):
        # /a/b/c ends up under two covers: first under /a/b, which /a
        # then evicts (a newer record, holding the older instance), and
        # later under //c, whose record is older.  The scan met //c's
        # record first, so its instance — a covered insert — goes first,
        # although the index learnt of it last.
        table = RoutingTable()
        table.add(parse_xpath("/a/b"), "x")
        table.seed(parse_xpath("/a/b/c"), "x", False)  # under /a/b
        table.add(parse_xpath("//c"), "x")
        table.add(parse_xpath("/d/c"), "x")  # //c's record starts
        table.add(parse_xpath("/d/c"), "x")
        table.add(parse_xpath("/a"), "x")  # evicts /a/b with /a/b/c
        assert table.remove_pattern(parse_xpath("/d/c"), "x") == (False, [])
        # //c's record met it first, so its index is built.
        assert table._absorbed["x"][parse_xpath("//c")].index is not None
        table.add(parse_xpath("/a/b/c"), "x")  # under //c
        assert [cover for cover, _ in records(table, "x")] == [
            parse_xpath("//c"),
            parse_xpath("/a"),
        ]
        assert table.remove_pattern(parse_xpath("/a/b/c"), "x") == (False, [])
        assert records(table, "x") == [
            (parse_xpath("//c"), [(parse_xpath("/d/c"), True)]),
            (
                parse_xpath("/a"),
                [(parse_xpath("/a/b"), False), (parse_xpath("/a/b/c"), False)],
            ),
        ]
        assert table.remove_pattern(parse_xpath("/a/b/c"), "x") == (True, [])
        assert_index_consistent(table)

    def test_patterns_sharing_a_hash_are_told_apart(self):
        # The index is keyed by hash; two patterns that share one (forced
        # here) share its number lists, and a lookup compares the
        # instances it finds with the pattern before retiring one.
        table = RoutingTable()
        cover = parse_xpath("/a")
        table.add(cover, "x")
        table.add(parse_xpath("/a/b"), "x")  # absorbed under /a
        table.add(parse_xpath("/a/c"), "x")  # absorbed under /a
        assert table.remove_pattern(parse_xpath("/a/d"), "x") == (False, [])
        index = table._absorbed["x"][cover].index
        shared = hash(parse_xpath("/a/b"))
        index[shared] = index.pop(hash(parse_xpath("/a/c"))) + index[shared]
        assert table.remove_pattern(parse_xpath("/a/b"), "x") == (False, [])
        assert records(table, "x") == [
            (parse_xpath("/a"), [(parse_xpath("/a/c"), True)])
        ]

    def test_a_departing_cover_takes_only_its_own_index(self):
        # A retirement with no active entry to match looks in every
        # cover's record, building each one's index; a cover that leaves
        # or is evicted takes its own index with it, and the other covers
        # keep theirs.
        table = RoutingTable()
        table.add(parse_xpath("/a"), "x")
        table.add(parse_xpath("/a/b"), "x")  # under /a
        table.add(parse_xpath("//c"), "x")
        table.add(parse_xpath("/d/c"), "x")  # under //c
        table.add(parse_xpath("/d/c"), "x")  # under //c
        table.add(parse_xpath("/e"), "x")
        table.add(parse_xpath("/e/f"), "x")  # under /e
        assert table.remove_pattern(parse_xpath("/g"), "x") == (False, [])
        covers = table._absorbed["x"]
        kept = covers[parse_xpath("//c")].index
        assert indexed(table, "x") == [
            parse_xpath("/a"),
            parse_xpath("//c"),
            parse_xpath("/e"),
        ]
        assert table.remove_pattern(parse_xpath("/a"), "x") == (
            True,
            [parse_xpath("/a/b")],
        )
        table.add(parse_xpath("/*"), "x")  # evicts /e with its record
        assert table._absorbed["x"] is covers
        assert indexed(table, "x") == [parse_xpath("//c")]
        assert covers[parse_xpath("//c")].index is kept
        assert_index_consistent(table)
        assert table.remove_pattern(parse_xpath("/d/c"), "x") == (False, [])
        assert covers[parse_xpath("//c")].index is kept
