"""The bit-parallel trie kernel's own state: masks, plans, depth.

* **audit** — ``PatternTrie.check()`` recomputes every tag mask and
  cached visit plan from the patterns alone; corrupting any one of them
  must fail it;
* **long churn** — through thousands of resubscribes, trie-mode
  destination lists stay equal to linear-mode lists, table order
  included;
* **depth** — neither the trie nor the linear oracle spends a Python
  frame per level, so a 10⁴-deep chain matches, and trie == linear ==
  ``DocumentCorpus.match_set`` on it, under ``//`` and along a child
  path of 10⁴ steps.
"""

from __future__ import annotations

import random

import pytest

from repro.core.pattern import PatternNode, TreePattern
from repro.core.pattern_parser import parse_xpath
from repro.dtd.builtin import nitf_dtd
from repro.generators.docgen import DocumentGenerator
from repro.generators.querygen import PatternGenerator
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import PerSubscriptionPolicy
from repro.routing.table import RoutingTable
from repro.routing.trie import PatternTrie
from repro.xmltree.corpus import DocumentCorpus
from repro.xmltree.tree import XMLTree, XMLTreeBuilder

AUDITED = [
    "/a/b[c]",
    "/a/b[d]",
    "/a/*[c]",
    "/a[e]/b",
    "//b[c]/d",
    "/a//b[.//c]",
    "/a/b[c][f//g]",
]


def chain(depth: int, doc_id: int = -1) -> XMLTree:
    """``<a>…<a><leaf/></a>…</a>``: *depth* nested ``a`` over one leaf."""
    builder = XMLTreeBuilder()
    parent = -1
    for _ in range(depth):
        parent = builder.add("a", parent)
    builder.add("leaf", parent)
    return builder.build(doc_id=doc_id)


def branch(depth: int, doc_id: int) -> XMLTree:
    """``<r><a>…<a><leaf/></a>…</a><z/></r>``: *depth* nested ``a`` over
    one leaf, beside a ``z``, under an ``r`` root."""
    builder = XMLTreeBuilder()
    root = parent = builder.add("r", -1)
    for _ in range(depth):
        parent = builder.add("a", parent)
    builder.add("leaf", parent)
    builder.add("z", root)
    return builder.build(doc_id=doc_id)


def a_steps(steps: int) -> PatternNode:
    """``a/…/a``: *steps* child steps."""
    node = PatternNode("a")
    for _ in range(steps - 1):
        node = PatternNode("a", (node,))
    return node


def assert_every_oracle_agrees(patterns, documents):
    """Per pattern, the documents one table's trie, its linear scan and
    :meth:`DocumentCorpus.match_set` find it in are the same; returns
    them, in document order."""
    table = RoutingTable(matching="linear")
    for index, pattern in enumerate(patterns):
        table.add(pattern, index)
    found = [[] for _ in patterns]
    for document in documents:
        via_linear = table.destinations_for(document).destinations
        via_trie = table.destinations_for(document, matching="trie").destinations
        assert via_trie == via_linear, document.doc_id
        for index in via_linear:
            found[index].append(document.doc_id)
    corpus = DocumentCorpus(documents)
    assert [sorted(corpus.match_set(pattern)) for pattern in patterns] == found
    return found


#: ``/a/b`` gated by a root-level ``//g``: a pattern with two root children.
GATED = TreePattern(
    (
        PatternNode("a", (PatternNode("b"),)),
        PatternNode("//", (PatternNode("g"),)),
    )
)


def audited_trie() -> PatternTrie:
    """A small trie, matched once so every visited node has a plan."""
    trie = PatternTrie()
    for index, xpath in enumerate(AUDITED):
        trie.add(parse_xpath(xpath), f"d{index % 3}")
        trie.add(parse_xpath(xpath), f"e{index}")
    trie.add(GATED, "gated")
    trie.discard(parse_xpath(AUDITED[0]), "e0")
    document = XMLTree.from_nested(("a", [("b", ["c", "d", ("f", ["g"])]), "e"]))
    assert trie.match(document).destinations
    trie.check()
    return trie


def spine_nodes(trie: PatternTrie) -> list:
    """Every non-root spine node, parents first."""
    nodes, stack = [], list(trie._root.child_order)
    while stack:
        node = stack.pop(0)
        nodes.append(node)
        stack.extend(node.child_order)
    return nodes


def corrupt_req(trie):
    spine_nodes(trie)[0].req_mask ^= 1 << 40


def corrupt_own(trie):
    spine_nodes(trie)[-1].own_mask ^= 1 << 40


def corrupt_constraint(trie):
    next(iter(trie._interned.values())).mask ^= 1 << 40


def corrupt_gate(trie):
    entry = next(e for e in trie._entries.values() if e.gates)
    entry.gate_mask ^= 1 << 40


def corrupt_group_and(trie):
    node = next(n for n in spine_nodes(trie) if n.plan is not None and n.plan[0])
    groups, child_masks, width = node.plan
    axis, label, shared, members, uniform = groups[0]
    corrupted = (axis, label, shared ^ 1 << 40, members, uniform)
    node.plan = (corrupted, *groups[1:]), child_masks, width


def corrupt_child_masks(trie):
    node = trie._root
    groups, child_masks, width = node.plan
    node.plan = groups, frozenset(), width


class TestCheckAuditsMaskState:
    @pytest.mark.parametrize(
        "corrupt",
        [
            corrupt_req,
            corrupt_own,
            corrupt_constraint,
            corrupt_gate,
            corrupt_group_and,
            corrupt_child_masks,
        ],
    )
    def test_corruption_is_caught(self, corrupt):
        trie = audited_trie()
        corrupt(trie)
        with pytest.raises(AssertionError):
            trie.check()

    def test_discard_clears_the_destination_bit(self):
        trie = audited_trie()
        pattern = parse_xpath(AUDITED[1])
        trie.discard(pattern, "d1")
        trie.check()
        assert trie.destinations_of(pattern) == {"e1"}
        document = XMLTree.from_nested(("a", [("b", ["d"])]))
        assert "d1" not in trie.match(document).destinations

    def test_requirement_change_drops_the_parent_plan(self):
        trie = PatternTrie()
        trie.add(parse_xpath("/a/b[c]"), "x")
        trie.add(parse_xpath("/a/b[c]/d"), "y")
        document = XMLTree.from_nested(("a", [("b", ["c", "d"])]))
        assert trie.match(document).destinations == {"x", "y"}
        # Dropping the shorter pattern narrows /a/b[c]'s requirement to
        # what /a/b[c]/d needs, without unlinking any node.
        trie.discard(parse_xpath("/a/b[c]"), "x")
        trie.check()
        lacking_d = XMLTree.from_nested(("a", [("b", ["c"])]))
        assert trie.match(lacking_d).destinations == set()
        assert trie.match(document).destinations == {"y"}


class TestTableOrderUnderLongChurn:
    STEPS = 5000

    def test_trie_lists_equal_linear_lists(self):
        dtd = nitf_dtd()
        overlay = BrokerOverlay.random_tree(4, seed=3)
        live = overlay.attach_round_robin(
            PatternGenerator(dtd, seed=2).generate_many(50)
        )
        overlay.advertise(PerSubscriptionPolicy())
        generator = DocumentGenerator(dtd, seed=4)
        documents = [generator.generate(doc_id=index) for index in range(12)]
        fresh = PatternGenerator(dtd, seed=6).stream()
        rng = random.Random(9)
        brokers = sorted(overlay.brokers)
        for step in range(self.STEPS):
            position = rng.randrange(len(live))
            overlay.unsubscribe(live[position])
            live[position] = overlay.subscribe(rng.choice(brokers), next(fresh))
            document = documents[step % len(documents)]
            for broker_id in brokers:
                table = overlay.brokers[broker_id].table
                via_trie = table.destinations_for(
                    document, matching="trie"
                ).destinations
                via_linear = table.destinations_for(
                    document, matching="linear"
                ).destinations
                assert via_trie == via_linear, step
            if step % 1000 == 999:
                for broker_id in brokers:
                    table = overlay.brokers[broker_id].table
                    table._trie.check()
                    for other in documents:
                        via_trie = table.destinations_for(other).destinations
                        via_linear = table.destinations_for(
                            other, matching="linear"
                        ).destinations
                        assert via_trie == via_linear, step

    def test_table_order_survives_restoration(self):
        table = RoutingTable()
        table.add(parse_xpath("/a/b"), "early")
        table.add(parse_xpath("/a/b/c"), "mid")
        table.add(parse_xpath("/a"), "mid")  # evicts /a/b/c
        table.add(parse_xpath("/a/d"), "late")
        # Retiring /a restores /a/b/c: "mid" keeps its place throughout.
        table.remove_pattern(parse_xpath("/a"), "mid")
        table._trie.check()
        document = XMLTree.from_nested(("a", [("b", ["c"]), "d"]))
        via_trie = table.destinations_for(document).destinations
        assert via_trie == ["early", "mid", "late"]
        via_linear = table.destinations_for(document, matching="linear")
        assert via_trie == via_linear.destinations


class TestDeepDocuments:
    PATTERNS = ["/a[.//leaf]/a", "/a[.//leaf][.//a]/a"]

    def test_ten_thousand_levels_match(self):
        trie = PatternTrie()
        for xpath in self.PATTERNS:
            trie.add(parse_xpath(xpath), xpath)
        trie.add(parse_xpath("/a[.//absent]/a"), "absent")
        result = trie.match(chain(10_000))
        assert result.destinations == set(self.PATTERNS)
        batch = trie.match_batch([chain(10_000), chain(9_999)])
        assert [r.destinations for r in batch.results] == [set(self.PATTERNS)] * 2

    def test_trie_equals_linear_at_depth_10_300(self):
        table = RoutingTable()
        for index, xpath in enumerate(
            [*self.PATTERNS, "/a[.//absent]/a", "//a[.//leaf]/leaf", "/a//leaf"]
        ):
            table.add(parse_xpath(xpath), f"d{index}")
        for depth in (1, 2, 10_300):
            document = chain(depth)
            via_trie = table.destinations_for(
                document, matching="trie"
            ).destinations
            via_linear = table.destinations_for(
                document, matching="linear"
            ).destinations
            assert via_trie == via_linear, depth
        assert via_trie == ["d0", "d1", "d3", "d4"]

    def test_descendant_patterns_at_depth_450_and_10_000(self):
        patterns = [
            parse_xpath(xpath)
            for xpath in ("//a//leaf", "//leaf", "/a//leaf", "/a[.//leaf]", "//leaf/a")
        ]
        documents = [chain(450, doc_id=0), chain(10_000, doc_id=1)]
        assert assert_every_oracle_agrees(patterns, documents) == [
            [0, 1],
            [0, 1],
            [0, 1],
            [0, 1],
            [],
        ]

    def test_child_paths_of_10_250_steps(self):
        steps = a_steps(10_250)
        path = TreePattern((steps,))
        fork = TreePattern((PatternNode("r", (steps, PatternNode("z"))),))
        documents = [
            chain(10_250, doc_id=0),
            chain(10_249, doc_id=1),
            branch(10_250, doc_id=2),
            branch(10_249, doc_id=3),
        ]
        assert assert_every_oracle_agrees([path, fork], documents) == [[0], [2]]
