"""Containment baseline: homomorphism soundness and known cases."""

from hypothesis import given, settings

from repro.core.containment import containment_order, contains, equivalent
from repro.core.pattern_parser import parse_xpath
from repro.routing.overlay import BrokerOverlay
from repro.routing.policy import PerSubscriptionPolicy
from repro.xmltree.matcher import matches
from tests.strategies import tree_patterns, xml_trees

#: ``/a/…/a/b`` with 400 ``a`` steps: deeper than the interpreter lets a
#: walk recurse once per level.
DEEP = parse_xpath("/a" * 400 + "/b")


class TestKnownCases:
    def test_reflexive(self):
        p = parse_xpath("/a/b[c][d]")
        assert contains(p, p)

    def test_prefix_contains_extension(self):
        assert contains(parse_xpath("/a"), parse_xpath("/a/b"))
        assert not contains(parse_xpath("/a/b"), parse_xpath("/a"))

    def test_wildcard_contains_tag(self):
        assert contains(parse_xpath("/a/*"), parse_xpath("/a/b"))
        assert not contains(parse_xpath("/a/b"), parse_xpath("/a/*"))

    def test_descendant_contains_child(self):
        assert contains(parse_xpath("/a//c"), parse_xpath("/a/c"))
        assert contains(parse_xpath("/a//c"), parse_xpath("/a/b/c"))
        assert not contains(parse_xpath("/a/c"), parse_xpath("/a//c"))

    def test_root_descendant_contains_rooted(self):
        assert contains(parse_xpath("//c"), parse_xpath("/c"))
        assert contains(parse_xpath("//c"), parse_xpath("/a/b/c"))

    def test_branch_subset(self):
        assert contains(parse_xpath("/a[b]"), parse_xpath("/a[b][c]"))
        assert not contains(parse_xpath("/a[b][c]"), parse_xpath("/a[b]"))

    def test_figure1_pc_contains_pa(self):
        # "it trivially appears that pc contains pa ... but the converse is
        # not true" (Example 1.1).
        pa = parse_xpath("/media/CD/*/last/Mozart")
        pc = parse_xpath("/.[.//CD][.//Mozart]")
        assert contains(pc, pa)
        assert not contains(pa, pc)

    def test_figure1_pa_pd_incomparable(self):
        # "Formally, there is no containment relationship between pa and pd."
        pa = parse_xpath("/media/CD/*/last/Mozart")
        pd = parse_xpath("//composer[last/Mozart]")
        assert not contains(pa, pd)
        assert not contains(pd, pa)

    def test_descendant_absorbs_descendant(self):
        assert contains(parse_xpath("//a//c"), parse_xpath("//a/b//c"))

    def test_equivalent(self):
        assert equivalent(parse_xpath("/a[b][c]"), parse_xpath("/a[c][b]"))
        assert not equivalent(parse_xpath("/a"), parse_xpath("/a/b"))


class TestContainmentOrder:
    def test_edges(self):
        patterns = [
            parse_xpath("/a"),
            parse_xpath("/a/b"),
            parse_xpath("/a/b/c"),
        ]
        edges = set(containment_order(patterns))
        assert (0, 1) in edges
        assert (0, 2) in edges
        assert (1, 2) in edges
        assert (2, 0) not in edges


class TestSoundness:
    @settings(max_examples=200, deadline=None)
    @given(tree_patterns(), tree_patterns(), xml_trees())
    def test_containment_implies_match_implication(self, p, q, tree):
        """q ⊑ p and T ⊨ q together must imply T ⊨ p — the defining
        property, checked over random documents."""
        if contains(p, q) and matches(tree, q):
            assert matches(tree, p)

    @settings(max_examples=100, deadline=None)
    @given(tree_patterns())
    def test_reflexive_property(self, p):
        assert contains(p, p)

    @settings(max_examples=100, deadline=None)
    @given(tree_patterns(), tree_patterns(), tree_patterns())
    def test_transitive(self, p, q, r):
        if contains(p, q) and contains(q, r):
            # Homomorphisms compose, so the sound test must be transitive
            # on the instances it certifies... composition gives an
            # embedding, which the test finds (it searches exhaustively).
            assert contains(p, r)


def advertised_chain(xpaths: list[str]) -> BrokerOverlay:
    """A three-broker chain holding *xpaths* round-robin, advertised per
    subscription."""
    overlay = BrokerOverlay.chain(3)
    overlay.attach_round_robin([parse_xpath(xpath) for xpath in xpaths])
    overlay.advertise(PerSubscriptionPolicy())
    return overlay


class TestDeepPatterns:
    def test_descendant_covers_walk_a_deep_pattern(self):
        # Covering asks whether //b and //a//b contain the chain: their
        # '//' descends the chain's 400 levels.
        assert contains(parse_xpath("//b"), DEEP)
        assert contains(parse_xpath("//a//b"), DEEP)
        assert not contains(parse_xpath("//c"), DEEP)
        overlay = advertised_chain(["//b", "/a", "//a//b"])
        subscriber = overlay.subscribe(0, DEEP)
        assert overlay.subscriptions[subscriber] == (0, DEEP)
        assert overlay.topology_signature() == overlay.rebuilt().topology_signature()

    def test_a_deep_pattern_subscribes_twice(self):
        # The second subscription's covering test compares the chain
        # with its own first entry.
        assert contains(DEEP, parse_xpath("/a" * 400 + "/b"))
        overlay = advertised_chain(["/x", "/y", "/z"])
        first = overlay.subscribe(0, DEEP)
        second = overlay.subscribe(0, DEEP)
        assert first != second
        assert overlay.topology_signature() == overlay.rebuilt().topology_signature()

    def test_chains_of_two_depths_contain_neither_way(self):
        # The search descends 200 levels of p before it fails.
        shorter = parse_xpath("/a" * 200 + "/b")
        longer = parse_xpath("/a" * 201 + "/b")
        assert not contains(shorter, longer)
        assert not contains(longer, shorter)

    def test_chains_of_two_depths_subscribe_beside_each_other(self):
        # The covering test between the two runs at broker 0.
        shorter = "/a" * 200 + "/b"
        longer = "/a" * 201 + "/b"
        for held, fresh in ((shorter, longer), (longer, shorter)):
            overlay = advertised_chain([held])
            subscriber = overlay.subscribe(0, parse_xpath(fresh))
            assert overlay.subscriptions[subscriber] == (0, parse_xpath(fresh))
            assert (
                overlay.topology_signature()
                == overlay.rebuilt().topology_signature()
            )
