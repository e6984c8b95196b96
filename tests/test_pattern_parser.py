"""XPath-subset parser and serialiser."""

import pytest
from hypothesis import given

from repro.core.labels import DESCENDANT, WILDCARD
from repro.core.pattern_parser import XPathSyntaxError, parse_xpath, to_xpath
from tests.strategies import tree_patterns


class TestParseBasics:
    def test_single_step(self):
        pattern = parse_xpath("/a")
        assert len(pattern.root_children) == 1
        assert pattern.root_children[0].label == "a"
        assert pattern.root_children[0].is_leaf

    def test_child_path(self):
        pattern = parse_xpath("/a/b/c")
        node = pattern.root_children[0]
        assert node.label == "a"
        assert node.children[0].label == "b"
        assert node.children[0].children[0].label == "c"

    def test_leading_descendant(self):
        pattern = parse_xpath("//a")
        top = pattern.root_children[0]
        assert top.label == DESCENDANT
        assert top.children[0].label == "a"

    def test_inner_descendant(self):
        pattern = parse_xpath("/a//b")
        a = pattern.root_children[0]
        assert a.children[0].label == DESCENDANT
        assert a.children[0].children[0].label == "b"

    def test_wildcard_step(self):
        pattern = parse_xpath("/*")
        assert pattern.root_children[0].label == WILDCARD

    def test_wildcard_in_path(self):
        pattern = parse_xpath("/a/*/c")
        assert pattern.root_children[0].children[0].label == WILDCARD

    def test_whitespace_stripped(self):
        assert parse_xpath("  /a ") == parse_xpath("/a")


class TestParsePredicates:
    def test_single_predicate(self):
        pattern = parse_xpath("/a[b]")
        a = pattern.root_children[0]
        assert [c.label for c in a.children] == ["b"]

    def test_multiple_predicates(self):
        pattern = parse_xpath("/a[b][c]")
        a = pattern.root_children[0]
        assert sorted(c.label for c in a.children) == ["b", "c"]

    def test_predicate_with_path(self):
        pattern = parse_xpath("/a[b/c]")
        b = pattern.root_children[0].children[0]
        assert b.label == "b"
        assert b.children[0].label == "c"

    def test_predicate_with_descendant(self):
        pattern = parse_xpath("/a[.//b]")
        desc = pattern.root_children[0].children[0]
        assert desc.label == DESCENDANT
        assert desc.children[0].label == "b"

    def test_predicate_descendant_without_dot(self):
        assert parse_xpath("/a[//b]") == parse_xpath("/a[.//b]")

    def test_predicate_with_self_axis(self):
        assert parse_xpath("/a[./b]") == parse_xpath("/a[b]")

    def test_predicate_then_child_step(self):
        pattern = parse_xpath("/a[b]/c")
        a = pattern.root_children[0]
        assert sorted(c.label for c in a.children) == ["b", "c"]

    def test_nested_predicates(self):
        pattern = parse_xpath("/a[b[c][d]]")
        b = pattern.root_children[0].children[0]
        assert sorted(c.label for c in b.children) == ["c", "d"]

    def test_figure1_pattern_pa(self):
        pattern = parse_xpath("/media/CD/*/last/Mozart")
        assert pattern.size() == 6
        assert pattern.height() == 6

    def test_figure1_pattern_pd(self):
        pattern = parse_xpath("//composer[last/Mozart]")
        top = pattern.root_children[0]
        assert top.label == DESCENDANT
        assert top.children[0].label == "composer"


class TestRootForm:
    def test_multi_constraint_root(self):
        pattern = parse_xpath("/.[a][b]")
        assert sorted(c.label for c in pattern.root_children) == ["a", "b"]

    def test_root_form_with_descendants(self):
        pattern = parse_xpath("/.[.//CD][.//Mozart]")
        labels = [c.label for c in pattern.root_children]
        assert labels == [DESCENDANT, DESCENDANT]

    def test_too_deep_expression_raises_typed_error(self):
        with pytest.raises(XPathSyntaxError, match="nests too deeply"):
            parse_xpath("/" + "/".join(["a"] * 5_000))

    def test_root_form_requires_predicate(self):
        with pytest.raises(XPathSyntaxError):
            parse_xpath("/.")


class TestParseErrors:
    @pytest.mark.parametrize(
        "expression",
        [
            "",
            "a",          # must be absolute
            "/",          # missing step
            "//",         # missing step
            "/a[",        # unterminated predicate
            "/a]",        # stray bracket
            "/a[]",       # empty predicate
            "/a//",       # dangling descendant
            "/a/",        # dangling separator
            "/a[b]c",     # trailing garbage
            "/a b",       # space inside name
        ],
    )
    def test_rejects(self, expression):
        with pytest.raises(XPathSyntaxError):
            parse_xpath(expression)


class TestSerialise:
    @pytest.mark.parametrize(
        "expression",
        [
            "/a",
            "//a",
            "/*",
            "/a/b/c",
            "/a//b",
            "/a[b][c]",
            "/a[b/c][d]",
            "/a[.//b][c]",
            "/.[a][.//b]",
            "/media/CD/*/last/Mozart",
            "//composer[last][Mozart]",
        ],
    )
    def test_round_trip(self, expression):
        pattern = parse_xpath(expression)
        assert parse_xpath(to_xpath(pattern)) == pattern

    def test_single_child_is_inlined(self):
        assert to_xpath(parse_xpath("/a[b]")) == "/a/b"

    def test_multi_children_use_predicates(self):
        assert to_xpath(parse_xpath("/a/b[c][d]")) == "/a/b[c][d]"

    def test_descendant_rendering(self):
        assert to_xpath(parse_xpath("//a//b")) == "//a//b"

    def test_root_form_rendering(self):
        rendered = to_xpath(parse_xpath("/.[a][b]"))
        assert rendered.startswith("/.")
        assert parse_xpath(rendered) == parse_xpath("/.[a][b]")

    @given(tree_patterns())
    def test_round_trip_property(self, pattern):
        assert parse_xpath(to_xpath(pattern)) == pattern

    def test_repr_uses_xpath(self):
        assert "/a/b" in repr(parse_xpath("/a/b"))
