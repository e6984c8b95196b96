"""XML text parsing into XMLTree."""

import pytest

from repro.xmltree.parser import XMLParseError, parse_xml, tree_to_xml
from repro.xmltree.tree import XMLTree


class TestParseXml:
    def test_simple_document(self):
        tree = parse_xml("<a><b/><c/></a>")
        assert tree.to_nested() == ("a", ["b", "c"])

    def test_nested_elements(self):
        tree = parse_xml("<a><b><c/></b></a>")
        assert tree.to_nested() == ("a", [("b", ["c"])])

    def test_text_becomes_leaf(self):
        tree = parse_xml("<last>Mozart</last>")
        assert tree.to_nested() == ("last", ["Mozart"])

    def test_text_excluded_when_disabled(self):
        tree = parse_xml("<last>Mozart</last>", include_text=False)
        assert tree.to_nested() == "last"

    def test_whitespace_text_ignored(self):
        tree = parse_xml("<a>\n  <b/>\n</a>")
        assert tree.to_nested() == ("a", ["b"])

    def test_text_stripped(self):
        tree = parse_xml("<a>  hi  </a>")
        assert tree.to_nested() == ("a", ["hi"])

    def test_attributes_ignored(self):
        tree = parse_xml('<a x="1"><b y="2"/></a>')
        assert tree.to_nested() == ("a", ["b"])

    def test_namespace_stripped(self):
        tree = parse_xml('<n:a xmlns:n="urn:x"><n:b/></n:a>')
        assert tree.to_nested() == ("a", ["b"])

    def test_doc_id_assigned(self):
        assert parse_xml("<a/>", doc_id=9).doc_id == 9

    def test_malformed_raises(self):
        with pytest.raises(XMLParseError):
            parse_xml("<a><b></a>")

    def test_empty_raises(self):
        with pytest.raises(XMLParseError):
            parse_xml("")

    def test_figure1_document(self, figure1_document):
        text = (
            "<media>"
            "<book><author><first>William</first><last>Shakespeare</last>"
            "</author><title>Hamlet</title></book>"
            "<CD><composer><first>Wolfgang</first><last>Mozart</last>"
            "</composer><title>Requiem</title>"
            "<interpreter><ensemble>Berliner Phil.</ensemble></interpreter></CD>"
            "</media>"
        )
        assert parse_xml(text).to_nested() == figure1_document.to_nested()


class TestTreeToXml:
    def test_empty_elements(self):
        tree = XMLTree.from_nested(("a", ["b", "c"]))
        assert tree_to_xml(tree) == "<a><b/><c/></a>"

    def test_round_trip_without_text(self):
        text = "<a><b><c/></b><d/></a>"
        tree = parse_xml(text, include_text=False)
        assert tree_to_xml(tree) == text

    def test_single_node(self):
        assert tree_to_xml(XMLTree.from_nested("a")) == "<a/>"


class TestDeepDocuments:
    DEPTH = 10_000

    def test_deep_chain_parses_and_round_trips(self):
        depth = self.DEPTH
        text = "<a>" * (depth - 1) + "<leaf/>" + "</a>" * (depth - 1)
        tree = parse_xml(text)
        assert tree.labels == ["a"] * (depth - 1) + ["leaf"]
        assert tree.parents == [-1, *range(depth - 1)]
        assert tree.children == [[node + 1] for node in range(depth - 1)] + [[]]
        assert tree_to_xml(tree) == text

    def test_deep_chain_keeps_text_leaves_in_preorder(self):
        depth = self.DEPTH
        tree = parse_xml("<a>x" * depth + "</a>" * depth)
        # Each element is followed by its text leaf, then its child.
        assert tree.labels == ["a", "x"] * depth
        assert tree.parents == [
            parent
            for level in range(depth)
            for parent in (2 * level - 2 if level else -1, 2 * level)
        ]
