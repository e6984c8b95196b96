"""DTD model, parser, and the built-in paper-scale document types."""

import contextlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dtd.builtin import (
    NITF_ELEMENT_COUNT,
    XCBL_ELEMENT_COUNT,
    builtin_dtd,
    nitf_dtd,
    xcbl_dtd,
)
from repro.dtd.model import DTDError, ElementType, Occurs, Particle
from repro.dtd.parser import parse_content_model, parse_dtd


class TestOccurs:
    def test_min_counts(self):
        assert Occurs.ONE.min_count == 1
        assert Occurs.PLUS.min_count == 1
        assert Occurs.OPTIONAL.min_count == 0
        assert Occurs.STAR.min_count == 0

    def test_unbounded(self):
        assert Occurs.STAR.unbounded
        assert Occurs.PLUS.unbounded
        assert not Occurs.ONE.unbounded
        assert not Occurs.OPTIONAL.unbounded


class TestParticle:
    def test_element_needs_name(self):
        with pytest.raises(DTDError):
            Particle("element")

    def test_group_needs_children(self):
        with pytest.raises(DTDError):
            Particle("seq")

    def test_unknown_kind(self):
        with pytest.raises(DTDError):
            Particle("mystery")

    def test_element_names(self):
        particle = Particle(
            "seq",
            children=(
                Particle("element", name="a"),
                Particle(
                    "choice",
                    children=(
                        Particle("element", name="b"),
                        Particle("element", name="a"),
                    ),
                ),
            ),
        )
        assert list(particle.element_names()) == ["a", "b", "a"]

    def test_render(self):
        particle = Particle(
            "seq",
            occurs=Occurs.STAR,
            children=(
                Particle("element", name="a", occurs=Occurs.OPTIONAL),
                Particle("element", name="b"),
            ),
        )
        assert particle.render() == "(a?, b)*"


class TestElementType:
    def test_child_names_distinct_in_order(self):
        model = parse_content_model("(b, c?, (b | d)*)")
        element = ElementType("a", model)
        assert element.child_names() == ("b", "c", "d")

    def test_empty_render(self):
        assert ElementType("a").render() == "<!ELEMENT a EMPTY>"

    def test_pcdata_render(self):
        assert ElementType("a", has_pcdata=True).render() == "<!ELEMENT a (#PCDATA)>"


class TestContentModelParser:
    def test_sequence(self):
        model = parse_content_model("(a, b, c)")
        assert model.kind == "seq"
        assert [c.name for c in model.children] == ["a", "b", "c"]

    def test_choice(self):
        model = parse_content_model("(a | b)")
        assert model.kind == "choice"

    def test_occurs_suffixes(self):
        model = parse_content_model("(a?, b*, c+)")
        assert [c.occurs for c in model.children] == [
            Occurs.OPTIONAL,
            Occurs.STAR,
            Occurs.PLUS,
        ]

    def test_nested_groups(self):
        model = parse_content_model("(a, (b | c)*, d)")
        inner = model.children[1]
        assert inner.kind == "choice"
        assert inner.occurs == Occurs.STAR

    def test_single_item_group_collapsed(self):
        model = parse_content_model("(a)")
        assert model.kind == "element"
        assert model.name == "a"

    def test_single_item_group_with_occurs(self):
        model = parse_content_model("(a)+")
        assert model.kind == "element"
        assert model.occurs == Occurs.PLUS

    def test_mixed_separators_rejected(self):
        with pytest.raises(DTDError):
            parse_content_model("(a, b | c)")

    def test_unterminated_rejected(self):
        with pytest.raises(DTDError):
            parse_content_model("(a, b")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(DTDError):
            parse_content_model("(a) b")

    @pytest.mark.parametrize("text", ["", "   ", "\t\n"])
    def test_blank_model_rejected(self, text):
        with pytest.raises(DTDError):
            parse_content_model(text)

    @given(st.text(alphabet="()|,?*+ #PCDATAab\t\n"))
    def test_only_dtd_errors_escape(self, text):
        with contextlib.suppress(DTDError):
            parse_content_model(text)


class TestParseDtd:
    DTD_TEXT = """
    <!-- a tiny catalogue -->
    <!ELEMENT catalogue (item+, note?)>
    <!ELEMENT item (name, price)>
    <!ATTLIST item id CDATA #REQUIRED>
    <!ELEMENT name (#PCDATA)>
    <!ELEMENT price (#PCDATA)>
    <!ELEMENT note (#PCDATA | name)*>
    """

    def test_parses_elements(self):
        dtd = parse_dtd(self.DTD_TEXT)
        assert len(dtd) == 5
        assert dtd.root == "catalogue"

    def test_pcdata_flag(self):
        dtd = parse_dtd(self.DTD_TEXT)
        assert dtd.element("name").has_pcdata
        assert not dtd.element("item").has_pcdata

    def test_mixed_content_keeps_elements(self):
        dtd = parse_dtd(self.DTD_TEXT)
        assert dtd.element("note").child_names() == ("name",)

    def test_attlist_and_comments_ignored(self):
        dtd = parse_dtd(self.DTD_TEXT)
        assert "id" not in dtd

    def test_explicit_root(self):
        dtd = parse_dtd(self.DTD_TEXT, root="item")
        assert dtd.root == "item"

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(DTDError):
            parse_dtd("<!ELEMENT a (b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>")

    def test_undeclared_reference_rejected(self):
        with pytest.raises(DTDError):
            parse_dtd("<!ELEMENT a (ghost)>")

    def test_unknown_root_rejected(self):
        with pytest.raises(DTDError):
            parse_dtd("<!ELEMENT a EMPTY>", root="zzz")

    def test_no_declarations_rejected(self):
        with pytest.raises(DTDError):
            parse_dtd("just text")

    def test_empty_and_any(self):
        dtd = parse_dtd("<!ELEMENT a (b?, c?)><!ELEMENT b EMPTY><!ELEMENT c ANY>")
        assert dtd.element("b").content is None
        assert dtd.element("c").child_names() == ()

    def test_render_round_trip(self):
        dtd = parse_dtd(self.DTD_TEXT)
        again = parse_dtd(dtd.render())
        assert set(again.elements) == set(dtd.elements)
        assert again.element("item").child_names() == dtd.element(
            "item"
        ).child_names()


class TestDTDGraph:
    def test_child_graph(self):
        dtd = parse_dtd(TestParseDtd.DTD_TEXT)
        graph = dtd.child_graph()
        assert graph["catalogue"] == ("item", "note")
        assert graph["name"] == ()

    def test_reachability(self):
        dtd = parse_dtd(
            "<!ELEMENT a (b)><!ELEMENT b EMPTY><!ELEMENT orphan EMPTY>"
        )
        assert dtd.reachable_elements() == {"a", "b"}

    def test_max_depth_dag(self):
        dtd = parse_dtd("<!ELEMENT a (b)><!ELEMENT b (c)><!ELEMENT c EMPTY>")
        assert dtd.max_depth() == 3

    def test_max_depth_recursive(self):
        dtd = parse_dtd("<!ELEMENT a (a?, b)><!ELEMENT b EMPTY>")
        assert dtd.max_depth(limit=32) == 32


class TestBuiltinDtds:
    def test_nitf_element_count(self):
        assert len(nitf_dtd()) == NITF_ELEMENT_COUNT == 123

    def test_xcbl_element_count(self):
        assert len(xcbl_dtd()) == XCBL_ELEMENT_COUNT == 569

    def test_nitf_fully_reachable(self):
        dtd = nitf_dtd()
        assert dtd.reachable_elements() == frozenset(dtd.elements)

    def test_xcbl_fully_reachable(self):
        dtd = xcbl_dtd()
        assert dtd.reachable_elements() == frozenset(dtd.elements)

    def test_nitf_is_recursive(self):
        # NITF's enriched text nests (blocks inside quotes inside blocks).
        assert nitf_dtd().max_depth(limit=40) == 40

    def test_xcbl_depth_supports_ten_levels(self):
        assert xcbl_dtd().max_depth() >= 10

    def test_roots(self):
        assert nitf_dtd().root == "nitf"
        assert xcbl_dtd().root == "Order"

    def test_builtin_lookup(self):
        assert builtin_dtd("nitf") is nitf_dtd()
        assert builtin_dtd("xcbl") is xcbl_dtd()
        with pytest.raises(ValueError):
            builtin_dtd("tpc-h")

    def test_render_reparses(self):
        for dtd in (nitf_dtd(), xcbl_dtd()):
            again = parse_dtd(dtd.render(), root=dtd.root)
            assert len(again) == len(dtd)
