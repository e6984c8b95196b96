"""Parsing and serialising tree patterns in an XPath subset.

The concrete syntax covers the pattern language of the paper:

* absolute paths: ``/media/CD``, ``//CD``, ``/*``;
* the descendant operator between steps: ``/media//last``;
* wildcard steps: ``/media/*/last``;
* branching via predicates: ``/a[b][d]``, ``/a[c/f][c/o]``, ``/CD[.//last]``;
* multiple constraints on the document root: ``/.[//CD][//Mozart]``
  (the explicit ``/.`` form — ordinary XPath cannot express a root with
  several independent constraint subtrees, which the paper's root-merge
  construction for ``P(p ∧ q)`` produces).

``parse_xpath`` and ``to_xpath`` are inverse up to the canonical form:
a node with exactly one child is serialised inline (``a/b``), a node with
several children uses predicates (``a[b][c]``).
"""

from __future__ import annotations

from repro.core.labels import DESCENDANT, WILDCARD, is_valid_tag
from repro.core.pattern import PatternError, PatternNode, TreePattern

__all__ = ["parse_xpath", "to_xpath", "XPathSyntaxError"]


class XPathSyntaxError(PatternError):
    """Raised when an expression is outside the supported XPath subset."""


class _Parser:
    """Recursive-descent parser over a pattern expression string."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    # -- low-level helpers -------------------------------------------------

    def error(self, message: str) -> XPathSyntaxError:
        return XPathSyntaxError(
            f"{message} at offset {self.pos} in {self.text!r}"
        )

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def accept(self, token: str) -> bool:
        if self.peek(token):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.accept(token):
            raise self.error(f"expected {token!r}")

    def read_name(self) -> str:
        if self.accept(WILDCARD):
            return WILDCARD
        start = self.pos
        while not self.at_end() and self.text[self.pos] not in "/[]":
            self.pos += 1
        name = self.text[start : self.pos]
        if not is_valid_tag(name):
            raise self.error(f"invalid step name {name!r}")
        return name

    # -- grammar -----------------------------------------------------------

    def parse_pattern(self) -> TreePattern:
        if self.peek("/."):
            children = self.parse_root_form()
        else:
            children = (self.parse_absolute_path(),)
        if not self.at_end():
            raise self.error("trailing input")
        return TreePattern(children)

    def parse_root_form(self) -> tuple[PatternNode, ...]:
        """Parse ``/.[rel][rel]...`` — explicit multi-constraint root."""
        self.expect("/.")
        children: list[PatternNode] = []
        while self.accept("["):
            children.append(self.parse_relative_path())
            self.expect("]")
        if not children:
            raise self.error("'/.' requires at least one [predicate]")
        if not self.at_end():
            raise self.error("trailing input after '/.' predicates")
        return tuple(children)

    def parse_absolute_path(self) -> PatternNode:
        """Parse a path starting with ``/`` or ``//``."""
        if self.accept(DESCENDANT):
            return PatternNode(DESCENDANT, (self.parse_steps(),))
        if self.accept("/"):
            return self.parse_steps()
        raise self.error("pattern must start with '/', '//' or '/.'")

    def parse_relative_path(self) -> PatternNode:
        """Parse a predicate body: a path relative to the enclosing step."""
        if self.accept(".//") or self.accept(DESCENDANT):
            return PatternNode(DESCENDANT, (self.parse_steps(),))
        self.accept("./")  # optional explicit self axis
        return self.parse_steps()

    def parse_steps(self) -> PatternNode:
        """Parse ``step (('/' | '//') step)*`` and return the first node."""
        label = self.read_name()
        predicates: list[PatternNode] = []
        while self.accept("["):
            predicates.append(self.parse_relative_path())
            self.expect("]")
        children = tuple(predicates)
        if self.accept(DESCENDANT):
            children += (PatternNode(DESCENDANT, (self.parse_steps(),)),)
        elif self.accept("/"):
            children += (self.parse_steps(),)
        return PatternNode(label, children)


def parse_xpath(expression: str) -> TreePattern:
    """Parse an XPath-subset *expression* into a :class:`TreePattern`.

    >>> parse_xpath("/media/CD[*/last/Mozart]").size()
    6
    """
    expression = expression.strip()
    if not expression:
        raise XPathSyntaxError("empty pattern expression")
    try:
        return _Parser(expression).parse_pattern()
    except RecursionError:
        # The descent recurses once per step and predicate level.
        raise XPathSyntaxError(
            f"expression nests too deeply to parse ({len(expression)} characters)"
        ) from None


def _serialize_node(node: PatternNode) -> str:
    """Serialise the subtree rooted at a non-``//`` node."""
    if node.label == DESCENDANT:
        raise AssertionError("descendant nodes are serialised by their parents")
    if not node.children:
        return node.label
    if len(node.children) == 1:
        child = node.children[0]
        if child.label == DESCENDANT:
            return f"{node.label}//{_serialize_node(child.children[0])}"
        return f"{node.label}/{_serialize_node(child)}"
    parts = [node.label]
    for child in node.children:
        if child.label == DESCENDANT:
            parts.append(f"[.//{_serialize_node(child.children[0])}]")
        else:
            parts.append(f"[{_serialize_node(child)}]")
    return "".join(parts)


def to_xpath(pattern: TreePattern) -> str:
    """Serialise *pattern* back to the XPath subset.

    The output re-parses to an equal pattern:
    ``parse_xpath(to_xpath(p)) == p``.
    """
    children = pattern.root_children
    if len(children) == 1:
        child = children[0]
        if child.label == DESCENDANT:
            return f"//{_serialize_node(child.children[0])}"
        return f"/{_serialize_node(child)}"
    parts = ["/."]
    for child in children:
        if child.label == DESCENDANT:
            parts.append(f"[.//{_serialize_node(child.children[0])}]")
        else:
            parts.append(f"[{_serialize_node(child)}]")
    return "".join(parts)
