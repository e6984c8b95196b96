"""Parsing XML text into :class:`~repro.xmltree.tree.XMLTree`.

A thin front-end over the standard library's ``xml.etree.ElementTree``.
Attribute values are ignored (the paper's pattern language constrains element
structure only); text content can optionally be materialised as leaf nodes,
which is how the paper's Figure 1 treats values such as ``"Mozart"``.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.xmltree.tree import XMLTree, XMLTreeBuilder

__all__ = ["parse_xml", "XMLParseError", "tree_to_xml"]


class XMLParseError(ValueError):
    """Raised when the input is not well-formed XML."""


def _localname(tag: str) -> str:
    """Strip a ``{namespace}`` prefix, if any."""
    if tag.startswith("{"):
        return tag.rsplit("}", 1)[1]
    return tag


def parse_xml(text: str, include_text: bool = True, doc_id: int = -1) -> XMLTree:
    """Parse an XML document string into an :class:`XMLTree`.

    With ``include_text=True`` (the default), non-whitespace text content of
    an element becomes an extra leaf child labeled with the stripped text, so
    ``<last>Mozart</last>`` yields the two-node path ``last/Mozart`` exactly
    as in the paper's example trees.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XMLParseError(str(exc)) from exc

    builder = XMLTreeBuilder()
    add = builder.add

    def emit(element: ET.Element, parent: int) -> int:
        index = add(_localname(element.tag), parent)
        text = element.text
        if include_text and text and text.strip():
            add(text.strip(), index)
        return index

    # Depth-first over a stack of child iterators, so any depth parses:
    # an element, then its text leaf, then each child's subtree in
    # document order — the pre-order numbering of a recursive walk.
    iterators = [iter(root)]
    parents = [emit(root, -1)]
    while iterators:
        for element in iterators[-1]:
            index = emit(element, parents[-1])
            if len(element):
                iterators.append(iter(element))
                parents.append(index)
                break
        else:
            iterators.pop()
            parents.pop()
    return builder.build(doc_id=doc_id)


def tree_to_xml(tree: XMLTree) -> str:
    """Serialise a tree back to XML text.

    Leaf nodes whose parent has other children are emitted as empty
    elements; this is the inverse of ``parse_xml(..., include_text=False)``
    and a best-effort inverse otherwise.
    """
    pieces: list[str] = []
    labels, children = tree.labels, tree.children
    # An explicit stack (any depth); a negative entry ~node closes node.
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node < 0:
            pieces.append(f"</{labels[~node]}>")
            continue
        kids = children[node]
        if not kids:
            pieces.append(f"<{labels[node]}/>")
            continue
        pieces.append(f"<{labels[node]}>")
        stack.append(~node)
        stack.extend(reversed(kids))
    return "".join(pieces)
