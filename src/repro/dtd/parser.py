"""Parser for the ``<!ELEMENT ...>`` subset of DTD syntax.

Supports what the built-in document types and typical news/commerce DTDs
use: sequences ``(a, b?, c*)``, choices ``(a | b)+``, nested groups, mixed
content ``(#PCDATA | em | a)*``, ``EMPTY`` and ``ANY``.  Attribute
declarations (``<!ATTLIST``), entities and comments are skipped — the
generators only need element structure.
"""

from __future__ import annotations

import re

from repro.dtd.model import DTD, DTDError, ElementType, Occurs, Particle

__all__ = ["parse_dtd", "parse_content_model"]

_ELEMENT_START_RE = re.compile(r"<!ELEMENT\s+([\w.\-:]+)\s+", re.DOTALL)
_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_ATTLIST_RE = re.compile(r"<!ATTLIST\s.*?>", re.DOTALL)
_ENTITY_RE = re.compile(r"<!ENTITY\s.*?>", re.DOTALL)

_OCCURS_BY_SUFFIX = {"?": Occurs.OPTIONAL, "*": Occurs.STAR, "+": Occurs.PLUS}


class _ContentParser:
    """Recursive-descent parser for one content-model expression."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> DTDError:
        return DTDError(f"{message} at offset {self.pos} in {self.text!r}")

    def skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def read_occurs(self) -> Occurs:
        if self.pos < len(self.text) and self.text[self.pos] in _OCCURS_BY_SUFFIX:
            suffix = self.text[self.pos]
            self.pos += 1
            return _OCCURS_BY_SUFFIX[suffix]
        return Occurs.ONE

    def parse_group(self) -> Particle:
        """Parse ``( item (sep item)* )occurs`` with a consistent separator."""
        self.skip_space()
        if self.pos >= len(self.text) or self.text[self.pos] != "(":
            raise self.error("expected '('")
        self.pos += 1
        items = [self.parse_item()]
        separator = None
        while True:
            self.skip_space()
            if self.pos >= len(self.text):
                raise self.error("unterminated group")
            char = self.text[self.pos]
            if char == ")":
                self.pos += 1
                break
            if char not in ",|":
                raise self.error(f"expected ',', '|' or ')', found {char!r}")
            if separator is None:
                separator = char
            elif separator != char:
                raise self.error("mixed ',' and '|' in one group")
            self.pos += 1
            items.append(self.parse_item())
        occurs = self.read_occurs()
        if len(items) == 1 and items[0].kind != "pcdata":
            # Collapse single-item groups, composing the operators
            # (e.g. ``(a?)*`` degrades to ``a*``).
            inner = items[0]
            if occurs == Occurs.ONE:
                return inner
            if inner.occurs == Occurs.ONE:
                return Particle(inner.kind, occurs, inner.name, inner.children)
            return Particle("seq", occurs, children=(inner,))
        kind = "choice" if separator == "|" else "seq"
        return Particle(kind, occurs, children=tuple(items))

    def parse_item(self) -> Particle:
        self.skip_space()
        if self.pos >= len(self.text):
            raise self.error("unexpected end of content model")
        if self.text[self.pos] == "(":
            return self.parse_group()
        if self.text.startswith("#PCDATA", self.pos):
            self.pos += len("#PCDATA")
            return Particle("pcdata")
        match = re.match(r"[\w.\-:]+", self.text[self.pos :])
        if not match:
            raise self.error("expected an element name")
        name = match.group(0)
        self.pos += len(name)
        return Particle("element", self.read_occurs(), name=name)


def parse_content_model(text: str) -> Particle:
    """Parse one parenthesised content model into a :class:`Particle`."""
    parser = _ContentParser(text.strip())
    particle = parser.parse_group()
    parser.skip_space()
    if parser.pos != len(parser.text):
        raise parser.error("trailing input after content model")
    return particle


def _strip_pcdata(particle: Particle) -> tuple[Particle | None, bool]:
    """Remove ``#PCDATA`` particles, reporting whether any were present."""
    if particle.kind == "pcdata":
        return None, True
    if particle.kind == "element":
        return particle, False
    kept: list[Particle] = []
    has_pcdata = False
    for child in particle.children:
        stripped, child_pcdata = _strip_pcdata(child)
        has_pcdata = has_pcdata or child_pcdata
        if stripped is not None:
            kept.append(stripped)
    if not kept:
        return None, has_pcdata
    return (
        Particle(particle.kind, particle.occurs, children=tuple(kept)),
        has_pcdata,
    )


def _iter_declarations(text: str):
    """Yield ``(name, content-model-text)`` for each ``<!ELEMENT`` in *text*.

    Content models may nest parentheses, so the model's extent is found by
    balancing them rather than by regex.
    """
    for match in _ELEMENT_START_RE.finditer(text):
        name = match.group(1)
        pos = match.end()
        if text.startswith("EMPTY", pos):
            yield name, "EMPTY"
            continue
        if text.startswith("ANY", pos):
            yield name, "ANY"
            continue
        if pos >= len(text) or text[pos] != "(":
            raise DTDError(f"malformed content model for element {name!r}")
        depth = 0
        end = pos
        while end < len(text):
            char = text[end]
            if char == "(":
                depth += 1
            elif char == ")":
                depth -= 1
                if depth == 0:
                    end += 1
                    break
            end += 1
        if depth != 0:
            raise DTDError(f"unbalanced parentheses in element {name!r}")
        if end < len(text) and text[end] in "?*+":
            end += 1
        yield name, text[pos:end]


def parse_dtd(text: str, root: str | None = None) -> DTD:
    """Parse DTD *text* into a :class:`DTD`.

    The root defaults to the first declared element, matching the common
    convention of declaring the document element first.
    """
    text = _COMMENT_RE.sub("", text)
    text = _ATTLIST_RE.sub("", text)
    text = _ENTITY_RE.sub("", text)

    elements: dict[str, ElementType] = {}
    first: str | None = None
    for name, model in _iter_declarations(text):
        if name in elements:
            raise DTDError(f"element {name!r} declared twice")
        if first is None:
            first = name
        if model == "EMPTY":
            elements[name] = ElementType(name)
        elif model == "ANY":
            # ANY is modelled as a structural leaf: generators cannot
            # meaningfully instantiate "any element" content.
            elements[name] = ElementType(name, has_pcdata=True)
        else:
            particle = parse_content_model(model)
            content, has_pcdata = _strip_pcdata(particle)
            elements[name] = ElementType(name, content, has_pcdata=has_pcdata)
    if not elements:
        raise DTDError("no <!ELEMENT> declarations found")
    chosen_root = root or first
    assert chosen_root is not None
    return DTD(chosen_root, elements)
