"""A small, dependency-free XML parser producing a :class:`DataTree`.

The paper's input data are XML documents (DBLP, XMark).  This parser
covers the subset those documents need: elements, attributes (exposed as
child nodes tagged ``@name``, mirroring the DOM-style tree of Figure 1),
text content, comments, CDATA, processing instructions, and the five
standard entities.  It is a hand-written recursive-descent parser — no
``xml`` stdlib import — so the whole substrate is from scratch.
"""

from __future__ import annotations

import re

from .node import DataTree
from .xpath import TAG_NAME

__all__ = ["parse_xml", "XMLSyntaxError"]

_NAME = re.compile(TAG_NAME)
_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}


class XMLSyntaxError(ValueError):
    """Raised on malformed XML input, with position information."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class _Parser:
    def __init__(self, text: str, keep_attributes: bool, keep_text: bool) -> None:
        self.text = text
        self.pos = 0
        self.keep_attributes = keep_attributes
        self.keep_text = keep_text
        self.tree = DataTree()

    # -- low-level helpers ------------------------------------------------
    def _error(self, message: str) -> XMLSyntaxError:
        return XMLSyntaxError(message, self.pos)

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def _skip_ws(self) -> None:
        text, n = self.text, len(self.text)
        while self.pos < n and text[self.pos] in " \t\r\n":
            self.pos += 1

    def _expect(self, token: str) -> None:
        if not self.text.startswith(token, self.pos):
            raise self._error(f"expected {token!r}")
        self.pos += len(token)

    def _read_name(self) -> str:
        match = _NAME.match(self.text, self.pos)
        if match is None:
            raise self._error("expected a name")
        self.pos = match.end()
        return match.group()

    def _decode_entities(self, raw: str) -> str:
        if "&" not in raw:
            return raw
        out: list[str] = []
        i = 0
        while i < len(raw):
            ch = raw[i]
            if ch != "&":
                out.append(ch)
                i += 1
                continue
            end = raw.find(";", i + 1)
            if end < 0:
                raise self._error("unterminated entity reference")
            name = raw[i + 1:end]
            if name.startswith("#x") or name.startswith("#X"):
                out.append(chr(int(name[2:], 16)))
            elif name.startswith("#"):
                out.append(chr(int(name[1:])))
            elif name in _ENTITIES:
                out.append(_ENTITIES[name])
            else:
                raise self._error(f"unknown entity &{name};")
            i = end + 1
        return "".join(out)

    # -- grammar ----------------------------------------------------------
    def parse(self) -> DataTree:
        self._skip_misc()
        if self._peek() != "<":
            raise self._error("expected root element")
        self._parse_element(parent=-1)
        self._skip_misc()
        if self.pos != len(self.text):
            raise self._error("content after root element")
        if not len(self.tree):
            raise self._error("no root element found")
        return self.tree

    def _skip_misc(self) -> None:
        """Skip whitespace, comments, PIs and the XML declaration/doctype."""
        while True:
            self._skip_ws()
            if self.text.startswith("<?", self.pos):
                end = self.text.find("?>", self.pos)
                if end < 0:
                    raise self._error("unterminated processing instruction")
                self.pos = end + 2
            elif self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos)
                if end < 0:
                    raise self._error("unterminated comment")
                self.pos = end + 3
            elif self.text.startswith("<!DOCTYPE", self.pos):
                end = self.text.find(">", self.pos)
                if end < 0:
                    raise self._error("unterminated DOCTYPE")
                self.pos = end + 1
            else:
                return

    def _parse_element(self, parent: int) -> None:
        self._expect("<")
        tag = self._read_name()
        if parent < 0:
            node = self.tree.add_root(tag)
        else:
            node = self.tree.add_child(parent, tag)
        self._parse_attributes(node)
        self._skip_ws()
        if self.text.startswith("/>", self.pos):
            self.pos += 2
            return
        self._expect(">")
        self._parse_content(node)
        self._expect("</")
        closing = self._read_name()
        if closing != tag:
            raise self._error(f"mismatched closing tag </{closing}> for <{tag}>")
        self._skip_ws()
        self._expect(">")

    def _parse_attributes(self, node: int) -> None:
        while True:
            self._skip_ws()
            ch = self._peek()
            if ch in (">", "/", ""):
                return
            name = self._read_name()
            self._skip_ws()
            self._expect("=")
            self._skip_ws()
            quote = self._peek()
            if quote not in ("'", '"'):
                raise self._error("expected quoted attribute value")
            self.pos += 1
            end = self.text.find(quote, self.pos)
            if end < 0:
                raise self._error("unterminated attribute value")
            value = self._decode_entities(self.text[self.pos:end])
            self.pos = end + 1
            if self.keep_attributes:
                self.tree.add_child(node, "@" + name, value)

    def _parse_content(self, node: int) -> None:
        while True:
            if self.pos >= len(self.text):
                raise self._error("unexpected end of document")
            if self.text.startswith("</", self.pos):
                return
            if self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos)
                if end < 0:
                    raise self._error("unterminated comment")
                self.pos = end + 3
            elif self.text.startswith("<![CDATA[", self.pos):
                end = self.text.find("]]>", self.pos)
                if end < 0:
                    raise self._error("unterminated CDATA section")
                if self.keep_text:
                    self.tree.add_child(node, "#text", self.text[self.pos + 9:end])
                self.pos = end + 3
            elif self.text.startswith("<?", self.pos):
                end = self.text.find("?>", self.pos)
                if end < 0:
                    raise self._error("unterminated processing instruction")
                self.pos = end + 2
            elif self._peek() == "<":
                self._parse_element(node)
            else:
                end = self.text.find("<", self.pos)
                if end < 0:
                    raise self._error("unexpected end of document in text")
                raw = self.text[self.pos:end]
                self.pos = end
                stripped = raw.strip()
                if stripped and self.keep_text:
                    self.tree.add_child(node, "#text", self._decode_entities(stripped))


def parse_xml(
    text: str,
    keep_attributes: bool = True,
    keep_text: bool = True,
) -> DataTree:
    """Parse an XML document string into a :class:`DataTree`.

    Attributes become child nodes tagged ``@name`` with the attribute
    value as text; text content becomes ``#text`` leaves, mirroring the
    DOM-style data tree of the paper's Figure 1(b).  Set
    ``keep_attributes``/``keep_text`` to ``False`` to retain structure
    only (what containment joins need).
    """
    return _Parser(text, keep_attributes, keep_text).parse()
