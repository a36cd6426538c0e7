"""The path grammar every front door parses.

A path is a chain of location steps over the descendant (``//``) and
child (``/``) axes, each with optional existence predicates:

* ``//a//b`` — ``b`` anywhere below an ``a``: a containment join, which
  the paper's algorithms evaluate;
* ``//a/b`` — ``b`` directly under an ``a``: the parent-child *EA*-join
  of the paper's reference [20];
* ``//a[b]`` / ``//a[.//b]`` — keep the ``a`` elements having a ``b``
  child / descendant;
* ``*`` — any element.

PBiTree codes evaluate the child axis with the same algebra as the
descendant axis.  ``F(d, h)`` turns a containment step into the
equijoin ``A.code = F(D.code, h)`` (SHCJ, Lemma 1); a child step is the
equijoin ``A.code = parent(D.code)``, where ``parent`` is read off the
document's live encoding (``codes[parents[node_of(d)]]``).  It has no
false hits.  A predicate is a semijoin that keeps the ancestor side.
:class:`~repro.join.pipeline.PathPipeline` runs all of them over the
document's stored element sets; this module only parses.

Grammar::

    path       := step+
    step       := axis tag predicate*
    axis       := '//' | '/'          (the first step's is '//')
    tag        := TAG_NAME | '*'
    predicate  := '[' ('.//' | '') tag ']'
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = ["XPath", "Step", "Predicate", "XPathSyntaxError", "TAG_NAME"]

#: an element name as :func:`repro.datatree.xml_parser.parse_xml` reads
#: one (``str.isalnum()`` characters, ``_``, ``-``, ``.`` and ``:``); the
#: one tag rule of the XML parser and the path grammar
TAG_NAME = r"[\w.:-]+"

_TOKEN = re.compile(
    rf"(?P<axis>//|/)(?P<tag>\*|{TAG_NAME})(?P<preds>(?:\[[^\]]*\])*)"
)
_PRED = re.compile(rf"\[(?P<axis>\.//)?(?P<tag>\*|{TAG_NAME})\]")


class XPathSyntaxError(ValueError):
    """Raised on unsupported or malformed path syntax."""


@dataclass(frozen=True)
class Predicate:
    """An existence predicate: ``[tag]`` (child) or ``[.//tag]`` (descendant)."""

    tag: str
    axis: str = "child"  # or "descendant"


@dataclass(frozen=True)
class Step:
    """One location step."""

    axis: str  # "descendant" (//) or "child" (/)
    tag: str
    predicates: tuple[Predicate, ...] = field(default_factory=tuple)


class XPath:
    """A parsed path query."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.steps = self._parse(path)
        if self.steps[0].axis != "descendant":
            raise XPathSyntaxError(
                "a path must start with // (absolute child axis is not "
                f"supported): {path!r}"
            )

    @staticmethod
    def _parse(path: str) -> list[Step]:
        steps: list[Step] = []
        position = 0
        while position < len(path):
            match = _TOKEN.match(path, position)
            if match is None:
                raise XPathSyntaxError(
                    f"cannot parse {path!r} at offset {position}"
                )
            predicates = []
            preds_text = match.group("preds") or ""
            consumed = 0
            for pred_match in _PRED.finditer(preds_text):
                if pred_match.start() != consumed:
                    break
                consumed = pred_match.end()
                predicates.append(
                    Predicate(
                        tag=pred_match.group("tag"),
                        axis="descendant" if pred_match.group("axis") else "child",
                    )
                )
            if consumed != len(preds_text):
                raise XPathSyntaxError(
                    f"unsupported predicate syntax in {preds_text!r} "
                    "(only [tag] and [.//tag] existence tests)"
                )
            steps.append(
                Step(
                    axis="descendant" if match.group("axis") == "//" else "child",
                    tag=match.group("tag"),
                    predicates=tuple(predicates),
                )
            )
            position = match.end()
        if not steps:
            raise XPathSyntaxError(f"empty path: {path!r}")
        return steps

    @property
    def tags(self) -> list[str]:
        return [step.tag for step in self.steps]

    @property
    def axes(self) -> list[str]:
        return [step.axis for step in self.steps]

    def __repr__(self) -> str:
        return f"XPath({self.path!r})"
