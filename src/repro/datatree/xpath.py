"""Extended path queries: child axis and existence predicates.

:mod:`repro.datatree.paths` handles the pure descendant-axis chains the
paper evaluates.  Real XPath workloads (and the paper's reference [20],
whose MPMGJN distinguishes ancestor-descendant *EE*-joins from
parent-child *EA*-joins) also need:

* the **child axis** ``/a/b`` — ``b`` directly under ``a``;
* **existence predicates** ``//a[b]`` — keep the ``a`` elements having
  a ``b`` child (or ``[.//b]`` for any descendant).

Region codes implement parent-child with a stored level number; PBiTree
codes cannot (virtual nodes make data-tree depth non-derivable), but
they offer something sharper: given the **occupancy set** of all
element codes in the document, ``a`` is the parent of ``d`` iff ``a``
is an ancestor and *no occupied code lies strictly between them on the
PBiTree path* — an O(height) check of ``F`` probes against a hash set
(:func:`is_parent_code`).  A containment join plus this filter is the
EA-join.

Grammar::

    path       := step+
    step       := axis tag predicate*
    axis       := '//' | '/'
    tag        := TAG_NAME | '*'    (see repro.datatree.paths)
    predicate  := '[' ('.//' | '') tag ']'
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..core import pbitree
from .node import DataTree
from .paths import TAG_NAME, XPathSyntaxError

__all__ = ["XPath", "Step", "Predicate", "is_parent_code", "XPathSyntaxError"]

JoinFunc = Callable[[Sequence[int], Sequence[int]], Iterable[tuple[int, int]]]

_TOKEN = re.compile(
    rf"(?P<axis>//|/)(?P<tag>\*|{TAG_NAME})(?P<preds>(?:\[[^\]]*\])*)"
)
_PRED = re.compile(rf"\[(?P<axis>\.//)?(?P<tag>\*|{TAG_NAME})\]")


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


def is_parent_code(occupied: "set[int]", anc: int, desc: int) -> bool:
    """True iff ``anc`` is the data-tree *parent* of ``desc``.

    ``occupied`` is the set of all element codes of the document.  The
    parent is the nearest occupied proper ancestor, so ``anc`` is the
    parent iff it is an ancestor and every PBiTree node strictly
    between ``desc`` and ``anc`` on the path is virtual.
    """
    if not pbitree.is_ancestor(anc, desc):
        return False
    top = pbitree.height_of(anc)
    f_ancestor = pbitree.f_ancestor
    for height in range(pbitree.height_of(desc) + 1, top):
        if f_ancestor(desc, height) in occupied:
            return False
    return True


class XPath:
    """A parsed extended path query."""

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

    # ------------------------------------------------------------------
    # navigational evaluation (ground truth)
    # ------------------------------------------------------------------
    def evaluate_navigational(self, tree: DataTree) -> list[int]:
        """Node ids matching the final step, in id order."""
        frontier = [
            node for node in tree.iter_preorder()
            if self._tag_matches(tree, node, self.steps[0].tag)
            and self._predicates_hold(tree, node, self.steps[0].predicates)
        ]
        for step in self.steps[1:]:
            found: set[int] = set()
            for node in frontier:
                candidates = (
                    tree.children[node]
                    if step.axis == "child"
                    else tree.descendants_of(node)
                )
                for candidate in candidates:
                    if self._tag_matches(tree, candidate, step.tag) and (
                        self._predicates_hold(tree, candidate, step.predicates)
                    ):
                        found.add(candidate)
            frontier = sorted(found)
        return frontier

    @staticmethod
    def _tag_matches(tree: DataTree, node: int, tag: str) -> bool:
        return tag == "*" or tree.tags[node] == tag

    def _predicates_hold(
        self, tree: DataTree, node: int, predicates: tuple[Predicate, ...]
    ) -> bool:
        for predicate in predicates:
            if predicate.axis == "child":
                pool = tree.children[node]
            else:
                pool = tree.descendants_of(node)
            if not any(
                self._tag_matches(tree, child, predicate.tag) for child in pool
            ):
                return False
        return True

    # ------------------------------------------------------------------
    # join-based evaluation
    # ------------------------------------------------------------------
    def evaluate_with_joins(
        self,
        tree: DataTree,
        join: JoinFunc,
        alive: Callable[[int], bool] | None = None,
    ) -> list[int]:
        """Evaluate through containment joins on PBiTree codes.

        ``join(ancestors, descendants)`` yields containment pairs; the
        child axis and child predicates post-filter those pairs with
        :func:`is_parent_code` against the document's occupancy set.
        ``alive(node_id) -> bool`` restricts evaluation to live nodes
        of an updated document (both for element selection and for the
        occupancy set the parent test consults).  Returns the
        final-step codes, sorted.
        """
        if alive is None:
            occupied = set(tree.codes)
        else:
            occupied = {
                tree.codes[node]
                for node in range(len(tree))
                if alive(node)
            }

        def select(tree_, tag):
            codes = self._select_codes(tree_, tag)
            return [code for code in codes if code in occupied]

        current = self._apply_predicates(
            tree, select(tree, self.steps[0].tag), self.steps[0].predicates,
            join, occupied,
        )
        for step in self.steps[1:]:
            candidates = select(tree, step.tag)
            pairs = join(sorted(current), candidates)
            if step.axis == "child":
                matched = {
                    d for a, d in pairs if is_parent_code(occupied, a, d)
                }
            else:
                matched = {d for _a, d in pairs}
            current = self._apply_predicates(
                tree, sorted(matched), step.predicates, join, occupied
            )
        return sorted(current)

    @staticmethod
    def _select_codes(tree: DataTree, tag: str) -> list[int]:
        if tag == "*":
            return list(tree.codes)
        return [tree.codes[node] for node in tree.iter_by_tag(tag)]

    def _apply_predicates(
        self,
        tree: DataTree,
        codes: "list[int]",
        predicates: tuple[Predicate, ...],
        join: JoinFunc,
        occupied: "set[int]",
    ) -> list[int]:
        """Existence predicates as semijoins: keep ancestors with a hit."""
        current = codes
        for predicate in predicates:
            witnesses = self._select_codes(tree, predicate.tag)
            pairs = join(sorted(current), witnesses)
            if predicate.axis == "child":
                keep = {
                    a for a, d in pairs if is_parent_code(occupied, a, d)
                }
            else:
                keep = {a for a, _d in pairs}
            current = sorted(keep)
        return current

    def __repr__(self) -> str:
        return f"XPath({self.path!r})"
