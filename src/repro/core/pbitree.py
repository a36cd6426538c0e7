"""PBiTree code algebra (Section 2 of the paper).

A PBiTree is a *perfect* binary tree whose nodes are tagged with their
in-order traversal number (1-based).  For a PBiTree of height ``H`` the
coding space is ``[1, 2**H - 1]``; leaves have height 0 and the root has
height ``H - 1``.  The *level* of a node counts from the root downwards,
so ``level = H - height - 1``.

All functions in this module are pure integer arithmetic on codes; no
tree object is ever materialised.  This is the property the paper
exploits: the ancestor of a node at any height, its region code, and its
prefix code are all computable from the code alone with shifts and adds.

Terminology used throughout this package:

``code``
    The in-order number of a node in the PBiTree (``int >= 1``).
``height``
    Distance to the leaf level; encoded in the code itself as the
    position of the rightmost set bit (Property 2).
``level``
    Distance from the root; requires knowing the tree height ``H``.
``H``
    Height of the PBiTree, i.e. the number of levels.  A PBiTree of
    height ``H`` has levels ``0 .. H-1``.

Three interchangeable-looking ``int`` representations circulate in this
package — in-order codes, region ``(Start, End)`` boundaries (Lemma 3)
and prefix codes (Lemma 4) — and confusing them is a silent
wrong-answer bug.  They are therefore *distinct static types*
(:data:`PBiCode`, :data:`RegionCode`, :data:`PrefixCode`, plus
:data:`Height`), erased at runtime (``NewType``) so the code algebra
stays pure integer arithmetic.  Only this module (and :mod:`.encoding`)
may mint them; everything outside ``core/`` converts between domains by
calling the Lemma 3/4 helpers below — enforced by the ``code-domain``
checker in ``tools/analysis``.  A few hot one-line helpers return
the raw arithmetic under a ``type: ignore`` minting comment instead of
calling the ``NewType`` constructor: the constructor is a real function
call at runtime and would double their cost.
"""

from __future__ import annotations

from typing import NamedTuple, NewType

#: In-order number of a node in the PBiTree (Section 2.3).  The primary
#: code domain: every element set stores these, and every join algorithm
#: keys on them.
PBiCode = NewType("PBiCode", int)

#: One boundary of a region code — an in-order *leaf* number (Lemma 3).
#: ``Start``/``End`` live in a different coordinate system than
#: :data:`PBiCode` (they are leaf ordinals, not node codes); mixing the
#: two is the silent wrong-answer bug the type distinction prevents.
RegionCode = NewType("RegionCode", int)

#: Prefix code (Lemma 4): the code shifted right by its height, spelling
#: the root-to-node path.  Never comparable with :data:`PBiCode` or
#: :data:`RegionCode`.
PrefixCode = NewType("PrefixCode", int)

#: Height of a node above the leaf level (Property 2).  Distinct from a
#: *level* (distance from the root) and from the tree height ``H``;
#: plain ``int`` is accepted wherever a height is consumed, but values
#: produced by :func:`height_of` carry the tag.
Height = NewType("Height", int)

__all__ = [
    "PBiCode",
    "RegionCode",
    "PrefixCode",
    "Height",
    "Region",
    "TopDownCode",
    "height_of",
    "level_of",
    "f_ancestor",
    "g_code",
    "alpha_of",
    "top_down_of",
    "is_ancestor",
    "is_ancestor_or_self",
    "region_of",
    "start_of",
    "end_of",
    "prefix_of",
    "code_from_region_start",
    "lowest_common_ancestor",
    "coding_space_slice",
    "doc_order_key",
    "parent_of",
    "left_child_of",
    "right_child_of",
    "root_code",
    "max_code",
    "grown_code",
    "subtree_codes_at_height",
    "validate_code",
]


class Region(NamedTuple):
    """A ``(start, end)`` region code (Lemma 3).

    ``start`` and ``end`` are the in-order numbers of the leftmost and
    rightmost leaves of the node's subtree; containment of regions is
    equivalent to the ancestor-descendant relationship.
    """

    start: RegionCode
    end: RegionCode

    def contains(self, other: "Region") -> bool:
        """True if this region contains ``other`` and they differ.

        Unlike Zhang-style region codes (where all Starts are distinct
        and strict inequalities suffice), PBiTree regions share
        boundaries with the leaves of their own subtree: the region of
        a node *equals* its leftmost leaf's start and rightmost leaf's
        end.  Containment must therefore be inclusive; equality of
        regions implies equality of nodes, so excluding it yields the
        proper-ancestor relation (Lemma 3).
        """
        return (
            self.start <= other.start
            and other.end <= self.end
            and self != other
        )

    def contains_point(self, point: RegionCode) -> bool:
        """True if ``point`` lies within this region (inclusive)."""
        return self.start <= point <= self.end


class TopDownCode(NamedTuple):
    """A ``(level, alpha)`` top-down code (Lemma 2).

    ``alpha`` is the zero-based position of the node among the ``2**level``
    nodes of its level, counted left to right.
    """

    level: int
    alpha: int


def validate_code(code: int, tree_height: int | None = None) -> None:
    """Raise ``ValueError`` if ``code`` is not a valid PBiTree code.

    When ``tree_height`` is given, additionally checks that the code fits
    in the coding space ``[1, 2**tree_height - 1]``.
    """
    if code < 1:
        raise ValueError(f"PBiTree codes are positive integers, got {code}")
    if tree_height is not None and code > (1 << tree_height) - 1:
        raise ValueError(
            f"code {code} outside coding space [1, {(1 << tree_height) - 1}] "
            f"of a PBiTree of height {tree_height}"
        )


def height_of(code: PBiCode) -> Height:
    """Height of the node with this code (Property 2).

    The height equals the position of the rightmost '1' bit in the binary
    representation of the code (0-based).  E.g. ``18 = 0b10010`` has its
    rightmost set bit in position 1, so height 1.
    """
    return (code & -code).bit_length() - 1  # type: ignore[return-value]  # mint


def level_of(code: PBiCode, tree_height: int) -> int:
    """Level of the node (root is level 0) in a PBiTree of height ``tree_height``."""
    return tree_height - height_of(code) - 1


def f_ancestor(code: PBiCode, height: int) -> PBiCode:
    """The F function (Property 1): code of the ancestor at ``height``.

    ``F(n, h) = 2**(h+1) * floor(n / 2**(h+1)) + 2**h``, implemented with
    shifts.  For ``height == height_of(code)`` this returns ``code``
    itself (a node is its own "ancestor at its own height").
    """
    shift = height + 1
    return ((code >> shift) << shift) | (1 << height)  # type: ignore[return-value]  # mint


def g_code(alpha: int, level: int, tree_height: int) -> PBiCode:
    """The G function (Lemma 2): PBiTree code from a top-down code.

    ``G(alpha, l) = (1 + 2*alpha) * 2**(H - l - 1)``.
    """
    return PBiCode(((alpha << 1) | 1) << (tree_height - level - 1))


def alpha_of(code: PBiCode) -> int:
    """Zero-based left-to-right position of the node within its level.

    Inverse of :func:`g_code` in the ``alpha`` coordinate:
    ``alpha = (code >> height) >> 1`` since ``code = (2*alpha + 1) << height``.
    """
    return code >> (height_of(code) + 1)


def top_down_of(code: PBiCode, tree_height: int) -> TopDownCode:
    """Top-down ``(level, alpha)`` code of a node (inverse of Lemma 2)."""
    height = height_of(code)
    return TopDownCode(tree_height - height - 1, code >> (height + 1))


def is_ancestor(anc: PBiCode, desc: PBiCode) -> bool:
    """True if ``anc`` is a *proper* ancestor of ``desc`` (Lemma 1).

    ``anc`` is an ancestor of ``desc`` iff ``anc == F(desc, height(anc))``
    and the two nodes differ.
    """
    height = height_of(anc)
    if height <= height_of(desc):
        return False
    shift = height + 1
    return ((desc >> shift) << shift) | (1 << height) == anc


def is_ancestor_or_self(anc: PBiCode, desc: PBiCode) -> bool:
    """True if ``anc`` is ``desc`` or one of its ancestors."""
    return anc == desc or is_ancestor(anc, desc)


def start_of(code: PBiCode) -> RegionCode:
    """The ``Start`` component of the region code (Lemma 3)."""
    return code - ((1 << height_of(code)) - 1)  # type: ignore[return-value]  # mint


def end_of(code: PBiCode) -> RegionCode:
    """The ``End`` component of the region code (Lemma 3)."""
    return code + ((1 << height_of(code)) - 1)  # type: ignore[return-value]  # mint


def region_of(code: PBiCode) -> Region:
    """Region code ``(code - (2**h - 1), code + (2**h - 1))`` (Lemma 3).

    The region spans the in-order numbers of the node's whole subtree, so
    region containment coincides with the ancestor-descendant relation.
    """
    half = (1 << height_of(code)) - 1
    return Region(code - half, code + half)  # type: ignore[arg-type]  # mint


def code_from_region_start(start: RegionCode, height: int) -> PBiCode:
    """Recover a PBiTree code from its region ``start`` and node height.

    Inverse of :func:`start_of`; used when adapting region-based
    algorithms back to PBiTree codes.
    """
    return PBiCode(start + ((1 << height) - 1))


def prefix_of(code: PBiCode) -> PrefixCode:
    """Prefix code (Lemma 4): ``code >> height``.

    Every prefix code ends in a '1' bit (the node's own marker); the
    bits *above* it — ``prefix_of(code) >> 1`` — spell the root-to-node
    path (0 = left turn, 1 = right).  ``a`` is an ancestor-or-self of
    ``d`` iff ``a``'s path is a bit-prefix of ``d``'s::

        height_of(a) >= height_of(d) and
        prefix_of(d) >> (height_of(a) - height_of(d) + 1) == prefix_of(a) >> 1
    """
    return code >> height_of(code)  # type: ignore[return-value]  # mint


def lowest_common_ancestor(x: PBiCode, y: PBiCode) -> PBiCode:
    """Code of the lowest node dominating both ``x`` and ``y``.

    A node is its own ancestor here, so ``lca(x, x) == x`` and
    ``lca(anc, desc) == anc``.  Computed by raising both codes with
    ``F`` until they meet — O(height difference) shifts.
    """
    if x == y:
        return x
    height: int = max(height_of(x), height_of(y))
    while f_ancestor(x, height) != f_ancestor(y, height):
        height += 1
    return f_ancestor(x, height)


def coding_space_slice(code: PBiCode, slice_shift: int) -> int:
    """Positional-histogram slice of a code (Section 6 statistics).

    The coding space ``[1, 2**H - 1]`` is divided into
    ``2**(H - slice_shift)`` equal slices; a code's slice index is its
    high bits.  Equivalently, the slice of a code is the ``alpha``
    coordinate-pair of its ancestor at height ``slice_shift`` — which is
    why ``F`` commutes with this projection (exploited by the
    selectivity estimator).
    """
    return code >> slice_shift


def doc_order_key(code: PBiCode) -> tuple[int, int]:
    """Sort key realising document (pre-) order on codes.

    Ascending region ``Start`` with ties broken by descending ``End``
    (equivalently descending height): on a leftmost chain ancestor and
    descendant share a ``Start``, and document order puts the ancestor
    first.  This is the order the merge-based join algorithms require.
    """
    height = height_of(code)
    return code - ((1 << height) - 1), -height


def parent_of(code: PBiCode, tree_height: int | None = None) -> PBiCode:
    """Code of the parent node inside the PBiTree.

    Raises ``ValueError`` when asked for the parent of the root (the root
    is detected from ``tree_height`` when given, otherwise a root can not
    be detected and the mathematical parent is returned).
    """
    height = height_of(code)
    if tree_height is not None and height == tree_height - 1:
        raise ValueError(f"code {code} is the root of a height-{tree_height} PBiTree")
    return f_ancestor(code, height + 1)


def left_child_of(code: PBiCode) -> PBiCode:
    """Code of the left child inside the PBiTree (height must be > 0)."""
    height = height_of(code)
    if height == 0:
        raise ValueError(f"leaf code {code} has no children")
    return PBiCode(code - (1 << (height - 1)))


def right_child_of(code: PBiCode) -> PBiCode:
    """Code of the right child inside the PBiTree (height must be > 0)."""
    height = height_of(code)
    if height == 0:
        raise ValueError(f"leaf code {code} has no children")
    return PBiCode(code + (1 << (height - 1)))


def root_code(tree_height: int) -> PBiCode:
    """Code of the root of a PBiTree of height ``tree_height``."""
    if tree_height < 1:
        raise ValueError("a PBiTree has height >= 1")
    return PBiCode(1 << (tree_height - 1))


def max_code(tree_height: int) -> PBiCode:
    """Largest code in the coding space of a height-``tree_height`` PBiTree."""
    return PBiCode((1 << tree_height) - 1)


def grown_code(code: PBiCode, delta: int) -> PBiCode:
    """Code of the same node after the PBiTree grows by ``delta`` levels.

    Growing ``H`` preserves every node's top-down ``(level, alpha)``
    coordinates, and ``G(alpha, l)`` scales by ``2**delta`` when ``H``
    grows by ``delta`` — so the new code is one left shift.  This is
    the per-record kernel of the streamed grow rewrite in
    :mod:`repro.storage.docstore`.
    """
    return PBiCode(code << delta)


def subtree_codes_at_height(code: PBiCode, height: int) -> range:
    """All descendant codes of ``code`` that sit at ``height``.

    Returns a ``range`` (codes at one height are an arithmetic
    progression with stride ``2**(height+1)``), so membership tests and
    iteration are O(1)/O(k).  ``height`` must be strictly below the
    node's own height.
    """
    own = height_of(code)
    if height >= own:
        raise ValueError(
            f"height {height} is not below the node's height {own}"
        )
    start, end = region_of(code)
    first = start + ((1 << height) - 1)
    return range(first, end + 1, 1 << (height + 1))
