"""Vectorized code-algebra kernels: the join operators' only hot path.

Every join in the paper reduces to streaming codes off pages and
applying pure integer algebra — ``F(n, h)`` rollups, Lemma 3/4
region/prefix conversions, and height-from-trailing-zeros.  The scalar
helpers in :mod:`.pbitree` pay one Python function call per element;
in interpreted Python that dispatch dominates wall time.  The kernels
here apply the *same* identities to whole code arrays in single list
comprehensions, with per-height masks precomputed once per batch
instead of once per element:

* ``height(c)            = bit_length(c & -c) - 1``     (Property 2)
* ``F(c, h)              = (c & -(1 << (h+1))) | (1 << h)``  (Property 1)
* ``height(c) >= h      <=> c & ((1 << h) - 1) == 0``
* ``start(c) = c - (c & -c) + 1``, ``end(c) = c + (c & -c) - 1``  (Lemma 3)
* ``prefix(c)            = c // (c & -c)``              (Lemma 4)

The document-order key ``(c & (c - 1)) << 64 | (2**64 - 1 - c)`` is
order-equivalent to the tuple ``(start, -height)`` and invertible.
``c & (c - 1)`` clears the lowest set bit, which is ``start(c) - 1``
(Lemma 3).  Codes that share a Start lie on one left spine, where the
larger code is the higher node, so the complemented code in the low
64 bits breaks those ties ancestor-first; and, since codes fit in 63
bits, it gives the code back (:func:`codes_of_doc_keys`).  So the
external sort and the merge joins order plain ints and never carry a
code beside its key.

Exactness contract: every kernel applies the scalar identities of
:mod:`.pbitree` (Property 1/2, Lemmas 1, 3 and 4) — same results, in
the same order, as mapping the scalar function over the array.  The
scalar functions are the paper's reference and the oracle the kernels
are tested against (``tests/test_batch.py``); the operators call only
the kernels (see docs/batched-execution.md).

This module is the only place outside :mod:`.pbitree` allowed to spell
the bit algebra: the ``code-domain`` checker confines ``<<``/``>>``/
``&`` on code-named values to ``repro/core``, so operators consume
these kernels by name.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Optional, Sequence, cast

from .pbitree import Height, PBiCode, PrefixCode, RegionCode

__all__ = [
    "heights",
    "rollup",
    "rollup_pairs",
    "probe_keys",
    "starts",
    "ends",
    "grow_codes",
    "regions",
    "prefixes",
    "doc_order_keys",
    "codes_of_doc_keys",
    "sort_doc_order",
    "range_filter",
    "descendants_in",
    "ancestors_in",
    "count_matches",
    "ancestor_points",
    "region_probe",
    "region_semi",
    "build_height_tables",
    "height_probe",
    "height_class_probe",
]

EmitFn = Callable[[int, int], None]


# ---------------------------------------------------------------------------
# bulk conversions (one comprehension per batch, no per-element calls)
# ---------------------------------------------------------------------------
def heights(codes: Sequence[int]) -> list[Height]:
    """Bulk :func:`~repro.core.pbitree.height_of` (Property 2)."""
    return cast(
        "list[Height]", [(c & -c).bit_length() - 1 for c in codes]
    )


def rollup(codes: Sequence[int], height: int) -> list[PBiCode]:
    """Bulk ``F(c, height)`` with the masks precomputed once.

    Callers must guarantee ``height_of(c) <= height`` for every code
    (the F value of a deeper target is not an ancestor); use
    :func:`rollup_pairs` or :func:`probe_keys` when the batch mixes
    heights.
    """
    keep = -(1 << (height + 1))
    bit = 1 << height
    return cast("list[PBiCode]", [(c & keep) | bit for c in codes])


def rollup_pairs(codes: Sequence[int], height: int) -> list[PBiCode]:
    """Bulk ``(effective, original)`` pair records for the MHCJ rollup,
    as one flat field list ``[e0, o0, e1, o1, ...]``.

    ``effective`` is ``F(c, height)`` for codes strictly below the
    target height and the code itself otherwise — exactly the serial
    ``effective_height`` of Algorithm 4.  A code sits below ``height``
    iff its low ``height`` bits are not all zero.
    """
    keep = -(1 << (height + 1))
    bit = 1 << height
    low = (1 << height) - 1
    fields = [0] * (2 * len(codes))
    fields[0::2] = [(c & keep) | bit if c & low else c for c in codes]
    fields[1::2] = codes
    return cast("list[PBiCode]", fields)


def probe_keys(codes: Sequence[int], height: int) -> list[int]:
    """Bulk SHCJ probe keys: ``F(c, height)``, or 0 for filtered codes.

    A descendant at height >= ``height`` cannot have an ancestor at
    ``height``, so it gets no key.  Codes are positive, so 0 is a safe
    in-band "no key" sentinel that keeps the kernel a single
    comprehension.
    """
    keep = -(1 << (height + 1))
    bit = 1 << height
    low = (1 << height) - 1
    return [(c & keep) | bit if c & low else 0 for c in codes]


def starts(codes: Sequence[int]) -> list[RegionCode]:
    """Bulk region ``Start`` (Lemma 3)."""
    return cast("list[RegionCode]", [c - (c & -c) + 1 for c in codes])


def ends(codes: Sequence[int]) -> list[RegionCode]:
    """Bulk region ``End`` (Lemma 3)."""
    return cast("list[RegionCode]", [c + (c & -c) - 1 for c in codes])


def grow_codes(codes: Sequence[int], delta: int) -> list[PBiCode]:
    """Bulk :func:`~repro.core.pbitree.grown_code`: one page of records
    shifted for a tree-growth rewrite (``H`` grew by ``delta``)."""
    return cast("list[PBiCode]", [c << delta for c in codes])


def regions(
    codes: Sequence[int],
) -> list[tuple[RegionCode, RegionCode]]:
    """Bulk ``(Start, End)`` regions (Lemma 3), one tuple per code."""
    return cast(
        "list[tuple[RegionCode, RegionCode]]",
        [(c - b + 1, c + b - 1) for c in codes for b in (c & -c,)],
    )


def prefixes(codes: Sequence[int]) -> list[PrefixCode]:
    """Bulk prefix codes (Lemma 4): ``c >> height(c) == c // lowbit``."""
    return cast("list[PrefixCode]", [c // (c & -c) for c in codes])


#: the low 64 bits of a doc-order key: the complemented code
_KEY_LOW = (1 << 64) - 1


def doc_order_keys(codes: Sequence[int]) -> list[int]:
    """Bulk invertible document-order keys.

    ``(c & (c - 1)) << 64 | (2**64 - 1 - c)`` sorts identically to the
    scalar ``doc_order_key`` tuple ``(start, -height)``: the high part
    is ``start(c) - 1``, and among codes with one Start (a left spine)
    the higher node has the larger code, hence the smaller low part.
    Equal keys mean equal codes.
    """
    low = _KEY_LOW
    return [(c & (c - 1)) << 64 | (low - c) for c in codes]


def codes_of_doc_keys(keys: Sequence[int]) -> list[PBiCode]:
    """The codes :func:`doc_order_keys` made ``keys`` from, in order."""
    low = _KEY_LOW
    return cast("list[PBiCode]", [low - (k & low) for k in keys])


def sort_doc_order(codes: Sequence[int]) -> list[PBiCode]:
    """Sort codes into document order: decorate, sort the plain int
    keys, undecorate."""
    keys = doc_order_keys(codes)
    keys.sort()
    return codes_of_doc_keys(keys)


def range_filter(
    codes: Sequence[int], low: int, high: int
) -> list[PBiCode]:
    """Codes within ``[low, high]`` inclusive, in input order."""
    return cast(
        "list[PBiCode]", [c for c in codes if low <= c <= high]
    )


def descendants_in(anc: int, codes: Sequence[int]) -> list[PBiCode]:
    """Proper descendants of ``anc`` among ``codes``, in input order.

    Bulk Lemma 1: ``d`` is a proper descendant iff its height is below
    ``anc``'s (low bits of ``d`` not all zero under ``anc``'s height
    mask) and ``F(d, height(anc)) == anc``.
    """
    bit = anc & -anc
    low = bit - 1
    keep = ~(bit * 2 - 1)
    return cast(
        "list[PBiCode]",
        [d for d in codes if d & low and (d & keep) | bit == anc],
    )


def ancestors_in(desc: int, codes: Sequence[int]) -> list[PBiCode]:
    """Proper ancestors of ``desc`` among ``codes``, in input order.

    The dual of :func:`descendants_in` with the mask computed per
    candidate (each ancestor has its own height): ``a`` is a proper
    ancestor iff ``desc`` sits strictly below ``a``'s height and
    ``F(desc, height(a)) == a``.
    """
    return cast(
        "list[PBiCode]",
        [
            a
            for a in codes
            for b in (a & -a,)
            if desc & (b - 1) and (desc & ~(b * 2 - 1)) | b == a
        ],
    )


def count_matches(anc: int, codes: Sequence[int]) -> int:
    """Count of proper descendants of ``anc`` among ``codes``."""
    bit = anc & -anc
    low = bit - 1
    keep = ~(bit * 2 - 1)
    return sum(1 for d in codes if d & low and (d & keep) | bit == anc)


# ---------------------------------------------------------------------------
# join kernels (pure CPU; the operators' batched hot path)
# ---------------------------------------------------------------------------
def ancestor_points(
    codes: Sequence[int], heights: Iterable[int]
) -> tuple[list[tuple[PBiCode, PBiCode]], list[tuple[RegionCode, RegionCode]]]:
    """INLJN's descendant-outer probes of one page (Property 1).

    The ancestors of ``d`` among a set whose node heights are
    ``heights`` can only be ``F(d, h)`` for the ``h`` above
    ``height(d)``.  Returns one ``(F(d, h), d)`` candidate per such
    ``(d, h)`` -- codes in input order, heights ascending -- and beside
    it the point range ``(start(F), start(F))`` that finds ``F`` in a
    Start index: ``start(F(d, h)) = (d & keep) + 1``.
    """
    masks = [(-(1 << (h + 1)), 1 << h, (1 << h) - 1) for h in sorted(heights)]
    bases = [(d & keep, bit, d) for d in codes for keep, bit, low in masks if d & low]
    return (
        cast(
            "list[tuple[PBiCode, PBiCode]]",
            [(base | bit, d) for base, bit, d in bases],
        ),
        cast(
            "list[tuple[RegionCode, RegionCode]]",
            [(base + 1, base + 1) for base, _bit, _d in bases],
        ),
    )


def region_probe(
    a_codes: Sequence[int],
    d_sorted: Sequence[int],
    emit: EmitFn,
    dedup_above_height: Optional[int] = None,
    seen_high: Optional[set[int]] = None,
) -> None:
    """Algorithm 6, D-fits branch, over one ancestor batch.

    ``d_sorted`` must be sorted ascending; each ancestor's descendants
    form a contiguous code range (Lemma 3) found with two binary
    searches.  ``dedup_above_height`` skips repeated replicated
    ancestors via the caller-owned ``seen_high`` set (shared across
    batches so the dedup window spans the whole stream).  Emission
    order: ancestors in input order, descendants ascending.
    """
    if dedup_above_height is None:
        for a in a_codes:
            b = a & -a
            lo = bisect_left(d_sorted, a - b + 1)
            hi = bisect_right(d_sorted, a + b - 1)
            for d in d_sorted[lo:hi]:
                if a != d:
                    emit(a, d)
        return
    if seen_high is None:
        seen_high = set()
    threshold = 1 << dedup_above_height
    for a in a_codes:
        b = a & -a
        if b > threshold:
            if a in seen_high:
                continue
            seen_high.add(a)
        lo = bisect_left(d_sorted, a - b + 1)
        hi = bisect_right(d_sorted, a + b - 1)
        for d in d_sorted[lo:hi]:
            if a != d:
                emit(a, d)


def region_semi(
    a_codes: Sequence[int],
    d_sorted: Sequence[int],
    survivors: set[int],
    keep_ancestors: bool,
    dedup_above_height: Optional[int] = None,
    seen_high: Optional[set[int]] = None,
) -> None:
    """Algorithm 6, D-fits branch, as a semijoin over one ancestor batch.

    Adds to ``survivors`` exactly the codes :func:`region_probe`'s pairs
    project to: their descendants, or with ``keep_ancestors`` their
    ancestors.  An ancestor's region ``[lo, hi)`` in ``d_sorted`` is
    found with two binary searches; a third cuts ``a`` itself out of it
    and the rest goes in with one C-level ``set.update``.  A kept
    ancestor needs a code other than itself in the region, which a
    sorted run has iff its first or last code differs from ``a``.
    Keeping descendants, an ancestor inside the region last taken is a
    descendant of that ancestor and adds nothing, so it is skipped, and
    ``dedup_above_height`` / ``seen_high`` skip repeated replicated
    ancestors as in :func:`region_probe`.
    """
    if keep_ancestors:
        add = survivors.add
        for a in a_codes:
            if a in survivors:
                continue
            b = a & -a
            lo = bisect_left(d_sorted, a - b + 1)
            hi = bisect_right(d_sorted, a + b - 1, lo)
            if lo < hi and (d_sorted[lo] != a or d_sorted[hi - 1] != a):
                add(a)
        return
    update = survivors.update
    threshold = None if dedup_above_height is None else 1 << dedup_above_height
    if seen_high is None:
        seen_high = set()
    # the region of the last ancestor taken (regions nest or are disjoint)
    cover_lo = cover_hi = 0
    for a in a_codes:
        if cover_lo <= a <= cover_hi:
            continue
        b = a & -a
        if threshold is not None and b > threshold:
            if a in seen_high:
                continue
            seen_high.add(a)
        cover_lo, cover_hi = a - b + 1, a + b - 1
        lo = bisect_left(d_sorted, cover_lo)
        hi = bisect_right(d_sorted, cover_hi, lo)
        mid = bisect_left(d_sorted, a, lo, hi)
        update(d_sorted[lo:mid])
        if mid < hi and d_sorted[mid] == a:
            mid = bisect_right(d_sorted, a, mid, hi)
        update(d_sorted[mid:hi])


def build_height_tables(
    codes: Sequence[int], tables: dict[int, set[int]]
) -> None:
    """Fold one ancestor batch into per-height hash sets (Algorithm 6).

    The sets de-duplicate replicated ancestors by construction.
    """
    get = tables.get
    for c in codes:
        h = (c & -c).bit_length() - 1
        bucket = get(h)
        if bucket is None:
            tables[h] = {c}
        else:
            bucket.add(c)


def height_probe(
    by_height: dict[int, set[int]],
    order: Sequence[int],
    d_codes: Sequence[int],
    emit: EmitFn,
    first_only: bool = False,
) -> None:
    """Algorithm 6, A-fits branch, over one descendant batch.

    ``order`` is the probe order of the heights (descending); probing
    stops at the descendant's own height, or with ``first_only`` at its
    first ancestor (a semijoin keeping descendants needs no more).  The
    per-height ``F`` masks are precomputed once per batch.
    """
    masks = [(h, -(1 << (h + 1)), 1 << h) for h in order]
    for d in d_codes:
        d_bit = d & -d
        for h, keep, bit in masks:
            if bit <= d_bit:
                break
            anc = (d & keep) | bit
            if anc in by_height[h]:
                emit(anc, d)
                if first_only:
                    break


def height_class_probe(
    table: dict[int, list[int]],
    height: int,
    d_codes: Sequence[int],
    emit: EmitFn,
) -> int:
    """One height class of MHCJ: probe + Lemma-1 verification.

    ``table`` maps an effective (possibly rolled) code at ``height`` to
    the original codes rolled into it.  A match through a rolled record
    is verified against the original (Lemma 1); failures are counted and
    returned as false hits.
    """
    keep = -(1 << (height + 1))
    bit = 1 << height
    low = (1 << height) - 1
    get = table.get
    false_hits = 0
    for d in d_codes:
        if not d & low:
            continue
        bucket = get((d & keep) | bit)
        if bucket is None:
            continue
        for original in bucket:
            if original == (d & keep) | bit:
                emit(original, d)
                continue
            o_bit = original & -original
            if d & (o_bit - 1) and (d & ~(o_bit * 2 - 1)) | o_bit == original:
                emit(original, d)
            else:
                false_hits += 1
    return false_hits
