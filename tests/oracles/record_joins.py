"""Element-at-a-time join loops: the I/O oracle for the page-local ones.

:func:`probe_descendant_index` probes INLJN's Start index once per
ancestor with a separately checked :func:`range_values`;
:func:`stacktree_merge` consumes Stack-Tree-Desc runs with one
``seek`` per run; :func:`adb_merge` drives Anc_Des_B+ through
:class:`IndexCursor`, a cursor over the lazy :func:`range_scan`
generator; :func:`bulk_load` builds a B+-tree one entry at a time.
The engine's batched probes, page-array merges, leaf cursors and
leaf-at-a-time load must reproduce their page reads, allocations and
writes, buffer hits/misses and emitted pairs exactly;
``tests/test_paged_io.py`` swaps these in and compares.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Iterator, Optional

from repro.core import batch, pbitree
from repro.index.bptree import BPlusTree, _Node
from repro.join.base import JoinSink
from repro.join.cursor import SetCursor
from repro.storage.buffer import BufferManager
from repro.storage.elementset import ElementSet

__all__ = [
    "IndexCursor",
    "adb_merge",
    "bulk_load",
    "probe_descendant_index",
    "range_scan",
    "range_values",
    "stacktree_merge",
]

_MAX_KEY = (1 << 64) - 1

Emit = Callable[[int, int], None]


# ----------------------------------------------------------------------
# B+-tree: one probe, one lazy scan, one entry at a time
# ----------------------------------------------------------------------
def range_values(tree: BPlusTree, lo: int, hi: int) -> list[int]:
    """Values with ``lo <= key <= hi``: one checked descent and walk."""
    tree.check_fresh()
    node = tree._descend_to_leaf(lo)
    if node is None:
        return []
    position = bisect_left(node.keys, lo)
    values: list[int] = []
    while True:
        cut = bisect_right(node.keys, hi, position)
        values += node.values[position:cut]
        if cut < len(node.keys) or node.next_leaf is None:
            return values
        node = tree._read_node(node.next_leaf)
        position = 0


def range_scan(tree: BPlusTree, lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """Lazy ``(key, value)`` walk over ``lo <= key <= hi``: freshness
    is checked before the descent and before the next leaf is read,
    when the consumer pulls past the last entry of a leaf."""
    tree.check_fresh()
    node = tree._descend_to_leaf(lo)
    if node is None:
        return
    position = bisect_left(node.keys, lo)
    while True:
        cut = bisect_right(node.keys, hi, position)
        entries = list(zip(node.keys[position:cut], node.values[position:cut]))
        done = cut < len(node.keys)
        yield from entries
        if done:
            return
        tree.check_fresh()
        if node.next_leaf is None:
            return
        node = tree._read_node(node.next_leaf)
        position = 0


def bulk_load(
    cls: type[BPlusTree],
    bufmgr: BufferManager,
    entries: Iterable[tuple[int, int]],
    name: str = "",
    fill_factor: float = 1.0,
) -> BPlusTree:
    """``BPlusTree.bulk_load`` pulling, checking and placing one entry
    per step (a failed build frees its pages, like the engine's)."""
    if not 0.1 <= fill_factor <= 1.0:
        raise ValueError("fill factor must be in [0.1, 1.0]")
    tree = cls(bufmgr, name)
    per_leaf = max(2, int(tree.leaf_capacity * fill_factor))
    per_internal = max(2, int(tree.internal_capacity * fill_factor))
    leaves: list[tuple[int, int]] = []
    try:
        node: Optional[_Node] = None
        last_key: Optional[int] = None
        for key, value in entries:
            if last_key is not None and key < last_key:
                raise ValueError("bulk_load input must be sorted by key")
            last_key = key
            if node is None or len(node.keys) >= per_leaf:
                fresh = tree._new_node(is_leaf=True)
                if node is not None:
                    node.next_leaf = fresh.page_id
                    tree._write_node(node)
                node = fresh
                leaves.append((key, node.page_id))
            node.keys.append(key)
            node.values.append(value)
            tree.num_entries += 1
        if node is not None:
            tree._write_node(node)
        level = leaves
        while len(level) > 1:
            level = tree._build_internal_level(level, per_internal)
            tree.height += 1
    except BaseException:
        tree.destroy()
        raise
    if leaves:
        tree.height += 1
        tree.root_page = level[0][1]
    return tree


# ----------------------------------------------------------------------
# the three operators' element-at-a-time loops
# ----------------------------------------------------------------------
def probe_descendant_index(
    ancestors: ElementSet, index: BPlusTree, sink: JoinSink
) -> None:
    """INLJN, outer A: one checked range probe per ancestor."""
    for a_page in ancestors.scan_pages():
        for a_code, (start, end) in zip(a_page, batch.regions(a_page)):
            for d_code in batch.descendants_in(a_code, range_values(index, start, end)):
                sink.emit(a_code, d_code)


def stacktree_merge(a_cursor: SetCursor, d_cursor: SetCursor, emit: Emit) -> None:
    """Stack-Tree-Desc consuming a run of ancestors or of descendants
    per step, bisected out of the cursors' cached doc-key arrays."""
    stack: list[tuple[int, int]] = []  # (end, code), top = innermost
    while d_cursor.current is not None:
        a_key: Optional[int] = None
        if a_cursor.current is not None:
            d_key = d_cursor.page_doc_keys()[d_cursor.slot]
            a_keys = a_cursor.page_doc_keys()
            i = a_cursor.slot
            j = bisect_right(a_keys, d_key, lo=i)
            if j > i:
                assert a_cursor.page is not None
                run = a_cursor.page[i:j]
                for a_code, a_start, a_end in zip(
                    run, a_cursor.page_starts()[i:j], batch.ends(run)
                ):
                    while stack and stack[-1][0] < a_start:
                        stack.pop()
                    stack.append((a_end, a_code))
                a_cursor.seek(j)
                continue
            a_key = a_keys[i]
        d_page = d_cursor.page
        assert d_page is not None
        d_keys = d_cursor.page_doc_keys()
        i = d_cursor.slot
        j = len(d_keys) if a_key is None else bisect_left(d_keys, a_key, lo=i)
        for d_code, d_start in zip(d_page[i:j], d_cursor.page_starts()[i:j]):
            while stack and stack[-1][0] < d_start:
                stack.pop()
            for _end, s_code in stack:
                if s_code != d_code:
                    emit(s_code, d_code)
        d_cursor.seek(j)


class IndexCursor:
    """Forward cursor over a Start index's ``(start, code)`` entries,
    one :func:`range_scan` pull per step, a new scan per skip."""

    def __init__(self, index: BPlusTree) -> None:
        self.index = index
        self.probes = 0
        self._scan: Iterator[tuple[int, int]] = iter(())
        if index.num_entries:
            self._scan = range_scan(index, 0, _MAX_KEY)
        self.current: Optional[tuple[int, int]] = None
        self.advance()

    def advance(self) -> None:
        self.current = next(self._scan, None)

    def skip_to(self, key: int) -> None:
        self.probes += 1
        self._scan = range_scan(self.index, key, _MAX_KEY)
        self.advance()


def adb_merge(
    a_index: BPlusTree, d_index: BPlusTree, emit: Emit
) -> tuple[int, int]:
    """Anc_Des_B+: Stack-Tree-Desc one entry per step, skipping with an
    index descent whenever the stack is empty."""
    doc_key = pbitree.doc_order_key
    end_of = pbitree.end_of
    a_cursor = IndexCursor(a_index)
    d_cursor = IndexCursor(d_index)
    stack: list[tuple[int, int]] = []  # (end, code)
    while d_cursor.current is not None:
        if not stack and a_cursor.current is None:
            break
        if not stack and a_cursor.current is not None:
            a_start, a_code = a_cursor.current
            d_start = d_cursor.current[0]
            a_end = end_of(a_code)
            if a_end < d_start:
                a_cursor.skip_to(a_end + 1)
                continue
            if d_start < a_start:
                d_cursor.skip_to(a_start)
                continue
        a_entry = a_cursor.current
        d_start, d_code = d_cursor.current
        if a_entry is not None and doc_key(a_entry[1]) <= doc_key(d_code):
            a_start, a_code = a_entry
            while stack and stack[-1][0] < a_start:
                stack.pop()
            stack.append((end_of(a_code), a_code))
            a_cursor.advance()
        else:
            while stack and stack[-1][0] < d_start:
                stack.pop()
            for _end, s_code in stack:
                if s_code != d_code:
                    emit(s_code, d_code)
            d_cursor.advance()
    return a_cursor.probes, d_cursor.probes
