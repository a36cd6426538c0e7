"""Disk-based B+-tree over unsigned 64-bit keys.

Used by INLJN (probing the descendant set with ancestor regions) and by
Anc_Des_B+ (skipping non-participating elements), mirroring Minibase's
B+-tree module.  Keys are region ``Start`` values (duplicates allowed —
PBiTree starts collide on leftmost chains); values are PBiTree codes.

Node layout (one page per node)::

    byte  0      u8   node type: 0 = leaf, 1 = internal
    bytes 1..2   u16  entry count
    bytes 4..7   u32  leaf: next-leaf page id (0xFFFFFFFF = none)
                      internal: page id of the leftmost child
    bytes 8..    leaf:     (key u64, value u64) pairs
                 internal: (separator key u64, right child u32 + pad u32)

Supports bulk loading from sorted input (what on-the-fly index building
uses: sort, then build bottom-up at ~1 write per page) and ordinary
top-down insertion with node splits.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from itertools import islice
from typing import Iterable, Iterator, Sequence

from ..storage.buffer import BufferManager
from .staleness import StaleGuard

__all__ = ["BPlusTree", "LeafCursor"]

_LEAF, _INTERNAL = 0, 1
_NO_PAGE = 0xFFFFFFFF
_HEADER = struct.Struct("<BxHI")     # type, pad, count, link/child0
_LEAF_ENTRY = struct.Struct("<QQ")   # key, value
_INT_ENTRY = struct.Struct("<QII")   # key, child, pad
_HEADER_SIZE = 8
_MAX_KEY = (1 << 64) - 1


class _Node:
    """Decoded image of one B+-tree page."""

    __slots__ = ("page_id", "is_leaf", "keys", "values", "children", "next_leaf")

    def __init__(self, page_id: int, is_leaf: bool) -> None:
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.keys: list[int] = []
        self.values: list[int] = []      # leaf payloads
        self.children: list[int] = []    # internal: len(keys) + 1 page ids
        self.next_leaf: int | None = None


class BPlusTree(StaleGuard):
    """A B+-tree whose nodes live on buffer-managed pages.

    The tree is incrementally maintainable (:meth:`insert`,
    :meth:`delete`); tree growth shifts every key, so the update
    pipeline retires it then through the
    :class:`~repro.index.staleness.StaleGuard` base and rebuilds.
    """

    def __init__(self, bufmgr: BufferManager, name: str = "") -> None:
        self.bufmgr = bufmgr
        self.name = name
        page_size = bufmgr.disk.page_size
        self.leaf_capacity = (page_size - _HEADER_SIZE) // _LEAF_ENTRY.size
        self.internal_capacity = (page_size - _HEADER_SIZE) // _INT_ENTRY.size
        if self.leaf_capacity < 2 or self.internal_capacity < 2:
            raise ValueError("page size too small for a B+-tree node")
        self.root_page: int | None = None
        self.height = 0
        self.num_entries = 0
        #: every node page, in allocation order (what :meth:`destroy` frees)
        self._page_ids: list[int] = []
        #: decoded-node cache.  Every hit still touches the page, so
        #: buffer and I/O accounting are those of a fresh decode; only
        #: the repeated per-entry decode is skipped.  Writes invalidate.
        self._node_cache: dict[int, _Node] = {}

    @property
    def num_nodes(self) -> int:
        return len(self._page_ids)

    def destroy(self) -> None:
        """Free every node page (no I/O charged, like
        :meth:`~repro.storage.heapfile.HeapFile.destroy`); the tree is
        empty afterwards."""
        for page_id in self._page_ids:
            self.bufmgr.discard_page(page_id)
            self.bufmgr.disk.deallocate(page_id)
        self._page_ids = []
        self._node_cache = {}
        self.root_page = None
        self.height = 0
        self.num_entries = 0

    # ------------------------------------------------------------------
    # node (de)serialisation
    # ------------------------------------------------------------------
    def _read_node(self, page_id: int) -> _Node:
        cached = self._node_cache.get(page_id)
        if cached is not None:
            # touch the page so buffer accounting matches a real read
            self.bufmgr.touch(page_id)
            return cached
        frame = self.bufmgr.pin(page_id)
        try:
            data = frame.data
            node_type, count, link = _HEADER.unpack_from(data, 0)
            node = _Node(page_id, node_type == _LEAF)
            # one bulk unpack + extended slices instead of a per-entry
            # loop; formats are explicitly "<" so the decode stays
            # endianness-faithful
            if node.is_leaf:
                node.next_leaf = None if link == _NO_PAGE else link
                flat = struct.unpack_from(
                    "<" + "Q" * (2 * count), data, _HEADER_SIZE
                )
                node.keys = list(flat[0::2])
                node.values = list(flat[1::2])
            else:
                flat = struct.unpack_from(
                    "<" + "QII" * count, data, _HEADER_SIZE
                )
                node.keys = list(flat[0::3])
                node.children = [link, *flat[1::3]]
            self._node_cache[page_id] = node
            return node
        finally:
            self.bufmgr.unpin(page_id)

    def _write_node(self, node: _Node) -> None:
        self._node_cache.pop(node.page_id, None)
        count = len(node.keys)
        if node.is_leaf:
            link = _NO_PAGE if node.next_leaf is None else node.next_leaf
            header = (_LEAF, count, link)
            fmt = _HEADER.format + "QQ" * count
            flat = [0] * (2 * count)
            flat[0::2] = node.keys
            flat[1::2] = node.values
        else:
            header = (_INTERNAL, count, node.children[0])
            fmt = _HEADER.format + "QII" * count
            flat = [0] * (3 * count)   # the pad words stay 0
            flat[0::3] = node.keys
            flat[1::3] = node.children[1:]
        frame = self.bufmgr.pin(node.page_id)
        try:
            struct.pack_into(fmt, frame.data, 0, *header, *flat)
        finally:
            self.bufmgr.unpin(node.page_id, dirty=True)

    def _new_node(self, is_leaf: bool) -> _Node:
        frame = self.bufmgr.new_page()
        try:
            self._page_ids.append(frame.page_id)
            return _Node(frame.page_id, is_leaf)
        finally:
            self.bufmgr.unpin(frame.page_id, dirty=True)

    # ------------------------------------------------------------------
    # bulk loading
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        bufmgr: BufferManager,
        entries: Iterable[tuple[int, int]],
        name: str = "",
        fill_factor: float = 1.0,
    ) -> "BPlusTree":
        """Build a tree bottom-up from (key, value) pairs sorted by key.

        Leaves fill a leaf per step: pull the leaf's first entry,
        allocate its page, write the previous leaf, then pull the rest
        with ``islice`` — the order in which an entry-at-a-time load
        reads the source's pages and allocates and writes its own.  A
        failed load (unsorted input, a storage fault) frees its pages.
        """
        if not 0.1 <= fill_factor <= 1.0:
            raise ValueError("fill factor must be in [0.1, 1.0]")
        tree = cls(bufmgr, name)
        per_leaf = max(2, int(tree.leaf_capacity * fill_factor))
        per_internal = max(2, int(tree.internal_capacity * fill_factor))
        source = iter(entries)
        level: list[tuple[int, int]] = []  # (first key, page id)
        node: _Node | None = None
        try:
            for first in source:
                previous = node
                node = tree._new_node(is_leaf=True)
                if previous is not None:
                    previous.next_leaf = node.page_id
                    tree._write_node(previous)
                chunk = [first, *islice(source, per_leaf - 1)]
                keys = [key for key, _value in chunk]
                if keys != sorted(keys) or (
                    previous is not None and keys[0] < previous.keys[-1]
                ):
                    raise ValueError("bulk_load input must be sorted by key")
                node.keys = keys
                node.values = [value for _key, value in chunk]
                tree.num_entries += len(chunk)
                level.append((keys[0], node.page_id))
            if node is not None:
                tree._write_node(node)
            while len(level) > 1:
                level = tree._build_internal_level(level, per_internal)
                tree.height += 1
        except BaseException:
            tree.destroy()
            raise
        if level:
            tree.height += 1
            tree.root_page = level[0][1]
        return tree

    def _build_internal_level(
        self, children: list[tuple[int, int]], per_node: int
    ) -> list[tuple[int, int]]:
        """Group ``(first_key, page_id)`` children under internal nodes."""
        parents: list[tuple[int, int]] = []
        for start in range(0, len(children), per_node + 1):
            group = children[start:start + per_node + 1]
            node = self._new_node(is_leaf=False)
            node.children = [page_id for _key, page_id in group]
            node.keys = [key for key, _page_id in group[1:]]
            self._write_node(node)
            parents.append((group[0][0], node.page_id))
        return parents

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, key: int, value: int) -> None:
        """Insert one entry (duplicates allowed)."""
        if self.root_page is None:
            root = self._new_node(is_leaf=True)
            root.keys.append(key)
            root.values.append(value)
            self._write_node(root)
            self.root_page = root.page_id
            self.height = 1
            self.num_entries = 1
            return
        split = self._insert_into(self.root_page, key, value)
        self.num_entries += 1
        if split is not None:
            sep_key, right_page = split
            new_root = self._new_node(is_leaf=False)
            new_root.children = [self.root_page, right_page]
            new_root.keys = [sep_key]
            self._write_node(new_root)
            self.root_page = new_root.page_id
            self.height += 1

    def _insert_into(
        self, page_id: int, key: int, value: int
    ) -> tuple[int, int] | None:
        """Insert under ``page_id``; return (separator, new right page) on split."""
        node = self._read_node(page_id)
        if node.is_leaf:
            pos = bisect_right(node.keys, key)
            node.keys.insert(pos, key)
            node.values.insert(pos, value)
            if len(node.keys) <= self.leaf_capacity:
                self._write_node(node)
                return None
            return self._split_leaf(node)
        slot = bisect_right(node.keys, key)
        split = self._insert_into(node.children[slot], key, value)
        if split is None:
            return None
        sep_key, right_page = split
        node.keys.insert(slot, sep_key)
        node.children.insert(slot + 1, right_page)
        if len(node.keys) <= self.internal_capacity:
            self._write_node(node)
            return None
        return self._split_internal(node)

    def _split_leaf(self, node: _Node) -> tuple[int, int]:
        mid = len(node.keys) // 2
        right = self._new_node(is_leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        right.next_leaf = node.next_leaf
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        node.next_leaf = right.page_id
        self._write_node(right)
        self._write_node(node)
        return right.keys[0], right.page_id

    def _split_internal(self, node: _Node) -> tuple[int, int]:
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right = self._new_node(is_leaf=False)
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        self._write_node(right)
        self._write_node(node)
        return sep_key, right.page_id

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def delete(self, key: int, value: int) -> bool:
        """Remove one ``(key, value)`` entry; True if it was present.

        Leaf-local: the entry is cut out of its leaf page and the count
        rewritten.  No rebalancing or page reclamation is attempted —
        underfull (even empty) leaves stay in the chain and search
        walks through them — which keeps a delete a one-page patch,
        the property the incremental update pipeline
        (:mod:`repro.storage.docstore`) relies on.  Duplicates of
        ``key`` are disambiguated by ``value``; with several identical
        ``(key, value)`` entries one arbitrary instance is removed.
        """
        self.check_fresh()
        node = self._descend_to_leaf(key)
        while node is not None:
            pos = bisect_left(node.keys, key)
            while pos < len(node.keys) and node.keys[pos] == key:
                if node.values[pos] == value:
                    del node.keys[pos]
                    del node.values[pos]
                    self._write_node(node)
                    self.num_entries -= 1
                    return True
                pos += 1
            if pos < len(node.keys) or node.next_leaf is None:
                return False  # walked past the key (or off the chain)
            node = self._read_node(node.next_leaf)
        return False

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _descend_to_leaf(self, key: int) -> _Node | None:
        """Leftmost leaf that may contain ``key``.

        Descends with ``bisect_left``: duplicate keys may straddle a
        node boundary (the separator equals the key), and a range scan
        must start at the *first* duplicate — the forward leaf chain
        picks up the rest.  Callers check freshness first.
        """
        if self.root_page is None:
            return None
        node = self._read_node(self.root_page)
        while not node.is_leaf:
            slot = bisect_left(node.keys, key)
            node = self._read_node(node.children[slot])
        return node

    def search(self, key: int) -> list[int]:
        """All values stored under exactly ``key``."""
        return self.range_values_many(((key, key),))[0]

    def range_values(self, lo: int, hi: int) -> list[int]:
        """Values of every entry with ``lo <= key <= hi``, in key order."""
        return self.range_values_many(((lo, hi),))[0]

    def range_values_many(
        self, ranges: Iterable[tuple[int, int]]
    ) -> list[list[int]]:
        """:meth:`range_values` of each ``(lo, hi)``, as one batch.

        The INLJN probe of a whole outer page: every range descends
        from the root and walks the leaf chain until a key passes
        ``hi``, reading exactly the nodes, in the order, that a drained
        ``range_scan(lo, hi)`` per range reads.  Freshness is checked
        once, for the whole batch.
        """
        self.check_fresh()
        results: list[list[int]] = []
        root = self.root_page
        cached = self._node_cache.get
        touch = self.bufmgr.touch
        read = self._read_node
        for lo, hi in ranges:
            values: list[int] = []
            results.append(values)
            page_id = root
            while page_id is not None:
                node = cached(page_id)
                if node is None:
                    node = read(page_id)
                else:
                    touch(page_id)
                keys = node.keys
                if not node.is_leaf:
                    page_id = node.children[bisect_left(keys, lo)]
                    continue
                position = bisect_left(keys, lo)
                cut = bisect_right(keys, hi, position)
                values += node.values[position:cut]
                page_id = node.next_leaf if cut == len(keys) else None
        return results

    def range_scan(
        self,
        lo: int,
        hi: int,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Iterator[tuple[int, int]]:
        """Yield (key, value) pairs with ``lo <= key <= hi`` (bounds optional).

        A generator over a :class:`LeafCursor`: the next leaf is read
        (after a freshness check) only once the consumer has drained
        the current one's in-range entries, so a ``mark_stale`` landing
        while the generator is suspended raises at the next leaf.
        """
        cursor = LeafCursor(self)
        cursor.seek(lo, include_lo)
        cut_at = bisect_right if include_hi else bisect_left
        while True:
            keys, position = cursor.keys, cursor.position
            cut = cut_at(keys, hi, position)
            yield from zip(keys[position:cut], cursor.values[position:cut])
            if cut < len(keys) or not cursor.next_leaf():
                return

    def first_geq(self, key: int) -> tuple[int, int] | None:
        """The smallest entry with key >= ``key``."""
        return next(self.range_scan(key, _MAX_KEY), None)

    def scan_all(self) -> Iterator[tuple[int, int]]:
        """Full in-order scan."""
        if self.num_entries:
            yield from self.range_scan(0, _MAX_KEY)

    def __len__(self) -> int:
        return self.num_entries

    def __repr__(self) -> str:
        return (
            f"<BPlusTree {self.name!r} entries={self.num_entries} "
            f"height={self.height} nodes={self.num_nodes}>"
        )


class LeafCursor:
    """A position in a tree's leaf chain, moved a leaf at a time.

    ``keys`` / ``values`` are the current leaf's decoded lists (the
    node cache's: read only), empty past the chain's end; ``position``
    is the next entry.  :meth:`seek` descends and :meth:`next_leaf`
    reads the next leaf, each after a freshness check; the owner
    decides when.  Every leaf entered is cut at the seek bound, so
    duplicates of an exclusive ``lo`` past the first leaf stay
    excluded.
    """

    __slots__ = ("tree", "keys", "values", "position", "_next", "_lo", "_include_lo")

    def __init__(self, tree: BPlusTree) -> None:
        self.tree = tree
        self.keys: Sequence[int] = []
        self.values: Sequence[int] = []
        self.position = 0
        self._next: int | None = None
        self._lo = 0
        self._include_lo = True

    def seek(self, lo: int, include_lo: bool = True) -> None:
        """Land on the leftmost leaf that may hold ``lo``, at its first
        key ``>= lo`` (``> lo`` when ``include_lo`` is false)."""
        self._lo = lo
        self._include_lo = include_lo
        tree = self.tree
        tree.check_fresh()
        self._enter(tree._descend_to_leaf(lo))

    def next_leaf(self) -> bool:
        """Read the next leaf; False (and empty) at the end of the chain."""
        self.tree.check_fresh()
        page_id = self._next
        self._enter(None if page_id is None else self.tree._read_node(page_id))
        return page_id is not None

    def _enter(self, node: _Node | None) -> None:
        if node is None:
            self.keys = self.values = []
            self.position = 0
            self._next = None
        else:
            self.keys, self.values = node.keys, node.values
            cut = bisect_left if self._include_lo else bisect_right
            self.position = cut(node.keys, self._lo)
            self._next = node.next_leaf
