"""Storage-backed incremental update pipeline.

:class:`DocumentStore` keeps the persisted :class:`ElementSet` pages of
a document consistent with a live
:class:`~repro.core.update.UpdatableEncoding` as it mutates.  It
subscribes to the encoding's :class:`~repro.core.update.ChangeEvent`
stream, buffers the events as an **update log** (one queue per
materialised tag), and applies them lazily — on the next
:meth:`element_set` access or an explicit :meth:`flush` — as in-place
page patches:

* **insert** — append through ``open_writer(resume=True)``: the new
  record lands in the last page's free space, or on one fresh page.
* **delete** — one-page-local: the freed slot is filled by swapping in
  the *last record of the same page* and the page's record count is
  decremented.  Records therefore stay densely packed per page, and a
  delete never touches a second page.  Mid-file pages may end up
  underfull; only :meth:`compact` reclaims that slack (inserts always
  append — refilling interior holes would make insert placement a
  file-wide search instead of an O(1) tail write).
* **relabel** — a batched subtree relabel overwrites each moved code
  in place at its ``(page, slot)`` — the patch set touches exactly the
  pages holding the affected subtree's records.  Once every page is
  patched, all old codes leave the directory before any new one enters
  (intra-batch collisions are legal, see
  :class:`~repro.core.update.ChangeEvent`).
* **grow** — a global relabel is a *streamed rewrite*: every page is
  patched once, each record shifted by ``delta`` via the core kernels
  (:func:`~repro.core.batch.grow_codes`) — one pass, one shift per
  record, page count unchanged.  Progress is tracked per page so an
  interrupted rewrite resumes where it stopped.

A per-tag **directory** ``code -> (page position, slot)`` makes every
patch O(affected records); it mirrors exactly what the pages hold, so
tests can cross-check it against a raw scan.

**Statistics.**  Each set's
:class:`~repro.storage.histogram.PositionHistogram` (``(height,
slice) -> count``, the planner's only statistic) is kept exact in
place: an insert or delete moves one count, a relabel moves one per
code, and a grow maps every ``(h, s)`` to ``(h + delta, s)`` — a left
shift by ``delta`` leaves a code's top six bits, its slice, where they
were.  Like the directory, and like popping a log record, the
histogram moves only after its page patch succeeded, so a fault
mid-apply leaves it describing exactly the records applied so far,
and the retried drain applies the rest once.

**Index maintenance.**  The B+-tree start index is maintained
incrementally (``insert``/``delete``/relabel as delete+insert); tree
growth shifts every key, so growth retires it
(:class:`~repro.index.staleness.StaleIndexError` on a later probe of
the old reference) and the store rebuilds it on next access.
Invalidate-and-rebuild is behind the same accessor, so callers always
receive a fresh index.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core import batch, pbitree
from ..core.pbitree import PBiCode
from ..core.update import ChangeEvent, UpdatableEncoding
from ..datatree.node import is_element_tag
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from . import page as page_layout
from .buffer import BufferManager
from .elementset import ElementSet
from .histogram import PositionHistogram

if TYPE_CHECKING:
    from ..index.bptree import BPlusTree

__all__ = ["UpdateLogRecord", "DocumentStore", "ALL"]

#: the pseudo-tag of the set that holds every live element (a path's
#: ``*`` step); maintained by the same log and page patches as a tag
ALL = "*"


@dataclass(frozen=True)
class UpdateLogRecord:
    """One buffered mutation of one tag's element set.

    ``op`` is ``"insert"`` (``code`` arrives), ``"delete"`` (``code``
    leaves), ``"relabel"`` (``moves`` holds ``(old, new)`` pairs of one
    batched subtree relabel) or ``"grow"`` (every record shifts left by
    ``delta``).  Records carry explicit codes so application never
    consults the (already further mutated) in-memory encoding.
    """

    op: str
    code: int = 0
    moves: tuple[tuple[int, int], ...] = ()
    delta: int = 0


class _TagStore:
    """Persisted state of one tag: pages, directory, log, indexes."""

    __slots__ = (
        "tag", "elements", "directory", "page_counts", "pending",
        "grow_done", "start_index",
    )

    def __init__(self, tag: str, elements: ElementSet) -> None:
        self.tag = tag
        self.elements = elements
        #: code -> (page position in the file, record slot on the page)
        self.directory: dict[int, tuple[int, int]] = {}
        #: per-page record counts (mirror of the on-page headers)
        self.page_counts: list[int] = []
        self.pending: deque[UpdateLogRecord] = deque()
        #: pages already rewritten of an in-progress grow (resume point)
        self.grow_done = 0
        self.start_index: Optional["BPlusTree"] = None


class DocumentStore:
    """Keeps ElementSet pages and indexes consistent with an encoding."""

    def __init__(
        self,
        bufmgr: BufferManager,
        encoding: UpdatableEncoding,
        name: str = "doc",
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.bufmgr = bufmgr
        self.encoding = encoding
        self.name = name
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._tags: dict[str, _TagStore] = {}
        #: bumped whenever buffered updates apply to any tag's pages —
        #: the service plan cache keys on this to invalidate cached
        #: plans when the dataset a plan was costed against changes
        self.version = 0
        # the encoding holds the store weakly: a bound ``_on_change`` in
        # its listeners would close a store -> encoding -> store cycle
        # that only the cycle collector frees
        on_change = weakref.WeakMethod(self._on_change)

        def listener(event: ChangeEvent) -> None:
            method = on_change()
            if method is not None:
                method(event)

        self._listener = listener
        encoding.listeners.append(listener)

    def detach(self) -> None:
        """Stop receiving change events (keeps the persisted state)."""
        try:
            self.encoding.listeners.remove(self._listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # the update log (listener side)
    # ------------------------------------------------------------------
    def _on_change(self, event: ChangeEvent) -> None:
        """Fold one encoding mutation into the per-tag update logs.

        Only materialised tags log anything — an unmaterialised tag's
        first :meth:`element_set` builds from the current encoding
        state, which already includes this event.
        """
        if self.metrics is not None:
            self.metrics.counter(f"docstore.events.{event.kind}").inc()
        tags = self.encoding.tree.tags
        if event.kind in ("insert", "delete"):
            node_tag = tags[event.node]
            names = {node_tag, ALL} if is_element_tag(node_tag) else {node_tag}
            for tag in names:
                store = self._tags.get(tag)
                if store is not None:
                    store.pending.append(UpdateLogRecord(
                        event.kind, code=event.new_code or event.old_code
                    ))
        elif event.kind == "relabel":
            by_tag: dict[str, list[tuple[int, int]]] = {}
            for node, old_code, new_code in event.moves:
                tag = tags[node]
                if tag in self._tags:
                    by_tag.setdefault(tag, []).append((old_code, new_code))
            if ALL in self._tags:
                moved = [
                    (old, new)
                    for node, old, new in event.moves
                    if is_element_tag(tags[node])
                ]
                if moved:
                    by_tag[ALL] = moved
            for tag, moves in by_tag.items():
                self._tags[tag].pending.append(
                    UpdateLogRecord("relabel", moves=tuple(moves))
                )
        elif event.kind == "grow":
            for store in self._tags.values():
                store.pending.append(UpdateLogRecord("grow", delta=event.delta))

    def pending_updates(self, tag: Optional[str] = None) -> int:
        """Buffered log records not yet applied (one tag, or all)."""
        if tag is not None:
            store = self._tags.get(tag)
            return len(store.pending) if store is not None else 0
        return sum(len(store.pending) for store in self._tags.values())

    # ------------------------------------------------------------------
    # materialisation and access
    # ------------------------------------------------------------------
    def element_set(self, tag: str) -> ElementSet:
        """The maintained on-disk element set for ``tag``.

        First access materialises from the live encoding; later
        accesses apply any buffered update log first, so the returned
        set always reflects every mutation made so far.  A tag with no
        live element gets a fresh empty set that the store does not
        keep: a path naming a tag the document lacks must not leave a
        set (and its update log) behind.
        """
        if tag not in self._tags:
            codes = self._live_codes(tag)
            if not codes:
                return ElementSet.from_codes(
                    self.bufmgr, codes, self.encoding.tree_height,
                    name=f"{self.name}//{tag}",
                )
            self._tags[tag] = self._materialize(tag, codes)
        return self._fresh_store(tag).elements

    def tags(self) -> list[str]:
        """Materialised tags, sorted."""
        return sorted(self._tags)

    def _fresh_store(self, tag: str) -> _TagStore:
        store = self._tags.get(tag)
        if store is None:
            store = self._materialize(tag, self._live_codes(tag))
            self._tags[tag] = store
        elif store.pending:
            self._apply(store)
        return store

    def _live_codes(self, tag: str) -> list[int]:
        """The live codes of ``tag`` (of every element for :data:`ALL`,
        not the ``@name`` / ``#text`` pseudo-nodes), in document order."""
        encoding = self.encoding
        tree = encoding.tree
        if tag == ALL:
            tags = tree.tags
            nodes = (n for n in tree.iter_preorder() if is_element_tag(tags[n]))
        elif tag in tree.tags:
            nodes = tree.iter_by_tag(tag)
        else:
            return []
        return [tree.codes[node] for node in nodes if encoding.is_alive(node)]

    def _materialize(self, tag: str, codes: list[int]) -> _TagStore:
        encoding = self.encoding
        elements = ElementSet.from_codes(
            self.bufmgr,
            codes,
            encoding.tree_height,
            name=f"{self.name}//{tag}",
        )
        store = _TagStore(tag, elements)
        capacity = elements.heap.capacity
        for position, code in enumerate(codes):
            page_index, slot = divmod(position, capacity)
            store.directory[code] = (page_index, slot)
            if slot == 0:
                store.page_counts.append(0)
            store.page_counts[page_index] += 1
        if self.metrics is not None:
            self.metrics.counter("docstore.materialized").inc()
        return store

    # ------------------------------------------------------------------
    # applying the log (page patching)
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Apply every buffered log record now; returns records applied."""
        applied = 0
        for store in self._tags.values():
            applied += self._apply(store)
        return applied

    def _apply(self, store: _TagStore) -> int:
        """Drain one tag's update log onto its pages.

        Records are popped only after they applied cleanly, so a
        storage fault mid-drain leaves the remainder (including a
        partially rewritten grow, via ``grow_done``) to be retried by
        the next access.
        """
        applied = 0
        with self.tracer.span(
            "docstore.apply", tag=store.tag, records=len(store.pending)
        ):
            while store.pending:
                record = store.pending[0]
                if record.op == "insert":
                    self._apply_insert(store, record.code)
                elif record.op == "delete":
                    self._apply_delete(store, record.code)
                elif record.op == "relabel":
                    self._apply_relabel(store, record.moves)
                else:
                    self._apply_grow(store, record.delta)
                store.pending.popleft()
                applied += 1
                if self.metrics is not None:
                    self.metrics.counter(
                        f"docstore.applied.{record.op}"
                    ).inc()
        if applied:
            self.version += 1
        return applied

    def _apply_insert(self, store: _TagStore, code: int) -> None:
        heap = store.elements.heap
        writer = heap.open_writer(resume=True)
        try:
            writer.append((code,))
        finally:
            writer.close()
        if store.page_counts and store.page_counts[-1] < heap.capacity:
            page_index = len(store.page_counts) - 1
        else:
            page_index = len(store.page_counts)
            store.page_counts.append(0)
        slot = store.page_counts[page_index]
        store.page_counts[page_index] += 1
        store.directory[code] = (page_index, slot)
        store.elements.histogram.add(code)
        if store.start_index is not None:
            store.start_index.insert(pbitree.start_of(PBiCode(code)), code)

    def _apply_delete(self, store: _TagStore, code: int) -> None:
        location = store.directory.get(code)
        if location is None:
            return  # already superseded (e.g. compaction raced the log)
        page_index, slot = location
        heap = store.elements.heap
        codec = heap.codec
        size = codec.record_size
        moved: Optional[tuple[int, ...]] = None
        frame = self.bufmgr.pin(heap.page_ids[page_index])
        try:
            count = store.page_counts[page_index]
            last = count - 1
            if slot != last:
                # fill the hole with the page's own last record so the
                # page stays densely packed — a one-page patch
                moved = codec.unpack(
                    frame.data, page_layout.PAGE_HEADER_SIZE + last * size
                )
                codec.pack_into(
                    frame.data,
                    page_layout.PAGE_HEADER_SIZE + slot * size,
                    moved,
                )
            page_layout.set_record_count(frame.data, last)
        finally:
            self.bufmgr.unpin(heap.page_ids[page_index], dirty=True)
        del store.directory[code]
        if moved is not None:
            store.directory[moved[0]] = (page_index, slot)
        store.page_counts[page_index] = count - 1
        heap.num_records -= 1
        store.elements.histogram.add(code, -1)
        if store.start_index is not None:
            store.start_index.delete(pbitree.start_of(PBiCode(code)), code)

    def _apply_relabel(
        self, store: _TagStore, moves: tuple[tuple[int, int], ...]
    ) -> None:
        heap = store.elements.heap
        codec = heap.codec
        size = codec.record_size
        locations = [store.directory[old] for old, _new in moves]
        patches: list[tuple[int, int, int]] = [  # (page, slot, new code)
            (page_index, slot, new_code)
            for (page_index, slot), (_old, new_code) in zip(locations, moves)
        ]
        by_page: dict[int, list[tuple[int, int]]] = {}
        for page_index, slot, new_code in patches:
            by_page.setdefault(page_index, []).append((slot, new_code))
        for page_index in sorted(by_page):
            frame = self.bufmgr.pin(heap.page_ids[page_index])
            try:
                for slot, new_code in by_page[page_index]:
                    codec.pack_into(
                        frame.data,
                        page_layout.PAGE_HEADER_SIZE + slot * size,
                        (new_code,),
                    )
            finally:
                self.bufmgr.unpin(heap.page_ids[page_index], dirty=True)
        # free every old code first: within one batch a new code may
        # equal another entry's old code (see ChangeEvent)
        histogram = store.elements.histogram
        for old_code, _new in moves:
            del store.directory[old_code]
            histogram.add(old_code, -1)
        for page_index, slot, new_code in patches:
            store.directory[new_code] = (page_index, slot)
            histogram.add(new_code)
        index = store.start_index
        if index is not None:
            for old_code, new_code in moves:
                index.delete(pbitree.start_of(PBiCode(old_code)), old_code)
                index.insert(pbitree.start_of(PBiCode(new_code)), new_code)

    def _apply_grow(self, store: _TagStore, delta: int) -> None:
        """Streamed one-shift-per-record rewrite of every page."""
        from .record import MAX_CODE_BITS

        if store.elements.tree_height + delta > MAX_CODE_BITS:
            raise ValueError(
                f"growing to height {store.elements.tree_height + delta} "
                f"exceeds the {MAX_CODE_BITS}-bit storage code space"
            )
        heap = store.elements.heap
        codec = heap.codec
        size = codec.record_size
        while store.grow_done < len(heap.page_ids):
            page_id = heap.page_ids[store.grow_done]
            frame = self.bufmgr.pin(page_id)
            try:
                fields = page_layout.read_record_array(frame.data, codec)
                grown = batch.grow_codes(fields, delta)
                offset = page_layout.PAGE_HEADER_SIZE
                for code in grown:
                    codec.pack_into(frame.data, offset, (code,))
                    offset += size
            finally:
                self.bufmgr.unpin(page_id, dirty=True)
            store.grow_done += 1
        store.grow_done = 0
        store.directory = {
            pbitree.grown_code(PBiCode(code), delta): location
            for code, location in store.directory.items()
        }
        store.elements.histogram.grow(delta)  # also grows tree_height
        # every key of the start index shifted: growth rebuilds
        self._retire_start_index(store, f"tree growth by {delta}")

    # ------------------------------------------------------------------
    # index maintenance
    # ------------------------------------------------------------------
    def _retire_start_index(self, store: _TagStore, reason: str) -> None:
        if store.start_index is not None:
            store.start_index.mark_stale(reason)
            store.start_index = None
            if self.metrics is not None:
                self.metrics.counter("docstore.index_rebuilds.start").inc()

    def start_index(self, tag: str) -> "BPlusTree":
        """Maintained B+-tree on region Start (rebuilt when retired)."""
        from ..join.inljn import build_start_index

        store = self._fresh_store(tag)
        if store.start_index is None:
            store.start_index = build_start_index(store.elements, self.bufmgr)
        return store.start_index

    def peek_start_index(self, tag: str) -> Optional["BPlusTree"]:
        """The surviving start index, if any — never builds one.

        Applies the pending log first, so an index retired by a
        buffered update reads as absent (what the planner must see).
        """
        if tag not in self._tags:
            return None
        return self._fresh_store(tag).start_index

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def compact(self, tag: Optional[str] = None) -> None:
        """Rebuild tag heaps densely in document order.

        Reclaims the interior-page slack deletes leave behind and
        restores the exact page layout a from-scratch materialisation
        would produce (what the report-equality oracle compares
        against).  Pending log records for the tag are superseded by
        the rebuild and dropped.
        """
        names = [tag] if tag is not None else list(self._tags)
        for name in names:
            store = self._tags.get(name)
            if store is None:
                continue
            store.pending.clear()
            store.grow_done = 0
            self._retire_start_index(store, "compaction")
            store.elements.destroy()
            del self._tags[name]
            self._fresh_store(name)
            if self.metrics is not None:
                self.metrics.counter("docstore.compactions").inc()

    def verify(self, tag: str) -> None:
        """Cross-check pages, directory and histogram (tests/chaos).

        Raises ``AssertionError`` on any divergence between what the
        pages hold, what the directory and the histogram claim, and
        what the live encoding says this tag's codes are.
        """
        store = self._fresh_store(tag)
        scanned: dict[int, tuple[int, int]] = {}
        for page_index, codes in enumerate(store.elements.scan_pages()):
            assert len(codes) == store.page_counts[page_index], (
                f"page {page_index}: header count {len(codes)} != mirror "
                f"{store.page_counts[page_index]}"
            )
            for slot, code in enumerate(codes):
                scanned[code] = (page_index, slot)
        assert scanned == store.directory, "directory diverged from pages"
        expected = sorted(self._live_codes(tag))
        assert sorted(scanned) == expected, (
            f"tag {tag!r}: persisted codes diverged from the encoding"
        )
        assert store.elements.tree_height == self.encoding.tree_height
        assert store.elements.histogram == PositionHistogram.of_codes(
            scanned, self.encoding.tree_height
        ), "positional histogram diverged from the pages"

    def __repr__(self) -> str:
        return (
            f"<DocumentStore {self.name!r} tags={len(self._tags)} "
            f"pending={self.pending_updates()}>"
        )
