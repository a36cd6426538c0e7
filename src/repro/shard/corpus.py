"""Sharded storage layout: VPJ level-``l`` partitioning on disk.

A :class:`ShardedCorpus` owns ``num_shards`` independent engines (one
:class:`~repro.storage.disk.DiskManager` plus one
:class:`~repro.storage.buffer.BufferManager` each) and lays an element
set out as per-*slot* heap files distributed over them.  The routing
rule is exactly VPJ's scatter (:mod:`repro.join.vpj`):

* the coding space is cut into ``2**level`` subtrees rooted at level
  ``level``; the root of slot ``s`` is the anchor with position
  ``alpha == s`` at ``anchor_height = tree_height - level - 1``;
* a code at or below the anchors (``height <= anchor_height``) is
  *owned* by the slot of its level-``l`` ancestor
  (``alpha_of(f_ancestor(code, anchor_height))``);
* a code above the anchors spans several slots.  It is owned (in the
  descendant role) by its *leftmost* anchor's slot and *replicated*
  (ancestor role only) to every other slot its subtree covers.

Each slot therefore stores an ``owned`` heap file and a ``replica``
heap file on its owning shard.  A containment join restricted to one
slot reads ``owned + replica`` on the ancestor side and ``owned`` only
on the descendant side; summed over slots that reproduces every
(ancestor, descendant) result pair exactly once:

* both codes low: ancestry implies the same level-``l`` ancestor, so
  both live in one slot;
* high ancestor, low descendant: the pair meets in the descendant's
  slot, which holds the ancestor's replica (the descendant's subtree
  anchor is inside the ancestor's anchor span);
* both high: the descendant's leftmost anchor is inside the ancestor's
  anchor span too, so the pair meets exactly once, in that slot.

Slots are the unit of work and of accounting; *shards* only decide
which engine a slot's pages live on (``shard_of_slot`` groups
contiguous slot runs).  Everything a join observes — per-slot record
sets, heap page layout, scan order — depends on the slot structure
alone, which is why merged join accounting is shard-count-invariant.
The layout lives in memory only: it is built per run, never persisted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..core.pbitree import (
    PBiCode,
    alpha_of,
    f_ancestor,
    height_of,
    max_code,
    subtree_codes_at_height,
)
from ..storage.buffer import BufferManager
from ..storage.disk import DiskManager
from ..storage.heapfile import HeapFile
from ..storage.record import CODE

__all__ = [
    "ShardMap",
    "ShardStore",
    "ShardedCorpus",
    "default_shard_level",
]

#: buffer pool pages of each shard's engine (slot extraction only: every
#: slot join runs on its own cold bench)
SHARD_BUFFER_PAGES = 64

#: partitioning level used when the caller does not pick one (matches
#: VPJ's default granularity: 2**3 slots gives useful parallelism
#: without fragmenting small sets)
DEFAULT_SHARD_LEVEL = 3


def default_shard_level(tree_height: int, num_shards: int) -> int:
    """The partitioning level used when none is given.

    At least ``ceil(log2(num_shards))`` so every shard owns a slot, at
    least :data:`DEFAULT_SHARD_LEVEL` when the tree allows it, and
    never deeper than ``tree_height - 1`` (level ``tree_height - 1``
    partitions at the leaves' parents; deeper levels don't exist).
    """
    if tree_height < 1:
        raise ValueError("tree height must be at least 1")
    if num_shards < 1:
        raise ValueError("need at least one shard")
    need = (num_shards - 1).bit_length()  # ceil(log2(num_shards))
    if need > tree_height - 1:
        raise ValueError(
            f"{num_shards} shards need partitioning level {need}, but a "
            f"height-{tree_height} tree only has levels 0..{tree_height - 1}"
        )
    return max(min(DEFAULT_SHARD_LEVEL, tree_height - 1), need)


@dataclass(frozen=True)
class ShardMap:
    """Pure routing table: code -> slot -> shard.

    Frozen and arithmetic-only, so the corpus (laying files out) and
    the tests (the exactly-once property) share one rule.
    """

    tree_height: int
    level: int
    num_shards: int

    def __post_init__(self) -> None:
        if self.tree_height < 1:
            raise ValueError("tree height must be at least 1")
        if not 0 <= self.level <= self.tree_height - 1:
            raise ValueError(
                f"partitioning level {self.level} outside "
                f"0..{self.tree_height - 1}"
            )
        if not 1 <= self.num_shards <= self.num_slots:
            raise ValueError(
                f"{self.num_shards} shards but only {self.num_slots} "
                f"level-{self.level} slots; raise the level"
            )

    @property
    def num_slots(self) -> int:
        return 1 << self.level

    @property
    def anchor_height(self) -> int:
        """Height of the slot roots (the level-``l`` anchors)."""
        return self.tree_height - self.level - 1

    # -- routing -------------------------------------------------------
    def owner_slot(self, code: int) -> int:
        """The single slot that *owns* ``code`` (descendant role)."""
        pbi = PBiCode(code)
        if height_of(pbi) <= self.anchor_height:
            return alpha_of(f_ancestor(pbi, self.anchor_height))
        # above the anchors: owned by the leftmost covered slot
        anchors = subtree_codes_at_height(pbi, self.anchor_height)
        return alpha_of(PBiCode(anchors[0]))

    def ancestor_slots(self, code: int) -> range:
        """Every slot where ``code`` participates as an ancestor.

        A contiguous range: one slot for low codes, the full anchor
        span for codes above the anchors.  Always starts at
        :meth:`owner_slot`.
        """
        pbi = PBiCode(code)
        if height_of(pbi) <= self.anchor_height:
            slot = alpha_of(f_ancestor(pbi, self.anchor_height))
            return range(slot, slot + 1)
        anchors = subtree_codes_at_height(pbi, self.anchor_height)
        first = alpha_of(PBiCode(anchors[0]))
        last = alpha_of(PBiCode(anchors[-1]))
        return range(first, last + 1)

    def shard_of_slot(self, slot: int) -> int:
        """Which shard stores ``slot`` (contiguous slot runs)."""
        if not 0 <= slot < self.num_slots:
            raise ValueError(f"slot {slot} outside 0..{self.num_slots - 1}")
        return slot * self.num_shards // self.num_slots

    def slots_of_shard(self, shard: int) -> range:
        """Inverse of :meth:`shard_of_slot`."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} outside 0..{self.num_shards - 1}")
        lo = -(-shard * self.num_slots // self.num_shards)
        hi = -(-(shard + 1) * self.num_slots // self.num_shards)
        return range(lo, hi)

    def shard_of_code(self, code: int) -> int:
        """The shard owning ``code`` — where a point probe routes."""
        return self.shard_of_slot(self.owner_slot(code))

    def scatter(
        self, codes: Iterable[int]
    ) -> tuple[list[list[int]], list[list[int]]]:
        """Split ``codes`` into per-slot ``(owned, replica)`` lists.

        Input order is preserved within every list, so the scatter is
        deterministic for a given input sequence regardless of shard
        count or worker count.
        """
        limit = int(max_code(self.tree_height))
        owned: list[list[int]] = [[] for _ in range(self.num_slots)]
        replica: list[list[int]] = [[] for _ in range(self.num_slots)]
        for code in codes:
            if not 1 <= code <= limit:
                raise ValueError(
                    f"code {code} outside the height-{self.tree_height} "
                    "coding space"
                )
            owner = self.owner_slot(code)
            owned[owner].append(code)
            for slot in self.ancestor_slots(code):
                if slot != owner:
                    replica[slot].append(code)
        return owned, replica

    def to_dict(self) -> dict[str, int]:
        return {
            "tree_height": self.tree_height,
            "level": self.level,
            "num_shards": self.num_shards,
        }


@dataclass
class ShardStore:
    """One shard's engine: a private disk and buffer pool."""

    disk: DiskManager
    bufmgr: BufferManager


@dataclass
class _ShardedSet:
    """One element set's layout: per-slot owned/replica heap files."""

    tag: str
    num_records: int
    owned: list[Optional[HeapFile]] = field(default_factory=list)
    replica: list[Optional[HeapFile]] = field(default_factory=list)


class ShardedCorpus:
    """Element sets partitioned at level ``l`` over per-shard engines."""

    def __init__(
        self,
        tree_height: int,
        num_shards: int,
        level: Optional[int] = None,
        page_size: int = 1024,
    ) -> None:
        if level is None:
            level = default_shard_level(tree_height, num_shards)
        self.map = ShardMap(tree_height, level, num_shards)
        self.shards: list[ShardStore] = []
        for _ in range(num_shards):
            disk = DiskManager(page_size)
            self.shards.append(
                ShardStore(disk, BufferManager(disk, SHARD_BUFFER_PAGES))
            )
        self._sets: dict[str, _ShardedSet] = {}

    # -- convenience ----------------------------------------------------
    @property
    def tree_height(self) -> int:
        return self.map.tree_height

    @property
    def num_shards(self) -> int:
        return self.map.num_shards

    @property
    def num_slots(self) -> int:
        return self.map.num_slots

    @property
    def tags(self) -> list[str]:
        return sorted(self._sets)

    def store_of_slot(self, slot: int) -> ShardStore:
        return self.shards[self.map.shard_of_slot(slot)]

    # -- building -------------------------------------------------------
    def add_set(self, tag: str, codes: Sequence[int]) -> None:
        """Scatter ``codes`` into per-slot heap files on their shards.

        Files are created in slot order and flushed, so the page
        layout of every slot file is a pure function of the slot
        structure and the input sequence — grouping slots onto more or
        fewer shards never changes what a slot-local scan reads.
        """
        if tag in self._sets:
            raise ValueError(f"set {tag!r} already sharded")
        owned_lists, replica_lists = self.map.scatter(codes)
        entry = _ShardedSet(tag=tag, num_records=len(codes))
        for slot in range(self.map.num_slots):
            bufmgr = self.store_of_slot(slot).bufmgr
            entry.owned.append(
                self._build_heap(bufmgr, f"{tag}.owned.{slot}", owned_lists[slot])
            )
            entry.replica.append(
                self._build_heap(
                    bufmgr, f"{tag}.replica.{slot}", replica_lists[slot]
                )
            )
        for store in self.shards:
            store.bufmgr.flush_all()
        self._sets[tag] = entry

    @staticmethod
    def _build_heap(
        bufmgr: BufferManager, name: str, codes: list[int]
    ) -> Optional[HeapFile]:
        if not codes:
            return None
        return HeapFile.from_fields(bufmgr, CODE, codes, name=name)

    # -- slot extraction ------------------------------------------------
    def slot_ancestor_codes(self, tag: str, slot: int) -> list[int]:
        """Slot input on the ancestor side: owned then replicated codes."""
        entry = self._sets[tag]
        codes: list[int] = []
        for heap in (entry.owned[slot], entry.replica[slot]):
            if heap is not None:
                for page in heap.scan_page_arrays():
                    codes.extend(page)
        return codes

    def slot_descendant_codes(self, tag: str, slot: int) -> list[int]:
        """Slot input on the descendant side: owned codes only."""
        entry = self._sets[tag]
        heap = entry.owned[slot]
        if heap is None:
            return []
        return [code for page in heap.scan_page_arrays() for code in page]

    # -- observability --------------------------------------------------
    def stats(self) -> dict[str, object]:
        """Layout summary: per-shard pages plus per-set replication."""
        per_shard = [
            {
                "pages": store.disk.num_allocated,
                "slots": len(self.map.slots_of_shard(index)),
            }
            for index, store in enumerate(self.shards)
        ]
        per_set = {}
        for tag, entry in sorted(self._sets.items()):
            replicas = sum(
                heap.num_records
                for heap in entry.replica
                if heap is not None
            )
            per_set[tag] = {
                "records": entry.num_records,
                "replicas": replicas,
            }
        return {
            "map": self.map.to_dict(),
            "num_slots": self.map.num_slots,
            "shards": per_shard,
            "sets": per_set,
        }

