"""Hash equijoin substrate for the horizontal-partitioning algorithms.

SHCJ reduces a containment join to the equijoin
``A JOIN D ON A.code = F(D.code, h)`` (Algorithm 2); this module
provides the two standard evaluation strategies:

* :func:`in_memory_hash_join_codes` — build side fits in the buffer:
  build a hash table over it, stream the probe side (I/O
  ``||A|| + ||D||``);
* :class:`GracePartitioner` / :func:`grace_hash_join` — neither fits:
  hash-partition both inputs into ``k`` co-buckets (one page of output
  buffer per bucket), then join each bucket pair with the caller's
  in-memory join (I/O ``3(||A|| + ||D||)``, the figure the paper
  quotes).

Inputs are pages of flat field arrays, and keys are computed on the
fly, one bulk-key call per page, so the ``F`` conversion never touches
disk — the paper's central efficiency argument for PBiTree codes.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from ..storage.buffer import BufferManager
from ..storage.heapfile import HeapFile
from ..storage.record import RecordCodec

__all__ = [
    "BulkKeyFunc",
    "in_memory_hash_join_codes",
    "GracePartitioner",
    "grace_hash_join",
]

#: bulk key function: one call per page of field arrays, one key per
#: record, ``0`` marking a filtered record (codes are >= 1, so 0 is
#: in-band)
BulkKeyFunc = Callable[[Sequence[int]], Sequence[int]]


def in_memory_hash_join_codes(
    build_pages: Iterable[Sequence[int]],
    probe_pages: Iterable[Sequence[int]],
    build_keys: BulkKeyFunc,
    probe_keys: BulkKeyFunc,
    emit: Callable[[int, int], None],
) -> None:
    """Build/probe hash join over pages of single-code records.

    Keys for a whole page are computed by one kernel call (see
    :mod:`repro.core.batch`).  A key of ``0`` marks a filtered record —
    PBiTree codes are >= 1, so ``0`` can never be a build key and
    filtered probe records miss the table without an explicit branch.
    ``emit(build_code, probe_code)`` runs for every key match, in probe
    order, and within one probe record in build order.
    """
    table: dict[int, list[int]] = {}
    for codes in build_pages:
        for key, code in zip(build_keys(codes), codes):
            if not key:
                continue
            bucket = table.get(key)
            if bucket is None:
                table[key] = [code]
            else:
                bucket.append(code)
    get = table.get
    for codes in probe_pages:
        for key, code in zip(probe_keys(codes), codes):
            bucket = get(key)
            if bucket is not None:
                for build_code in bucket:
                    emit(build_code, code)


class GracePartitioner:
    """Hash-partition pages of records into ``k`` heap files.

    Holds one output page per partition (so ``k`` must leave room in
    the buffer pool for at least one input page: ``k <= b - 1``).
    """

    def __init__(
        self,
        bufmgr: BufferManager,
        codec: RecordCodec,
        num_partitions: int,
        name: str = "grace",
    ) -> None:
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        if num_partitions > bufmgr.num_pages - 1:
            raise ValueError(
                f"{num_partitions} partitions need {num_partitions + 1} "
                f"buffer pages, pool has {bufmgr.num_pages}"
            )
        self.num_partitions = num_partitions
        self.arity = codec.arity
        self.files = [
            HeapFile(bufmgr, codec, name=f"{name}[{i}]")
            for i in range(num_partitions)
        ]

    def partition(
        self, pages: Iterable[Sequence[int]], keys: BulkKeyFunc
    ) -> list[HeapFile]:
        """Distribute each page's records by the hash of their key;
        records keyed ``0`` are dropped.

        ``pages`` are flat field arrays (``arity`` fields per record)
        and ``keys(page)`` gives one key per record.
        """
        writers = [heap.open_writer() for heap in self.files]
        k = self.num_partitions
        arity = self.arity
        try:
            for fields in pages:
                records = zip(*[iter(fields)] * arity)
                for key, record in zip(keys(fields), records):
                    if key:
                        # multiplicative hash decorrelates the low bits
                        # that the F() rollup makes constant within a
                        # height class
                        writers[(key * 0x9E3779B97F4A7C15 >> 32) % k].append(
                            record
                        )
        finally:
            # close even when the input scan faults: each writer holds a
            # pinned output page, and leaving it pinned would make the
            # caller's cleanup (heap.destroy) fail and mask the fault
            for writer in writers:
                writer.close()
        return self.files

    def destroy(self) -> None:
        for heap in self.files:
            heap.destroy()


def grace_hash_join(
    bufmgr: BufferManager,
    build_pages: Iterable[Sequence[int]],
    probe_pages: Iterable[Sequence[int]],
    build_codec: RecordCodec,
    probe_codec: RecordCodec,
    build_keys: BulkKeyFunc,
    probe_keys: BulkKeyFunc,
    join_buckets: Callable[[HeapFile, HeapFile], None],
    num_partitions: Optional[int] = None,
    name: str = "grace",
    build_pages_hint: Optional[int] = None,
) -> int:
    """Full Grace hash join; returns the number of partitions used.

    ``build_pages_hint`` (the build side's page count) lets the join
    pick the smallest partition count whose buckets fit in memory.

    Both inputs are hash-partitioned on their join keys, then
    ``join_buckets(build_file, probe_file)`` joins each non-empty bucket
    pair — with the same code the caller runs when a side fits in
    memory.  Records keyed ``0`` never reach a partition, so the
    partitioning pass doubles as a filter.
    """
    if num_partitions is not None:
        k = num_partitions
    elif build_pages_hint is not None:
        # just enough partitions that each build bucket fits the pool
        # (with 25% slack for skew) — fewer buckets mean fewer partial
        # pages at large pools
        k = -(-build_pages_hint * 5 // (4 * max(1, bufmgr.num_pages - 2)))
        k = max(2, min(bufmgr.num_pages - 1, k))
    else:
        k = max(1, min(bufmgr.num_pages - 1, 64))
    build_part = GracePartitioner(bufmgr, build_codec, k, name=f"{name}.build")
    probe_part = GracePartitioner(bufmgr, probe_codec, k, name=f"{name}.probe")
    try:
        build_files = build_part.partition(build_pages, build_keys)
        probe_files = probe_part.partition(probe_pages, probe_keys)
        for build_file, probe_file in zip(build_files, probe_files):
            if len(build_file) and len(probe_file):
                join_buckets(build_file, probe_file)
    finally:
        build_part.destroy()
        probe_part.destroy()
    return k
