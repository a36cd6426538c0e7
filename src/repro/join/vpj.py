"""VPJ: vertical-partitioning containment join (Algorithms 5 and 6).

Divide and conquer over the PBiTree itself: pick a level ``l`` with at
least ``k0 = ceil(min(||A||, ||D||) / b)`` nodes; every level-``l``
node ("anchor") defines one partition.  An element belongs to the
partition of an anchor it is an ancestor or descendant of:

* elements at level >= ``l`` fall under exactly one anchor — their
  ancestor at level ``l``, computed in O(1) with ``F``;
* elements *above* level ``l`` span several anchors.  Ancestor-side
  elements are **replicated** to every anchor in their region (at most
  ``l`` replicas land in any one partition — the root-to-anchor path);
  descendant-side elements go to a single partition (their leftmost
  anchor) so no result pair is ever produced twice, and any ancestor of
  such an element is also an ancestor of that anchor, hence replicated
  into the same partition — no pair is lost either.

Each co-partition pair is then joined with the I/O-optimal
:func:`memory_containment_join` when one side fits in the buffer pool;
dense pairs are partitioned again, recursively, at a deeper level.
Empty co-partitions are purged; small neighbouring partitions are
merged (free — a merged partition is just a list of heap files; the
memory join de-duplicates replicas that a merge brings together).

Total cost without recursion: one read + one partitioned write + one
read of both inputs = ``3(||A|| + ||D||)``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional

from ..core import batch, pbitree
from ..storage.buffer import BufferManager
from ..storage.elementset import ElementSet
from ..storage.heapfile import HeapFile
from ..storage.record import CODE
from .base import JoinAlgorithm, JoinReport, JoinSink
from .mhcj import MultiHeightRollupJoin

__all__ = ["VerticalPartitionJoin", "memory_containment_join"]


def memory_containment_join(
    ancestors: "ElementSet | list[HeapFile]",
    descendants: "ElementSet | list[HeapFile]",
    sink: JoinSink,
    dedup_above_height: Optional[int] = None,
) -> None:
    """Algorithm 6: containment join when one side fits in memory.

    * ``D`` fits: load and sort it by code; each streamed ancestor
      finds its descendants with two binary searches (its region is a
      contiguous code range).
    * otherwise (``A`` fits): load ``A`` grouped by height; each
      streamed descendant probes one hash set per ancestor height with
      ``F`` — an in-memory MHCJ.

    Inputs may be element sets or lists of heap files (a merged VPJ
    partition); both are read exactly once: ``||A|| + ||D||`` I/O.
    ``dedup_above_height`` handles replicated ancestors brought
    together by a partition merge: streamed ancestors above that height
    are processed only once.
    """
    a_files = _as_files(ancestors)
    d_files = _as_files(descendants)
    a_pages = sum(f.num_pages for f in a_files)
    d_pages = sum(f.num_pages for f in d_files)
    emit = sink.emit
    region_of = pbitree.region_of
    height_of = pbitree.height_of
    f_ancestor = pbitree.f_ancestor

    if batch.batching_enabled():
        # same branch choice, page order and emission order as the
        # scalar loops below, with the per-element algebra delegated to
        # the verified kernels (one call per page)
        if d_pages <= a_pages:
            d_list: list[int] = []
            for heap in d_files:
                for fields in heap.scan_page_arrays():
                    d_list.extend(fields)
            d_sorted = sorted(d_list)
            seen_high: set[int] = set()
            for heap in a_files:
                for fields in heap.scan_page_arrays():
                    batch.region_probe(
                        fields, d_sorted, emit, dedup_above_height, seen_high
                    )
        else:
            by_height_sets: dict[int, set[int]] = {}
            for heap in a_files:
                for fields in heap.scan_page_arrays():
                    batch.build_height_tables(fields, by_height_sets)
            order = sorted(by_height_sets, reverse=True)
            for heap in d_files:
                for fields in heap.scan_page_arrays():
                    batch.height_probe(by_height_sets, order, fields, emit)
        return

    if d_pages <= a_pages:
        d_codes = sorted(
            record[0] for heap in d_files for record in heap.scan()
        )
        seen_high: set[int] = set()
        for heap in a_files:
            for records in heap.scan_pages():
                for record in records:
                    a_code = record[0]
                    if (
                        dedup_above_height is not None
                        and height_of(a_code) > dedup_above_height
                    ):
                        if a_code in seen_high:
                            continue
                        seen_high.add(a_code)
                    start, end = region_of(a_code)
                    lo = bisect_left(d_codes, start)
                    hi = bisect_right(d_codes, end)
                    for d_code in d_codes[lo:hi]:
                        if a_code != d_code:
                            emit(a_code, d_code)
    else:
        # hash sets de-duplicate replicated ancestors by construction
        by_height: dict[int, set[int]] = {}
        for heap in a_files:
            for record in heap.scan():
                by_height.setdefault(height_of(record[0]), set()).add(record[0])
        heights = sorted(by_height, reverse=True)
        for heap in d_files:
            for records in heap.scan_pages():
                for record in records:
                    d_code = record[0]
                    d_height = height_of(d_code)
                    for height in heights:
                        if height <= d_height:
                            break
                        anc = f_ancestor(d_code, height)
                        if anc in by_height[height]:
                            emit(anc, d_code)


def _as_files(elements: "ElementSet | list[HeapFile]") -> list[HeapFile]:
    if isinstance(elements, ElementSet):
        return [elements.heap]
    return list(elements)


class _Partition:
    """One co-partition pair, possibly spanning merged anchor ranges."""

    __slots__ = ("a_files", "d_files", "anchor_height")

    def __init__(self, anchor_height: int) -> None:
        self.a_files: list[HeapFile] = []
        self.d_files: list[HeapFile] = []
        self.anchor_height = anchor_height

    @property
    def a_pages(self) -> int:
        return sum(f.num_pages for f in self.a_files)

    @property
    def d_pages(self) -> int:
        return sum(f.num_pages for f in self.d_files)

    @property
    def a_records(self) -> int:
        return sum(len(f) for f in self.a_files)

    @property
    def d_records(self) -> int:
        return sum(len(f) for f in self.d_files)

    def destroy(self) -> None:
        for heap in self.a_files + self.d_files:
            heap.destroy()


class VerticalPartitionJoin(JoinAlgorithm):
    """V-Partition-Join (Algorithm 5)."""

    name = "VPJ"

    def __init__(self, max_recursion: int = 16) -> None:
        self.max_recursion = max_recursion

    def _execute(self, prepared, sink: JoinSink, bufmgr: BufferManager) -> JoinReport:
        ancestors, descendants = prepared
        report = JoinReport(algorithm=self.name, result_count=0)
        self._join(
            ancestors,
            descendants,
            base_level=0,
            dedup_above_height=None,
            sink=sink,
            bufmgr=bufmgr,
            report=report,
            tree_height=ancestors.tree_height,
            depth=0,
        )
        return report

    # ------------------------------------------------------------------
    def _join(
        self,
        ancestors: "ElementSet | list[HeapFile]",
        descendants: "ElementSet | list[HeapFile]",
        base_level: int,
        dedup_above_height: Optional[int],
        sink: JoinSink,
        bufmgr: BufferManager,
        report: JoinReport,
        tree_height: int,
        depth: int,
    ) -> None:
        a_files = _as_files(ancestors)
        d_files = _as_files(descendants)
        a_pages = sum(f.num_pages for f in a_files)
        d_pages = sum(f.num_pages for f in d_files)
        budget = bufmgr.num_pages

        if min(a_pages, d_pages) <= max(1, budget - 2):
            with self.trace("vpj.memjoin", depth=depth):
                memory_containment_join(a_files, d_files, sink, dedup_above_height)
            return
        if depth >= self.max_recursion or base_level >= tree_height - 1:
            # cannot split further (pathologically deep or duplicated
            # data): fall back to rollup, which handles any size
            with self.trace("vpj.fallback", depth=depth):
                self._fallback(
                    a_files, d_files, sink, bufmgr, report, tree_height
                )
            return

        lca = self._sample_lca(a_files, d_files)
        lca_level = pbitree.level_of(lca, tree_height) if lca else 0
        level = self._choose_level(
            a_pages, d_pages, budget, base_level, tree_height, lca_level
        )
        anchor_height = tree_height - level - 1
        k0 = -(-min(a_pages, d_pages) // budget)
        num_buckets = min(max(2, k0), max(2, budget - 2))
        with self.trace(
            "vpj.partition", depth=depth, anchor_height=anchor_height
        ) as part_span:
            partitions = self._partition(
                a_files, d_files, anchor_height, num_buckets, lca, bufmgr
            )
            part_span.set("partitions", len(partitions))
        report.partitions += len(partitions)
        try:
            for partition in self._merge_small(partitions, budget):
                if min(partition.a_pages, partition.d_pages) <= max(1, budget - 2):
                    with self.trace("vpj.memjoin", depth=depth):
                        memory_containment_join(
                            partition.a_files,
                            partition.d_files,
                            sink,
                            dedup_above_height=partition.anchor_height,
                        )
                else:
                    self._join(
                        partition.a_files,
                        partition.d_files,
                        base_level=level,
                        dedup_above_height=partition.anchor_height,
                        sink=sink,
                        bufmgr=bufmgr,
                        report=report,
                        tree_height=tree_height,
                        depth=depth + 1,
                    )
        finally:
            for partition in partitions.values():
                partition.destroy()

    def _fallback(self, a_files, d_files, sink, bufmgr, report, tree_height):
        """Join a partition that cannot be vertically split further."""
        temp_a: Optional[ElementSet] = None
        temp_d: Optional[ElementSet] = None
        try:
            temp_a = _concat_as_set(
                a_files, bufmgr, tree_height, "vpj.fb.A", dedup=True
            )
            temp_d = _concat_as_set(
                d_files, bufmgr, tree_height, "vpj.fb.D", dedup=False
            )
            inner = MultiHeightRollupJoin()
            # the nested run's root span becomes a child of vpj.fallback
            inner_report = inner.run(temp_a, temp_d, sink, tracer=self._tracer)
            report.false_hits += inner_report.false_hits
        finally:
            # a mid-join fault must not leak the concatenated temp sets:
            # destroy whatever was materialised before the fault
            for temp in (temp_a, temp_d):
                if temp is not None:
                    temp.destroy()

    @staticmethod
    def _sample_lca(
        a_files: list[HeapFile], d_files: list[HeapFile]
    ) -> int:
        """Lowest common ancestor of a two-page sample (0 if empty).

        Document-shaped data often lives entirely inside one deep
        subtree (e.g. all ``person`` elements under ``people``);
        partitioning above that subtree would put everything into a
        single partition and make no progress.  One page of the smaller
        side estimates where the data actually branches; choosing the
        level relative to that point keeps the descent O(1) passes.
        The estimate can only overshoot (sampled elements may share a
        deeper ancestor than the full set), which costs replication but
        never correctness.
        """
        smaller = a_files if sum(f.num_pages for f in a_files) <= sum(
            f.num_pages for f in d_files
        ) else d_files
        nonempty = [heap for heap in smaller if heap.num_pages]
        if not nonempty:
            return 0
        # first page of the first file + last page of the last file: for
        # document-ordered data these are the extremes of the whole set,
        # so their LCA is (close to) the set's true branch point; for
        # shuffled data any pages do.
        codes = [record[0] for record in nonempty[0].read_page(0)]
        last = nonempty[-1]
        if last.num_pages > 1 or last is not nonempty[0]:
            codes += [record[0] for record in last.read_page(last.num_pages - 1)]
        if not codes:
            return 0
        lca = codes[0]
        for code in codes[1:]:
            lca = pbitree.lowest_common_ancestor(lca, code)
        return lca

    @staticmethod
    def _choose_level(
        a_pages: int,
        d_pages: int,
        budget: int,
        base_level: int,
        tree_height: int,
        lca_level: int,
    ) -> int:
        """Lines 1-2 of Algorithm 5, relative to where the data branches."""
        k0 = max(2, -(-min(a_pages, d_pages) // budget))  # ceil
        # enough levels below the branch point that the anchors can fill
        # k0 buckets; anchors themselves are grouped into <= b-2 buckets
        # by the scatter, so the count of anchors is unconstrained
        l_delta = max(1, (k0 - 1).bit_length())
        start = max(base_level, lca_level)
        return max(base_level + 1, min(start + l_delta, tree_height - 1))

    # ------------------------------------------------------------------
    def _partition(
        self,
        a_files: list[HeapFile],
        d_files: list[HeapFile],
        anchor_height: int,
        num_buckets: int,
        lca: int,
        bufmgr: BufferManager,
    ) -> dict[int, _Partition]:
        """One pass over each input, writing per-*bucket* files.

        Anchors (level-``l`` nodes) are grouped into at most ``b - 2``
        buckets, so one output frame per bucket plus the input frame
        always fit in the pool — the Grace-partitioning discipline.  A
        bucket is a pre-merged partition: several *adjacent* anchors'
        data side by side (exactly what Algorithm 5's merge step
        produces); adjacency matters because it keeps untouched regions
        of the tree — e.g. subtrees holding only unmatched descendants
        — in their own buckets, which purging can then drop.  The
        anchor->bucket map divides the anchor range under the sampled
        branch point (``lca``) evenly; anchors outside that range clamp
        to the edge buckets.

        Purging (step 3 of Algorithm 5) drops buckets with an empty
        side; the memory join de-duplicates replicated ancestors that
        the grouping brings together.
        """
        bucket_of = self._bucket_map(anchor_height, num_buckets, lca)
        partitions: dict[int, _Partition] = {}
        self._scatter(
            a_files, partitions, "a_files", anchor_height, num_buckets,
            bucket_of, bufmgr, replicate_high=True,
        )
        self._scatter(
            d_files, partitions, "d_files", anchor_height, num_buckets,
            bucket_of, bufmgr, replicate_high=False,
        )
        purged: dict[int, _Partition] = {}
        for bucket, partition in partitions.items():
            if partition.a_records and partition.d_records:
                purged[bucket] = partition
            else:
                partition.destroy()
        return purged

    @staticmethod
    def _bucket_map(anchor_height: int, num_buckets: int, lca: int):
        """anchor code -> bucket index, by position in the LCA's span."""
        if lca and pbitree.height_of(lca) > anchor_height:
            anchors = pbitree.subtree_codes_at_height(lca, anchor_height)
            span_start, span_step, span_len = (
                anchors.start, anchors.step, len(anchors),
            )
        else:
            # degenerate branch point: divide the whole level.  The
            # first code at the anchor height is F(1, h), and codes of
            # one height are spaced twice that far apart (Lemma 2)
            span_start = pbitree.f_ancestor(pbitree.PBiCode(1), anchor_height)
            span_step = 2 * span_start
            span_len = max(1, num_buckets)

        def bucket_of(anchor: int) -> int:
            index = (anchor - span_start) // span_step
            if index < 0:
                index = 0
            elif index >= span_len:
                index = span_len - 1
            return index * num_buckets // span_len

        return bucket_of

    @staticmethod
    def _scatter(
        files: list[HeapFile],
        partitions: dict[int, _Partition],
        side: str,
        anchor_height: int,
        num_buckets: int,
        bucket_of,
        bufmgr: BufferManager,
        replicate_high: bool,
    ) -> None:
        """Route every record of ``files`` to its bucket(s).

        Replicas of the same high ancestor are written at most once per
        bucket (``seen_replicas``), so recursion over a partition that
        already contains replicas does not compound them, and grouping
        several anchors into one bucket collapses their replicas.
        """
        height_of = pbitree.height_of
        f_ancestor = pbitree.f_ancestor
        subtree_at = pbitree.subtree_codes_at_height
        writers: dict[int, object] = {}
        seen_replicas: set[tuple[int, int]] = set()

        def writer_for(bucket: int):
            writer = writers.get(bucket)
            if writer is None:
                partition = partitions.get(bucket)
                if partition is None:
                    partition = _Partition(anchor_height)
                    partitions[bucket] = partition
                # one writer per (bucket, side) per pass — the writers
                # cache is never evicted, so each scatter contributes
                # exactly one fresh heap file to the side's file list
                heap = HeapFile(bufmgr, CODE, name=f"vpj.{side}.{bucket}")
                getattr(partition, side).append(heap)
                writer = heap.open_writer()
                writers[bucket] = writer
            return writer

        try:
            for heap in files:
                for records in heap.scan_pages():
                    for record in records:
                        code = record[0]
                        height = height_of(code)
                        if height <= anchor_height:
                            anchor = f_ancestor(code, anchor_height)
                            writer_for(bucket_of(anchor)).append(record)
                        elif replicate_high:
                            anchors = subtree_at(code, anchor_height)
                            first = bucket_of(anchors[0])
                            last = bucket_of(anchors[-1])
                            for bucket in range(first, last + 1):
                                if (bucket, code) in seen_replicas:
                                    continue
                                seen_replicas.add((bucket, code))
                                writer_for(bucket).append(record)
                        else:
                            # leftmost anchor below this high descendant node
                            anchor = subtree_at(code, anchor_height)[0]
                            writer_for(bucket_of(anchor)).append(record)
        finally:
            # close even when the input scan faults: open writers pin
            # their output pages, and a leaked pin makes partition
            # cleanup fail and mask the original storage fault
            for writer in writers.values():
                writer.close()

    @staticmethod
    def _merge_small(
        partitions: dict[int, _Partition], budget: int
    ) -> list[_Partition]:
        """Greedily coalesce neighbouring small partitions.

        The criterion keeps the merged pair memory-joinable: the
        smaller side of the combined partition must still fit the pool.
        """
        merged: list[_Partition] = []
        current: Optional[_Partition] = None
        limit = max(1, budget - 2)
        for anchor in sorted(partitions):
            partition = partitions[anchor]
            if current is None:
                current = _clone_partition(partition)
                continue
            combined_min = min(
                current.a_pages + partition.a_pages,
                current.d_pages + partition.d_pages,
            )
            if combined_min <= limit:
                current.a_files.extend(partition.a_files)
                current.d_files.extend(partition.d_files)
            else:
                merged.append(current)
                current = _clone_partition(partition)
        if current is not None:
            merged.append(current)
        return merged


def _clone_partition(partition: _Partition) -> _Partition:
    clone = _Partition(partition.anchor_height)
    clone.a_files = list(partition.a_files)
    clone.d_files = list(partition.d_files)
    return clone


def _concat_as_set(
    files: list[HeapFile],
    bufmgr: BufferManager,
    tree_height: int,
    name: str,
    dedup: bool,
) -> ElementSet:
    """Concatenate partition files into one element set (fallback path).

    ``dedup`` drops replicated ancestor copies; safe here because the
    fallback joins a whole partition at once.
    """
    if dedup:
        seen: set[int] = set()

        def codes():
            for heap in files:
                for record in heap.scan():
                    if record[0] not in seen:
                        seen.add(record[0])
                        yield record[0]
    else:
        def codes():
            for heap in files:
                for record in heap.scan():
                    yield record[0]

    return ElementSet.from_codes(bufmgr, codes(), tree_height, name=name)
