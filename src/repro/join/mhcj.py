"""MHCJ and MHCJ+Rollup (Algorithms 3 and 4).

**MHCJ** horizontally partitions the ancestor set by node height and
runs one SHCJ per partition against the full descendant set:
``A <| D  =  U_i (A_i <| D)`` with the unions disjoint, so results are
simply appended.  Cost grows with the number of height partitions
(each re-scans ``D``): roughly ``5||A|| + 3k·||D||``.

**MHCJ+Rollup** collapses partitions first: every ancestor below a
target height ``h`` is *rolled up* to its (possibly virtual) ancestor
at ``h`` using the ``F`` function, carrying its original code along.
The rolled set has (far) fewer heights — with the default ``max``
strategy, exactly one, so a single SHCJ suffices at
``3(||A|| + ||D||)`` I/O.  Matches produced through a rolled node are
*candidates*: the original code is verified with Lemma 1 in the output
pipeline, and failures are counted as **false hits** (Table 2(f)).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from ..core import batch, pbitree
from ..obs.tracer import NULL_TRACER, Span
from ..storage.buffer import BufferManager
from ..storage.elementset import ElementSet
from ..storage.heapfile import HeapFile
from ..storage.histogram import PositionHistogram, slice_shift
from ..storage.record import CODE, PAIR
from .base import JoinAlgorithm, JoinReport, JoinSink
from .hash_join import grace_hash_join

#: span factory threaded into the module-level helpers; the default is
#: the no-op tracer's, so untraced callers pay nothing
TraceFn = Callable[..., Span]

__all__ = [
    "MultiHeightJoin",
    "MultiHeightRollupJoin",
    "choose_rollup_height",
    "rolled_pair_pages",
    "rollup_candidate_pairs",
]


def rolled_pair_pages(ancestors: ElementSet) -> int:
    """Pages ``ancestors`` occupies as ``(effective, original)`` pair
    records, each twice as wide as a code — the size the rollup join's
    in-memory test compares with the pool, which the planner's cost
    model must agree with."""
    return -(-len(ancestors) // (ancestors.heap.capacity // 2 or 1))


def choose_rollup_height(heights: Sequence[int], strategy: str = "max") -> int:
    """Pick the rollup target height (line 1 of Algorithm 4).

    ``max`` (paper's recommended simple strategy: everything rolls into
    one partition), ``min`` (no node rolls — degenerates to plain
    MHCJ), or ``median``.
    """
    if not heights:
        raise ValueError("empty ancestor set has no heights")
    ordered = sorted(heights)
    if strategy == "max":
        return ordered[-1]
    if strategy == "min":
        return ordered[0]
    if strategy == "median":
        return ordered[len(ordered) // 2]
    raise ValueError(f"unknown rollup strategy {strategy!r}")


def rollup_candidate_pairs(
    ancestors: PositionHistogram, descendants: PositionHistogram
) -> float:
    """Expected ``(a, d)`` pairs the default rollup verifies, from the
    two sets' positional histograms.

    The ``max`` strategy rolls every ancestor to the top height ``t``;
    the equijoin's buckets are the PBiTree nodes at ``t``, and every
    pair of an ancestor and a descendant below ``t`` under the same
    bucket node is a candidate: ``Σ_b |A_b|·|D_b, height < t|``.  A
    bucket spans ``2^(t+1)`` codes.  While that is at least a slice
    (at most 64 buckets) each bucket is a run of whole slices and the
    sum is exact; a finer bucket splits a slice, and the slice's
    product is divided by the buckets in it (pairs spread evenly inside
    one slice).
    """
    if ancestors.tree_height != descendants.tree_height:
        raise ValueError(
            "cannot price a join of sets from different PBiTrees "
            f"(H={ancestors.tree_height} vs H={descendants.tree_height})"
        )
    if not ancestors.counts:
        return 0.0
    target = choose_rollup_height(list(ancestors.heights()))
    # log2 of the slices one bucket spans; negative when it splits one
    spread = target + 1 - slice_shift(ancestors.tree_height)
    merge = max(0, spread)
    a_buckets: dict[int, int] = {}
    for (_height, position), count in ancestors.counts.items():
        bucket = position >> merge
        a_buckets[bucket] = a_buckets.get(bucket, 0) + count
    pairs = sum(
        a_buckets.get(position >> merge, 0) * count
        for (height, position), count in descendants.counts.items()
        if height < target
    )
    return pairs / (1 << max(0, -spread))


def _effective_keys(fields: Sequence[int]) -> Sequence[int]:
    """Bulk key of a page of ``(effective, original)`` pair records."""
    return fields[0::2]


def _probe_height_class(
    a_pages: Iterable[Sequence[int]],
    d_pages: Iterable[Sequence[int]],
    height: int,
    emit: Callable[[int, int], None],
) -> int:
    """Join pair pages that fit the pool with descendant code pages;
    returns the false hits.

    Builds ``effective -> originals`` (bucket insertion order = scan
    order), then probes each descendant page with one verified-kernel
    call.
    """
    table: dict[int, list[int]] = {}
    for fields in a_pages:
        pairs = iter(fields)
        for effective, original in zip(pairs, pairs):
            bucket = table.get(effective)
            if bucket is None:
                table[effective] = [original]
            else:
                bucket.append(original)
    return sum(
        batch.height_class_probe(table, height, d_codes, emit)
        for d_codes in d_pages
    )


def _join_height_class(
    a_pages: Iterable[Sequence[int]],
    a_num_pages: int,
    descendants: ElementSet,
    height: int,
    sink: JoinSink,
    bufmgr: BufferManager,
    report: JoinReport,
) -> str:
    """SHCJ body over pages of ``(effective, original)`` pair records
    (flat field arrays); returns the arm it ran, named as in SHCJ's
    notes.

    ``effective`` is the (possibly rolled) code at ``height``; matches
    through rolled records are verified against the original code and
    misses are counted in ``report.false_hits``.
    """
    emit = sink.emit
    if a_num_pages <= bufmgr.num_pages - 2:
        report.false_hits += _probe_height_class(
            a_pages, descendants.scan_code_arrays(), height, emit
        )
        return "in-memory (A fits)"
    if descendants.num_pages <= bufmgr.num_pages - 2:
        # build F-key -> descendants with one bulk-key call per page,
        # probe with the ancestor pairs; rolled matches are verified a
        # whole bucket at a time
        d_table: dict[int, list[int]] = {}
        for d_codes in descendants.scan_code_arrays():
            keys = batch.probe_keys(d_codes, height)
            for key, d_code in zip(keys, d_codes):
                if not key:
                    continue
                d_bucket = d_table.get(key)
                if d_bucket is None:
                    d_table[key] = [d_code]
                else:
                    d_bucket.append(d_code)
        get = d_table.get
        for fields in a_pages:
            pairs = iter(fields)
            for effective, original in zip(pairs, pairs):
                d_bucket = get(effective)
                if d_bucket is None:
                    continue
                if effective == original:
                    for d_code in d_bucket:
                        emit(original, d_code)
                else:
                    matched = batch.descendants_in(original, d_bucket)
                    for d_code in matched:
                        emit(original, d_code)
                    report.false_hits += len(d_bucket) - len(matched)
        return "in-memory (D fits)"

    # each bucket pair is joined by the A-fits code above
    def join_buckets(a_file: HeapFile, d_file: HeapFile) -> None:
        report.false_hits += _probe_height_class(
            a_file.scan_page_arrays(), d_file.scan_page_arrays(), height, emit
        )

    grace_hash_join(
        bufmgr,
        a_pages,
        descendants.scan_code_arrays(),
        PAIR,
        CODE,
        _effective_keys,
        lambda codes: batch.probe_keys(codes, height),
        join_buckets,
        name=f"mhcj.h{height}",
        build_pages_hint=a_num_pages,
    )
    return "grace"


def _partition_by_height(
    records,
    bufmgr: BufferManager,
    name: str,
    effective_height,
) -> dict[int, list[HeapFile]]:
    """Write ``(effective, original)`` pairs into one bucket per height.

    ``effective_height(code) -> (height, effective_code)`` decides the
    bucket.  At most ``b - 1`` bucket writers stay open at once; an
    evicted bucket continues in a fresh heap file chained to the same
    height (so arbitrarily many heights work with any pool size).
    """
    partitions: dict[int, list[HeapFile]] = {}
    writers: dict[int, object] = {}
    max_writers = max(1, bufmgr.num_pages - 1)

    def writer_for(height: int):
        writer = writers.get(height)
        if writer is None:
            if len(writers) >= max_writers:
                victim_height, victim = next(iter(writers.items()))
                victim.close()
                del writers[victim_height]
            files = partitions.setdefault(height, [])
            if files:
                writer = files[-1].open_writer(resume=True)
            else:
                heap = HeapFile(bufmgr, PAIR, name=f"{name}.h{height}")
                files.append(heap)
                writer = heap.open_writer()
            writers[height] = writer
        return writer

    try:
        for codes in records:
            for code in codes:
                height, effective = effective_height(code)
                writer_for(height).append((effective, code))
    finally:
        # close even when the input scan faults: open writers pin their
        # output pages, and a leaked pin makes partition cleanup fail
        # and mask the original storage fault
        for writer in writers.values():
            writer.close()
    return partitions


def _join_partitions(
    partitions: dict[int, list[HeapFile]],
    descendants: ElementSet,
    sink: JoinSink,
    bufmgr: BufferManager,
    report: JoinReport,
    trace: TraceFn = NULL_TRACER.span,
) -> None:
    try:
        for height in sorted(partitions, reverse=True):
            files = partitions[height]

            def pages():
                for heap in files:
                    yield from heap.scan_page_arrays()

            num_pages = sum(heap.num_pages for heap in files)
            with trace("mhcj.join_height", height=height) as span:
                span.set("mode", _join_height_class(
                    pages(), num_pages, descendants, height, sink, bufmgr, report
                ))
    finally:
        for files in partitions.values():
            for heap in files:
                heap.destroy()


class MultiHeightJoin(JoinAlgorithm):
    """MHCJ: one height-partitioning pass, then SHCJ per partition."""

    name = "MHCJ"

    def _execute(self, prepared, sink: JoinSink, bufmgr: BufferManager) -> JoinReport:
        ancestors, descendants = prepared
        report = JoinReport(algorithm=self.name, result_count=0)
        height_of = pbitree.height_of
        with self.trace("mhcj.partition") as part_span:
            partitions = _partition_by_height(
                ancestors.scan_pages(),
                bufmgr,
                "mhcj.A",
                lambda code: (height_of(code), code),
            )
            part_span.set("partitions", len(partitions))
        report.partitions = len(partitions)
        _join_partitions(
            partitions, descendants, sink, bufmgr, report, trace=self.trace
        )
        return report


class MultiHeightRollupJoin(JoinAlgorithm):
    """MHCJ+Rollup: roll ancestors up to a target height, then join + filter."""

    name = "MHCJ+Rollup"

    def __init__(
        self, strategy: str = "max", target_height: Optional[int] = None
    ) -> None:
        self.strategy = strategy
        self.target_height = target_height

    def _execute(self, prepared, sink: JoinSink, bufmgr: BufferManager) -> JoinReport:
        ancestors, descendants = prepared
        report = JoinReport(algorithm=self.name, result_count=0)
        height_of = pbitree.height_of
        f_ancestor = pbitree.f_ancestor

        if not len(ancestors) or not len(descendants):
            return report

        # The heights are set metadata; pick the target.
        heights = ancestors.known_heights
        target = self.target_height
        if target is None:
            target = choose_rollup_height(sorted(heights), self.strategy)
        report.notes = f"rolled to height {target}"

        if target >= max(heights):
            # Everything rolls into one height class: stream the rolled
            # pair records straight into the equijoin — no intermediate
            # file, which is what makes the 3(||A|| + ||D||) cost hold.
            report.partitions = 1

            # one rollup_pairs kernel call per page of codes, each
            # giving the page's flat (effective, original) fields
            rolled_pages = (
                batch.rollup_pairs(codes, target)
                for codes in ancestors.scan_code_arrays()
            )
            with self.trace("mhcj.rollup", target_height=target) as span:
                span.set("mode", _join_height_class(
                    rolled_pages,
                    rolled_pair_pages(ancestors),
                    descendants,
                    target,
                    sink,
                    bufmgr,
                    report,
                ))
        else:
            # General case: write rolled pair records, partitioned by
            # effective height (nodes above the target keep their own
            # height).
            def effective_height(code: int) -> tuple[int, int]:
                height = height_of(code)
                if height < target:
                    return target, f_ancestor(code, target)
                return height, code

            with self.trace("mhcj.partition", target_height=target) as part_span:
                partitions = _partition_by_height(
                    ancestors.scan_pages(), bufmgr, "rollup.A", effective_height
                )
                part_span.set("partitions", len(partitions))
            report.partitions = len(partitions)
            _join_partitions(
                partitions, descendants, sink, bufmgr, report, trace=self.trace
            )
        return report
