"""SHCJ: single-height containment join (Algorithm 2).

When every node of the ancestor set sits at one PBiTree height ``h``,
the containment join ``A <| D`` *is* the equijoin
``A JOIN D ON A.code = F(D.code, h)`` — Lemma 1.  The join key of the
descendant side is computed on the fly with shifts, so SHCJ inherits
the whole mature equijoin machinery: an in-memory hash join at
``||A|| + ||D||`` I/O when either side fits in the buffer pool, a Grace
hash join at ``3(||A|| + ||D||)`` otherwise.

A descendant at height >= ``h`` cannot have an ancestor at ``h``; its
``F`` value would be a non-ancestor node, so such records are filtered
by the bulk key function (key ``0``) rather than verified later —
SHCJ produces **no false hits**.

A path's child step (``//a/b``) is the same equijoin with another key:
``A.code = parent(D.code)``, the parent's code read off the document's
live encoding (``parent_codes``).  It needs no single height and has
no false hits either.
"""

from __future__ import annotations

from typing import Optional

from ..core import batch
from ..storage.buffer import BufferManager
from ..storage.record import CODE
from .base import JoinAlgorithm, JoinReport, JoinSink
from .hash_join import BulkKeyFunc, grace_hash_join, in_memory_hash_join_codes

__all__ = ["SingleHeightJoin"]


class SingleHeightJoin(JoinAlgorithm):
    """SHCJ — containment join as a hash equijoin on ``F(d, h)``."""

    name = "SHCJ"

    def __init__(
        self,
        height: Optional[int] = None,
        parent_codes: Optional[BulkKeyFunc] = None,
    ) -> None:
        """``height`` is the (single) height of the ancestor set; when
        omitted it is read off ``A``'s histogram.  ``parent_codes``
        (each code's parent code, ``0`` for none) makes this a child
        step: ``D`` joins on its parents' codes, whatever ``A``'s
        heights."""
        self.height = height
        self.parent_codes = parent_codes

    def _prepare(self, ancestors, descendants, bufmgr):
        height = self.height
        if self.parent_codes is not None:
            return ancestors, descendants, height
        if height is None:
            heights = ancestors.known_heights
            if len(heights) != 1:
                raise ValueError(
                    f"SHCJ requires a single-height ancestor set, "
                    f"found heights {sorted(heights)} — use MHCJ"
                )
            (height,) = heights
        return ancestors, descendants, height

    def _execute(self, prepared, sink: JoinSink, bufmgr: BufferManager) -> JoinReport:
        ancestors, descendants, height = prepared
        report = JoinReport(algorithm=self.name, result_count=0)

        emit = sink.emit

        def identity_keys(codes):
            return codes

        def probe_keys(codes):
            return batch.probe_keys(codes, height)

        if self.parent_codes is not None:
            probe_keys = self.parent_codes

        def join_in_memory(a_pages, d_pages) -> None:
            in_memory_hash_join_codes(
                a_pages, d_pages, identity_keys, probe_keys, emit
            )

        # The build side is A (conventionally the smaller); if either
        # side fits in the pool an in-memory join over whole code pages
        # avoids partitioning.  Grace joins each bucket pair with the
        # A-fits join.
        if ancestors.num_pages <= bufmgr.num_pages - 2:
            with self.trace("shcj.probe", mode="in-memory", build="A"):
                join_in_memory(
                    ancestors.scan_code_arrays(), descendants.scan_code_arrays()
                )
            report.notes = "in-memory (A fits)"
        elif descendants.num_pages <= bufmgr.num_pages - 2:
            # build over D's F-keys, probe with A
            with self.trace("shcj.probe", mode="in-memory", build="D"):
                in_memory_hash_join_codes(
                    descendants.scan_code_arrays(),
                    ancestors.scan_code_arrays(),
                    probe_keys,
                    identity_keys,
                    lambda d_code, a_code: emit(a_code, d_code),
                )
            report.notes = "in-memory (D fits)"
        else:
            with self.trace("shcj.grace") as grace_span:
                partitions = grace_hash_join(
                    bufmgr,
                    ancestors.scan_code_arrays(),
                    descendants.scan_code_arrays(),
                    CODE,
                    CODE,
                    identity_keys,
                    probe_keys,
                    lambda a_file, d_file: join_in_memory(
                        a_file.scan_page_arrays(), d_file.scan_page_arrays()
                    ),
                    name="shcj",
                    build_pages_hint=ancestors.num_pages,
                )
                grace_span.set("partitions", partitions)
            report.partitions = partitions
            report.notes = "grace"
        return report
