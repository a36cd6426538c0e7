"""INLJN probing the ancestor set with a stab index (ablation A6).

The paper's INLJN, with the descendant set as outer, stabs a disk-based
interval tree on A's regions with each ``d.Start`` [7]; its footnote
points at the XR-tree [8] as a stronger stab structure.  The engine's
INLJN answers the same question with ``F(d, h)`` point lookups on a
Start B+-tree (:mod:`repro.join.inljn`).  :class:`StabProbeJoin` keeps
the paper's probe loop for the ablation: :class:`IntervalProbeJoin`
stabs the interval tree, :class:`~.xrtree.XRProbeJoin` the XR-tree.
Each builds its structure on the fly, charged to the join's
preparation I/O; the ancestor-outer direction is INLJN's own.
"""

from __future__ import annotations

from typing import Protocol

from repro.core import batch
from repro.core.pbitree import PBiCode, RegionCode
from repro.join.base import JoinReport, JoinSink
from repro.join.inljn import IndexNestedLoopJoin, build_interval_index
from repro.storage.buffer import BufferManager
from repro.storage.elementset import ElementSet

__all__ = ["StabIndex", "StabProbeJoin", "IntervalProbeJoin", "stab_probe"]


class StabIndex(Protocol):
    """An ancestor-side index answering a stabbing query."""

    def stab_codes(self, point: RegionCode) -> list[PBiCode]: ...

    def destroy(self) -> None: ...


class StabProbeJoin(IndexNestedLoopJoin):
    """INLJN whose descendant-outer direction stabs a :class:`StabIndex`
    on A (a supplied ``a_index``, or one :meth:`build_stab_index`
    builds)."""

    #: the ``index`` attribute of the build span
    stab_kind = ""

    def build_stab_index(
        self, ancestors: ElementSet, bufmgr: BufferManager
    ) -> StabIndex:
        raise NotImplementedError

    def _prepare(self, ancestors, descendants, bufmgr):
        outer = self._outer_side(ancestors, descendants)
        if outer == "A" or self.a_index is not None:
            return super()._prepare(ancestors, descendants, bufmgr)
        with self.trace("inljn.build", index=self.stab_kind, side="A"):
            self._built_index = self.build_stab_index(ancestors, bufmgr)
        return ancestors, descendants, outer

    def _execute(self, prepared, sink: JoinSink, bufmgr: BufferManager) -> JoinReport:
        _ancestors, descendants, outer = prepared
        if outer == "A":
            return super()._execute(prepared, sink, bufmgr)
        index = self._built_index if self.a_index is None else self.a_index
        with self.trace("inljn.probe", outer=outer):
            stab_probe(descendants, index, sink)
        return JoinReport(algorithm=self.name, result_count=sink.count)


def stab_probe(descendants: ElementSet, index: StabIndex, sink: JoinSink) -> None:
    """Bulk starts per page; each descendant's stab candidates are
    verified with one ``ancestors_in`` kernel call."""
    emit = sink.emit
    for d_page in descendants.scan_pages():
        for d_code, point in zip(d_page, batch.starts(d_page)):
            for a_code in batch.ancestors_in(d_code, index.stab_codes(point)):
                emit(a_code, d_code)


class IntervalProbeJoin(StabProbeJoin):
    """The paper's INLJN: the ancestor side is an interval tree."""

    stab_kind = "interval"

    def build_stab_index(
        self, ancestors: ElementSet, bufmgr: BufferManager
    ) -> StabIndex:
        return build_interval_index(ancestors, bufmgr)
