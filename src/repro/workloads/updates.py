"""Update-heavy workload generator (the §2.3.2 update benchmarks).

Drives a seeded stream of element inserts and subtree deletes against a
live encoding wired to a :class:`~repro.storage.DocumentStore`, so the
whole incremental pipeline is exercised: change events, the per-tag
update log, page patches, and index retirement.  A ``hotspot`` fraction
of inserts targets one fixed parent — repeatedly filling the same
sibling level is what provokes the §2.3.2 local relabels, and
``BENCH_updates.json`` reports what they cost per insert.

The generator measures, it does not assert: correctness of the same
op-stream is covered by the differential storm tests
(``tests/test_docstore.py``, ``tests/test_update_properties.py``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from ..core.binarize import binarize
from ..core.update import CodeSpaceError, UpdatableEncoding
from ..datatree.builder import random_tree
from ..storage.buffer import BufferManager
from ..storage.disk import DiskManager
from ..storage.docstore import DocumentStore
from ..storage.stats import IOSnapshot

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry

__all__ = [
    "UpdateWorkloadSpec",
    "UpdateWorkloadResult",
    "run_update_workload",
]


@dataclass(frozen=True)
class UpdateWorkloadSpec:
    """One reproducible update storm (fixed by ``seed``)."""

    #: initial document size (nodes) before the storm
    nodes: int = 400
    #: update operations to run
    updates: int = 1_000
    #: fraction of operations that insert (the rest delete a subtree)
    insert_ratio: float = 0.7
    #: fraction of inserts aimed at the current hot parent — sibling
    #: overflow there is what forces local relabels
    hotspot: float = 0.5
    #: hot-parent rotation width: after this many hot inserts a new hot
    #: parent is drawn.  A dozen children overflow one parent's sibling
    #: level a few times (each overflow doubles its ``2**k`` slots and
    #: relabels the subtree one level deeper); rotating spreads those
    #: relabels over the document instead of deepening one subtree a
    #: level per doubling until the tree must grow.
    hot_width: int = 12
    tags: Sequence[str] = ("a", "b", "c", "d")
    seed: int = 0
    min_height: int = 8
    #: once the encoding reaches this height, growth is switched off
    #: and growth-forcing inserts are retried under shallower parents
    #: (or skipped) — keeps every code inside the 63-bit record format
    #: however long the storm runs (every sibling-level overflow pushes
    #: a subtree one level deeper, and one past the leaf level grows
    #: the whole tree)
    max_height: int = 56
    page_size: int = 1024
    buffer_pages: int = 64
    #: apply the pending log every N operations (0 = only at the end);
    #: models a store that lags its document by a bounded window
    flush_every: int = 64

    def __post_init__(self) -> None:
        for name, low in (("nodes", 1), ("updates", 0), ("buffer_pages", 1)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        for name in ("insert_ratio", "hotspot"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass
class UpdateWorkloadResult:
    """Everything measured about one run of the workload."""

    spec: UpdateWorkloadSpec
    #: final :meth:`~repro.core.update.UpdateStats.as_dict` payload
    stats: dict[str, int]
    #: the headline: amortised nodes relabelled per insert
    relabelled_per_insert: float
    #: update-log records applied to pages (≥ operations: one relabel
    #: op can log several per-tag records)
    log_records_applied: int
    #: inserts dropped because they would have grown the tree past
    #: ``spec.max_height`` even under fallback parents
    skipped_inserts: int
    wall_seconds: float
    io: IOSnapshot = field(default_factory=IOSnapshot)

    def as_metrics(self) -> dict[str, float]:
        """Flat mapping for BENCH exports, keyed ``updates.*``."""
        out = {f"updates.{k}": float(v) for k, v in self.stats.items()}
        out["updates.relabelled_per_insert"] = self.relabelled_per_insert
        out["updates.log_records_applied"] = float(self.log_records_applied)
        out["updates.skipped_inserts"] = float(self.skipped_inserts)
        out["updates.operations"] = float(self.spec.updates)
        return out


def _storm(
    encoding: UpdatableEncoding,
    spec: UpdateWorkloadSpec,
    rng: random.Random,
    count: int,
) -> int:
    """Run ``count`` operations; returns the number of skipped inserts."""
    tree = encoding.tree
    hot_parent = tree.root
    hot_count = 0
    skipped = 0
    for _ in range(count):
        live = [n for n in range(len(tree)) if encoding.is_alive(n)]
        if not encoding.is_alive(hot_parent) or hot_count >= spec.hot_width:
            hot_parent = rng.choice(live)
            hot_count = 0
        if encoding.tree_height >= spec.max_height:
            # at the code-space budget: growth-forcing inserts must be
            # rejected (atomically — the encoding stays clean) and
            # retried under a shallower parent
            encoding.allow_growth = False
        if rng.random() < spec.insert_ratio or len(live) < 8:
            if rng.random() < spec.hotspot:
                parent = hot_parent
                hot_count += 1
            else:
                parent = rng.choice(live)
            tag = rng.choice(spec.tags)
            for candidate in (parent, tree.root):
                try:
                    encoding.insert_child(candidate, tag)
                    break
                except CodeSpaceError:
                    continue
            else:
                skipped += 1
        else:
            non_root = [n for n in live if tree.parents[n] >= 0]
            encoding.delete_subtree(rng.choice(non_root))
    return skipped


def run_update_workload(
    spec: UpdateWorkloadSpec,
    metrics: Optional["MetricsRegistry"] = None,
) -> UpdateWorkloadResult:
    """Run the workload on a fresh storage bench.

    Ends with a full :meth:`~repro.storage.DocumentStore.flush` and a
    :meth:`~repro.storage.DocumentStore.verify` of every materialised
    tag, so a measurement run cannot silently report numbers for a
    store that diverged from its document.
    """
    rng = random.Random(spec.seed)
    tree = random_tree(spec.nodes, seed=spec.seed, tags=tuple(spec.tags))
    encoding = UpdatableEncoding(binarize(tree, min_height=spec.min_height))
    disk = DiskManager(spec.page_size)
    bufmgr = BufferManager(disk, spec.buffer_pages)
    store = DocumentStore(bufmgr, encoding, name="updates")
    for tag in sorted(set(spec.tags)):
        store.element_set(tag)
    disk.stats.reset()

    applied = 0
    skipped = 0
    started = time.perf_counter()
    chunk = spec.flush_every or spec.updates
    done = 0
    while done < spec.updates:
        step = min(chunk, spec.updates - done)
        skipped += _storm(encoding, spec, rng, step)
        applied += store.flush()
        done += step
    wall = time.perf_counter() - started

    encoding.validate()
    for tag in store.tags():
        store.verify(tag)

    result = UpdateWorkloadResult(
        spec=spec,
        stats=encoding.stats.as_dict(),
        relabelled_per_insert=encoding.stats.relabelled_per_insert,
        log_records_applied=applied,
        skipped_inserts=skipped,
        wall_seconds=wall,
        io=disk.stats.snapshot(),
    )
    if metrics is not None:
        metrics.record_update_stats(encoding.stats)
        metrics.counter("updates.log_records_applied").inc(applied)
    return result
