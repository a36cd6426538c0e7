"""High-level façade: documents, element sets, indexes and queries.

:class:`ContainmentDatabase` is the adoption surface of this library —
what an application uses instead of wiring disk, buffer pool, encoder,
planner and join operators together by hand:

* load XML text or a pre-built :class:`DataTree`;
* run descendant-axis path queries (``//a//b//c``) as chains of
  containment joins through one :class:`~repro.join.pipeline.
  PathPipeline` over the document's element sets, each step planned by
  :mod:`repro.join.planner` (Table 1 picks the cell, the cost model
  picks inside it);
* create persistent indexes (B+-tree / interval tree) that the planner
  then exploits;
* apply updates (insert/delete elements) through the §2.3.2
  virtual-node machinery of
  :class:`~repro.core.update.UpdatableEncoding`, with persisted
  element sets patched in place by a per-document
  :class:`~repro.storage.DocumentStore` instead of being rebuilt.

Example::

    db = ContainmentDatabase(buffer_pages=64)
    doc = db.load_xml(open("catalog.xml").read(), name="catalog")
    for node in db.query(doc, "//item//price"):
        print(node.tag, node.text)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .core.binarize import binarize
from .core.update import UpdatableEncoding
from .datatree.node import DataTree, NodeView
from .datatree.paths import PathQuery
from .datatree.xml_parser import parse_xml
from .index.bptree import BPlusTree
from .index.interval_tree import IntervalTree
from .join.base import JoinReport
from .join.planner import SetProperties, choose_algorithm, explain
from .obs.metrics import MetricsRegistry
from .obs.tracer import NULL_TRACER, Tracer
from .storage.buffer import BufferManager
from .storage.disk import DiskManager
from .storage.docstore import DocumentStore
from .storage.elementset import ElementSet
from .storage.faults import FaultConfig, FaultInjector, FaultStats, RetryPolicy
from .storage.stats import IOSnapshot

__all__ = ["ContainmentDatabase", "Document", "QueryResult"]


@dataclass
class Document:
    """A loaded, encoded document."""

    name: str
    tree: DataTree
    updatable: UpdatableEncoding
    store: DocumentStore

    @property
    def tree_height(self) -> int:
        return self.updatable.tree_height

    def node(self, node_id: int) -> NodeView:
        return self.tree.node(node_id)

    def __repr__(self) -> str:
        return f"<Document {self.name!r} nodes={len(self.tree)} H={self.tree_height}>"


@dataclass
class QueryResult:
    """Matched elements plus the execution trace of each join step."""

    nodes: list[NodeView]
    reports: list[JoinReport] = field(default_factory=list)

    def __iter__(self) -> Iterator[NodeView]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def total_io(self) -> int:
        return sum(
            report.total_pages for report in self.reports
        )


class ContainmentDatabase:
    """Documents + storage + query processing in one object."""

    def __init__(
        self,
        page_size: int = 1024,
        buffer_pages: int = 64,
        policy: str = "lru",
        faults: "FaultInjector | FaultConfig | None" = None,
        retry: Optional[RetryPolicy] = None,
        checksums: Optional[bool] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        """``faults`` attaches a seeded fault injector to the underlying
        disk (a :class:`FaultConfig` is wrapped automatically) and
        ``retry`` tunes the buffer pool's transient-fault retry policy.
        ``checksums`` defaults to on whenever faults are injected, so
        torn pages are detected rather than silently returned.

        ``tracer`` threads a span tree through every query's joins;
        ``metrics`` attaches live disk counters and accumulates one
        set of join counters per executed operator.  Both default to
        disabled (no overhead).
        """
        if isinstance(faults, FaultConfig):
            faults = FaultInjector(faults)
        if checksums is None:
            checksums = faults is not None
        self.disk = DiskManager(page_size, checksums=checksums, faults=faults)
        self.bufmgr = BufferManager(self.disk, buffer_pages, policy, retry=retry)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind(self.bufmgr)
        self.metrics = metrics
        if metrics is not None:
            metrics.attach_disk(self.disk)
        self._documents: dict[str, Document] = {}

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load_xml(self, text: str, name: str = "doc") -> Document:
        """Parse, encode and register an XML document."""
        return self.load_tree(parse_xml(text), name)

    def load_tree(self, tree: DataTree, name: str = "doc") -> Document:
        """PBiTree-encode ``tree`` in place and register it."""
        if name in self._documents:
            raise ValueError(f"document {name!r} already loaded")
        encoding = UpdatableEncoding(binarize(tree))
        document = Document(
            name=name,
            tree=tree,
            updatable=encoding,
            store=DocumentStore(
                self.bufmgr,
                encoding,
                name=name,
                metrics=self.metrics,
                tracer=self.tracer,
            ),
        )
        self._documents[name] = document
        return document

    def document(self, name: str) -> Document:
        return self._documents[name]

    # ------------------------------------------------------------------
    # element sets and indexes
    # ------------------------------------------------------------------
    def element_set(self, document: Document, tag: str) -> ElementSet:
        """The on-disk element set for one tag, kept current by the
        document's :class:`~repro.storage.DocumentStore` (updates are
        applied as page patches, not rebuilds)."""
        return document.store.element_set(tag)

    def create_start_index(self, document: Document, tag: str) -> BPlusTree:
        """B+-tree on region Start (serves INLJN-descendant and ADB+)."""
        return document.store.start_index(tag)

    def create_interval_index(self, document: Document, tag: str) -> IntervalTree:
        """Interval tree over regions (serves INLJN-ancestor probes)."""
        return document.store.interval_index(tag)

    def step_inputs(
        self, document: Document, tags: list[str]
    ) -> tuple[list[ElementSet], list[SetProperties]]:
        """The element set of each tag and what the planner may know
        about it: its metadata plus whichever persistent indexes exist
        right now (peeked, never built)."""
        store = document.store
        steps = [store.element_set(tag) for tag in tags]
        props = [
            SetProperties.of(
                step,
                store.peek_start_index(tag),
                store.peek_interval_index(tag),
            )
            for tag, step in zip(tags, steps)
        ]
        return steps, props

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(
        self,
        document: Document,
        path: str,
        direction: Optional[str] = None,
    ) -> QueryResult:
        """Evaluate a path query as a chain of containment joins.

        Pure descendant-axis chains (``//a//b//c``) run through
        :class:`PathPipeline`, which decides the join order (top-down
        vs bottom-up) from estimated intermediate sizes unless
        ``direction`` forces one.  Extended syntax — child axis
        ``/a/b``, predicates ``//a[b]`` — is routed through the
        :class:`~repro.datatree.xpath.XPath` evaluator (EA-joins via
        the occupancy-set parent filter).
        """
        from .join.pipeline import PathPipeline

        if self._is_extended_path(path):
            return self._query_extended(document, path)
        steps, props = self.step_inputs(document, PathQuery(path).steps)
        if len(steps) == 1:
            codes = sorted(steps[0].scan())
            nodes = self._decode(document, codes)
            return QueryResult(nodes=nodes)

        pipeline = PathPipeline(
            self.bufmgr, props, direction=direction, tracer=self.tracer
        )
        with self.tracer.span("query", path=path):
            result = pipeline.execute(steps)
        if self.metrics is not None:
            for report in result.reports:
                self.metrics.record_report(report, dataset=document.name)
            self.metrics.record_buffer(self.bufmgr)
        return QueryResult(
            nodes=self._decode(document, result.codes),
            reports=result.reports,
        )

    @staticmethod
    def _is_extended_path(path: str) -> bool:
        """True for syntax PathQuery cannot handle (child axis, [..], *)."""
        import re

        return re.fullmatch(r"(//[-\w.]+)+", path) is None

    def _query_extended(self, document: Document, path: str) -> QueryResult:
        from .datatree.xpath import XPath

        reports: list[JoinReport] = []

        def join(a_codes, d_codes):
            from .join.base import JoinSink

            a_set = ElementSet.from_codes(
                self.bufmgr, a_codes, document.tree_height, "xq.A"
            )
            try:
                d_set = ElementSet.from_codes(
                    self.bufmgr, d_codes, document.tree_height, "xq.D"
                )
                try:
                    sink = JoinSink("collect")
                    algorithm = choose_algorithm(a_set, d_set)
                    report = algorithm.run(a_set, d_set, sink, tracer=self.tracer)
                finally:
                    d_set.destroy()
            finally:
                a_set.destroy()
            reports.append(report)
            if self.metrics is not None:
                self.metrics.record_report(report, dataset=document.name)
            return sink.pairs

        xpath = XPath(path)
        codes = xpath.evaluate_with_joins(
            document.tree, join, alive=document.updatable.is_alive
        )
        return QueryResult(nodes=self._decode(document, codes), reports=reports)

    def _decode(self, document: Document, codes) -> list[NodeView]:
        out = []
        for code in codes:
            node = document.updatable.node_of(code)
            if node is not None:
                out.append(document.tree.node(node))
        return out

    def explain(self, document: Document, path: str) -> str:
        """The direction :meth:`query` takes, then the plan of every
        join step of a path, listed top-down.

        The header names the direction ``query(direction=None)`` runs
        and both estimates (:func:`~repro.join.pipeline.plan_direction`
        over the steps' histograms).  Each step is planned over its two
        *base* sets exactly as :meth:`query` plans a join of those two
        sets (same properties, same pool, no I/O) and rendered by
        :func:`repro.join.planner.explain`.  Only the first join a query
        runs sees two base sets: step 1 top-down, the last step listed
        bottom-up.  Every later join takes a shrunken intermediate on
        one side and is re-planned at run time from its metadata (fewer
        pages, maybe a single height, no index), so it can run a
        different plan than the one listed; those steps are marked.
        Extended syntax (child axis, predicates), which :meth:`query`
        runs through :class:`~repro.datatree.xpath.XPath`, raises
        ``ValueError``.
        """
        from .join.pipeline import plan_direction

        if self._is_extended_path(path):
            raise ValueError(f"explain covers //a//b//c chains only, not {path!r}")
        tags = PathQuery(path).steps
        steps, props = self.step_inputs(document, tags)
        if len(steps) == 1:
            return f"step //{tags[0]}: scans one set and runs no join"
        direction, top_down, bottom_up = plan_direction([s.histogram for s in steps])
        header = (
            f"{direction} order (estimated join input: top-down {top_down:.0f}, "
            f"bottom-up {bottom_up:.0f} codes)"
        )
        if direction == "bottom-up":
            header += "; the run starts from the last step"
        first = 0 if direction == "top-down" else len(steps) - 2
        sides = list(zip(tags, steps, props))
        chunks = []
        for index, ((a_tag, a_set, a_props), (d_tag, d_set, d_props)) in enumerate(
            zip(sides, sides[1:])
        ):
            note = "" if index == first else " (base sets; re-planned at run time)"
            chunks.append(
                f"step //{a_tag} <| //{d_tag}{note}: "
                + explain(a_set, d_set, a_props, d_props)
            )
        return header + "\n" + "\n\n".join(chunks)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert_element(
        self,
        document: Document,
        parent: int,
        tag: str,
        text: Optional[str] = None,
    ) -> int:
        """Insert an element.

        The document store picks the mutation up from the encoding's
        change-event stream and patches the persisted element sets in
        place on next access; maintained indexes are patched or
        retired-and-rebuilt per their contract.
        """
        return document.updatable.insert_child(parent, tag, text)

    def delete_element(self, document: Document, node: int) -> int:
        return document.updatable.delete_subtree(node)

    # ------------------------------------------------------------------
    @property
    def io_stats(self) -> IOSnapshot:
        return self.disk.stats.snapshot()

    @property
    def fault_stats(self) -> Optional[FaultStats]:
        """Injected-fault counters, or None when no injector is attached."""
        return self.disk.faults.stats if self.disk.faults is not None else None

    def __repr__(self) -> str:
        return (
            f"<ContainmentDatabase docs={len(self._documents)} "
            f"buffer={self.bufmgr.num_pages}p>"
        )
