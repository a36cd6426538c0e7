"""High-level façade: documents, element sets, indexes and queries.

:class:`ContainmentDatabase` is the adoption surface of this library —
what an application uses instead of wiring disk, buffer pool, encoder,
planner and join operators together by hand:

* load XML text or a pre-built :class:`DataTree`;
* run path queries (``//a//b//c``, ``//a/b``, ``//a[b]//*``) as
  chains of semijoins through one :class:`~repro.join.pipeline.
  PathPipeline` over the document's element sets, each containment
  step planned by :mod:`repro.join.planner` (Table 1 picks the cell,
  the cost model picks inside it), each child step an equijoin on the
  parent code;
* create persistent Start indexes (B+-tree) that the planner
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
from .datatree.xpath import Predicate, XPath
from .datatree.xml_parser import parse_xml
from .index.bptree import BPlusTree
from .join.base import JoinReport
from .join.pipeline import PathPipeline, StepFilter, plan_direction
from .join.planner import SetProperties, explain
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


#: the mark of an explained join that a query re-plans at run time
RE_PLANNED = " (base sets; re-planned at run time)"

#: what explain says of a child step: there is no plan to choose
CHILD_PLAN = (
    "SHCJ on the parent code (A.code = parent(D.code), read off the "
    "document's encoding): no false hits, no plan choice"
)


def _predicate_text(predicate: Predicate) -> str:
    return f"[{'.//' if predicate.axis == 'descendant' else ''}{predicate.tag}]"


def _explain_join(axis, a_set, d_set, a_props, d_props) -> str:
    if axis == "child":
        return CHILD_PLAN
    return explain(a_set, d_set, a_props, d_props)


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

    def step_inputs(
        self, document: Document, tags: list[str]
    ) -> tuple[list[ElementSet], list[SetProperties]]:
        """The element set of each tag and what the planner may know
        about it: its metadata plus whichever persistent indexes exist
        right now (peeked, never built)."""
        store = document.store
        steps = [store.element_set(tag) for tag in tags]
        props = [
            SetProperties.of(step, store.peek_start_index(tag))
            for tag, step in zip(tags, steps)
        ]
        return steps, props

    def path_inputs(
        self, document: Document, path: XPath
    ) -> tuple[list[ElementSet], list[SetProperties], list[list[StepFilter]]]:
        """:meth:`step_inputs` for every step of ``path``, plus each
        step's predicates, each a :class:`~repro.join.pipeline.
        StepFilter` over its tag's set (``*`` reads the set of every
        live element)."""
        steps, props = self.step_inputs(document, path.tags)
        filters = []
        for step in path.steps:
            sets, set_props = self.step_inputs(
                document, [predicate.tag for predicate in step.predicates]
            )
            filters.append([
                StepFilter(predicate.axis, elements, predicate_props)
                for predicate, elements, predicate_props in zip(
                    step.predicates, sets, set_props
                )
            ])
        return steps, props, filters

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(
        self,
        document: Document,
        path: str,
        direction: Optional[str] = None,
    ) -> QueryResult:
        """Evaluate a path query as a chain of semijoins.

        Every path of the grammar (:mod:`repro.datatree.xpath`:
        descendant and child axes, ``[t]`` / ``[.//t]`` predicates,
        ``*``) runs through one :class:`PathPipeline` over the
        document's element sets.  Child steps join on the parent codes
        of the document's live encoding; the pipeline decides the join
        order (top-down vs bottom-up) from estimated intermediate sizes
        unless ``direction`` forces one.  A malformed path raises
        :class:`~repro.datatree.xpath.XPathSyntaxError`.
        """
        xpath = XPath(path)
        steps, props, filters = self.path_inputs(document, xpath)
        pipeline = PathPipeline(
            self.bufmgr,
            props,
            direction=direction,
            tracer=self.tracer,
            axes=xpath.axes,
            filters=filters,
            parent_codes=document.updatable.parent_codes,
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

    def _decode(self, document: Document, codes) -> list[NodeView]:
        # every set a query reads is drained first, so each answer code
        # is live: a stale one fails NodeView's range check instead of
        # vanishing
        node_of = document.updatable.node_of
        return [document.tree.node(node_of(code)) for code in codes]  # type: ignore[arg-type]

    def explain(self, document: Document, path: str) -> str:
        """The direction :meth:`query` takes, then the plan of every
        join step of a path: predicates first (they run first), then
        the chain, listed top-down.

        The header names the direction ``query(direction=None)`` runs
        and both estimates (:func:`~repro.join.pipeline.plan_direction`
        over the steps' histograms).  Each containment step is planned
        over its two *base* sets exactly as :meth:`query` plans a join
        of those two sets (same properties, same pool, no I/O) and
        rendered by :func:`repro.join.planner.explain`; a child step or
        ``[t]`` predicate always joins on the parent code.  Only the
        first join a query runs sees two base sets: the first predicate
        of a step, or (with no predicate on either side) step 1
        top-down, the last step listed bottom-up.  Every later join
        takes a shrunken intermediate on one side and is re-planned at
        run time from its metadata (fewer pages, maybe a single height,
        no index), so it can run a different plan than the one listed;
        those steps are marked.
        """
        xpath = XPath(path)
        steps, props, filters = self.path_inputs(document, xpath)
        labels, chunks = [], []
        for step, a_set, a_props, step_filters in zip(
            xpath.steps, steps, props, filters
        ):
            label = ("//" if step.axis == "descendant" else "/") + step.tag
            for predicate, step_filter in zip(step.predicates, step_filters):
                # the first predicate reads the base set, later ones
                # the set the one before it shrank
                note = RE_PLANNED if label.endswith("]") else ""
                chunks.append(
                    f"step {label} <| {_predicate_text(predicate)}{note}: "
                    + _explain_join(
                        step_filter.axis, a_set, step_filter.elements,
                        a_props, step_filter.props,
                    )
                )
                label += _predicate_text(predicate)
            labels.append(label)
        if len(steps) == 1:
            if not chunks:
                return f"step {labels[0]}: scans one set and runs no join"
            return "\n\n".join(chunks)
        direction, top_down, bottom_up = plan_direction([s.histogram for s in steps])
        header = (
            f"{direction} order (estimated join input: top-down {top_down:.0f}, "
            f"bottom-up {bottom_up:.0f} codes)"
        )
        if direction == "bottom-up":
            header += "; the run starts from the last step"
        first = 0 if direction == "top-down" else len(steps) - 2
        for index in range(len(steps) - 1):
            base = index == first and not (filters[index] or filters[index + 1])
            chunks.append(
                f"step {labels[index]} <| {labels[index + 1]}"
                f"{'' if base else RE_PLANNED}: " + _explain_join(
                    xpath.steps[index + 1].axis, steps[index], steps[index + 1],
                    props[index], props[index + 1],
                )
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
