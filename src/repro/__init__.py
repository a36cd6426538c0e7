"""repro — a reproduction of *PBiTree Coding and Efficient Processing of
Containment Joins* (Wang, Jiang, Lu, Yu — ICDE 2003).

The package implements the paper's PBiTree coding scheme, a
Minibase-style paged storage substrate with I/O accounting, and the
complete containment-join framework: the adapted region-code
algorithms (INLJN, MPMGJN, Stack-Tree, Anc_Des_B+) and the new
partitioning algorithms (SHCJ, MHCJ, MHCJ+Rollup, VPJ).

Quickstart::

    from repro import (
        parse_xml, binarize, DiskManager, BufferManager,
        ElementSet, PBiTreeJoinFramework,
    )

    tree = parse_xml(open("doc.xml").read())
    encoding = binarize(tree)
    disk = DiskManager()
    bufmgr = BufferManager(disk, num_pages=64)
    sections = ElementSet.from_tree_tag(bufmgr, tree, "section", encoding.tree_height)
    figures = ElementSet.from_tree_tag(bufmgr, tree, "figure", encoding.tree_height)
    report, pairs = PBiTreeJoinFramework().join(sections, figures)
"""

from .core import pbitree
from .core.binarize import binarize
from .core.encoding import PBiTreeEncoding
from .datatree.builder import random_tree, tree_from_spec
from .datatree.node import DataTree
from .datatree.paths import brute_force_join, select_by_tag
from .datatree.xml_parser import parse_xml
from .datatree.xpath import XPath
from .join.ancdes_b import AncDesBPlusJoin
from .join.base import JoinReport, JoinSink
from .join.inljn import IndexNestedLoopJoin
from .join.mhcj import MultiHeightJoin, MultiHeightRollupJoin
from .join.mpmgjn import MPMGJoin
from .join.nested_loop import BlockNestedLoopJoin
from .join.pipeline import estimate_join_cardinality
from .join.planner import PBiTreeJoinFramework, SetProperties, choose_algorithm
from .join.shcj import SingleHeightJoin
from .join.stacktree import StackTreeAncJoin, StackTreeDescJoin
from .core.update import UpdatableEncoding
from .db import ContainmentDatabase
from .join.vpj import VerticalPartitionJoin
from .obs.metrics import MetricsRegistry
from .obs.tracer import NULL_TRACER, NullTracer, Span, Tracer
from .service import (
    AdmissionController,
    BackpressureRejection,
    QueryService,
    QuotaExceededRejection,
    ServiceClient,
    ServiceRejection,
    TenantQuota,
)
from .storage.buffer import BufferManager, BufferPoolExhaustedError
from .storage.disk import DiskManager, PageCorruptionError, PageNotAllocatedError
from .storage.elementset import ElementSet, SortOrder
from .storage.faults import (
    FaultConfig,
    FaultInjector,
    FaultStats,
    PermanentIOError,
    RetryPolicy,
    StorageFault,
    TransientIOError,
)

__version__ = "1.0.0"

__all__ = [
    "pbitree",
    "binarize",
    "PBiTreeEncoding",
    "DataTree",
    "random_tree",
    "tree_from_spec",
    "parse_xml",
    "XPath",
    "select_by_tag",
    "brute_force_join",
    "DiskManager",
    "BufferManager",
    "ElementSet",
    "SortOrder",
    "JoinReport",
    "JoinSink",
    "BlockNestedLoopJoin",
    "IndexNestedLoopJoin",
    "MPMGJoin",
    "StackTreeDescJoin",
    "StackTreeAncJoin",
    "AncDesBPlusJoin",
    "SingleHeightJoin",
    "MultiHeightJoin",
    "MultiHeightRollupJoin",
    "VerticalPartitionJoin",
    "PBiTreeJoinFramework",
    "SetProperties",
    "choose_algorithm",
    "UpdatableEncoding",
    "ContainmentDatabase",
    "estimate_join_cardinality",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "MetricsRegistry",
    "QueryService",
    "AdmissionController",
    "TenantQuota",
    "ServiceRejection",
    "BackpressureRejection",
    "QuotaExceededRejection",
    "ServiceClient",
    "BufferPoolExhaustedError",
    "PageCorruptionError",
    "PageNotAllocatedError",
    "FaultConfig",
    "FaultInjector",
    "FaultStats",
    "RetryPolicy",
    "StorageFault",
    "TransientIOError",
    "PermanentIOError",
    "__version__",
]
