"""Containment-join algorithms: the paper's processing framework."""

from .ancdes_b import AncDesBPlusJoin
from .base import JoinAlgorithm, JoinReport, JoinSink
from .inljn import IndexNestedLoopJoin, build_interval_index, build_start_index
from .pipeline import (
    PathPipeline,
    PipelineResult,
    estimate_join_cardinality,
    plan_direction,
)
from .proximity import common_ancestor_join, sibling_pairs, window_join
from .mhcj import MultiHeightJoin, MultiHeightRollupJoin, choose_rollup_height
from .mpmgjn import MPMGJoin
from .nested_loop import BlockNestedLoopJoin
from .planner import (
    PBiTreeJoinFramework,
    Plan,
    SetProperties,
    choose_algorithm,
    explain,
    make_algorithm,
    plan,
)
from .shcj import SingleHeightJoin
from .stacktree import StackTreeAncJoin, StackTreeDescJoin
from .costmodel import CostEstimate, CostInputs, CostModel
from .vpj import VerticalPartitionJoin, memory_containment_join

__all__ = [
    "JoinAlgorithm",
    "JoinReport",
    "JoinSink",
    "BlockNestedLoopJoin",
    "IndexNestedLoopJoin",
    "build_start_index",
    "build_interval_index",
    "PathPipeline",
    "PipelineResult",
    "plan_direction",
    "estimate_join_cardinality",
    "common_ancestor_join",
    "window_join",
    "sibling_pairs",
    "MPMGJoin",
    "StackTreeDescJoin",
    "StackTreeAncJoin",
    "AncDesBPlusJoin",
    "SingleHeightJoin",
    "MultiHeightJoin",
    "MultiHeightRollupJoin",
    "choose_rollup_height",
    "VerticalPartitionJoin",
    "memory_containment_join",
    "PBiTreeJoinFramework",
    "SetProperties",
    "choose_algorithm",
    "plan",
    "explain",
    "Plan",
    "make_algorithm",
    "CostModel",
    "CostInputs",
    "CostEstimate",
]
