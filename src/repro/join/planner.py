"""Join planning: the one place that decides how a join step runs.

Table 1 / Section 3.5 of the paper selects a containment-join algorithm
from the physical properties of the two input element sets — sorted?
indexed? — and this module realises it as *estimate-then-choose*: the
observable properties pick the **cell** (the candidate set), and the
analytic cost model (:mod:`repro.join.costmodel`) ranks the candidates
inside it from set metadata alone (``num_pages``, ``len`` and the
positional histogram every set carries — no page is read to plan):

====================  ======================  ==========================
cell                  requires                candidates (tie order)
====================  ======================  ==========================
sorted+indexed        both sorted + indexed   Anc_Des_B+
sorted                both sorted             Stack-Tree
indexed               a Start index on D      INLJN
single-height         single-height A         SHCJ
unsorted-unindexed    —                       MHCJ+Rollup, VPJ
====================  ======================  ==========================

The first cell whose requirement holds wins.  Inside a cell the
candidates are ranked by ``(total pages, cpu)``, lexicographically, and
by the table's order only on a full tie.  Pages stay the paper's
primary metric: rollup wins while one side of its equijoin fits the
pool (its ancestors are *pair* records, twice as wide as codes) and VPJ
wins when the data is large on both sides.  Where both read each input
exactly once the estimated elementary operations decide: rollup pays
one Lemma-1 verification per co-bucket ``(a, d)`` pair, counted from
the two sets' ``(height, slice)`` histograms.  That is nothing on the
paper's datasets and everything when an ancestor sits near the root
(a path step over document tags: hundreds of false hits per result)
or when the data crowds into a few of many buckets (a document grown
by inserts under a hot parent), where VPJ's Algorithm 6 reads the
same pages and verifies no pair at all.  There is no
pages-per-operation exchange rate to guess, because ``cpu`` never
outvotes a page.  SHCJ is alone in its
cell: no false hits, never more pages than rollup or VPJ, one probe per
descendant — nothing could beat it, so nothing else is priced.

:func:`plan` returns the :class:`Plan` for two element sets,
:func:`choose_algorithm` instantiates the winner, :func:`explain`
renders the plan plus every out-of-cell algorithm's estimate with the
reason it was not considered.  The name -> operator registry
(:data:`ALGORITHMS`, :func:`make_algorithm`) lives here too: nothing
else maps a plan or a paper name to an operator class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Optional

from ..core.pbitree import Height
from ..index.bptree import BPlusTree
from ..storage.elementset import ElementSet, SortOrder
from .ancdes_b import AncDesBPlusJoin
from .base import JoinAlgorithm, JoinReport, JoinSink
from .costmodel import CostEstimate, CostInputs, CostModel
from .inljn import IndexNestedLoopJoin
from .mhcj import (
    MultiHeightJoin,
    MultiHeightRollupJoin,
    rolled_pair_pages,
    rollup_candidate_pairs,
)
from .mpmgjn import MPMGJoin
from .nested_loop import BlockNestedLoopJoin
from .shcj import SingleHeightJoin
from .stacktree import StackTreeDescJoin
from .vpj import VerticalPartitionJoin

__all__ = [
    "ALGORITHMS",
    "make_algorithm",
    "SetProperties",
    "Plan",
    "cell_of",
    "plan",
    "choose_algorithm",
    "explain",
    "PBiTreeJoinFramework",
]

#: paper name -> operator class
ALGORITHMS: dict[str, type[JoinAlgorithm]] = {
    "STACKTREE": StackTreeDescJoin,
    "MPMGJN": MPMGJoin,
    "INLJN": IndexNestedLoopJoin,
    "ADB+": AncDesBPlusJoin,
    "SHCJ": SingleHeightJoin,
    "MHCJ": MultiHeightJoin,
    "MHCJ+Rollup": MultiHeightRollupJoin,
    "VPJ": VerticalPartitionJoin,
    "BNL": BlockNestedLoopJoin,
}

def make_algorithm(name: str) -> JoinAlgorithm:
    """Instantiate an algorithm by its paper name."""
    try:
        return ALGORITHMS[name]()
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}") from None


@dataclass
class SetProperties:
    """Physical properties the planner consults for one input."""

    sorted: bool = False
    start_index: Optional[BPlusTree] = None
    single_height: Optional[Height] = None

    @property
    def indexed(self) -> bool:
        return self.start_index is not None

    @classmethod
    def of(
        cls, elements: ElementSet, start_index: Optional[BPlusTree] = None
    ) -> "SetProperties":
        """What ``elements``' metadata says, plus the Start index the
        caller holds on it, if any (a set does not know its indexes)."""
        return cls(
            sorted=elements.sorted_by == SortOrder.START,
            start_index=start_index,
            single_height=_only_height(elements.known_heights),
        )


def _only_height(heights: Collection[int]) -> Optional[Height]:
    """The one height of a single-height set, else ``None``."""
    if len(heights) == 1:
        return Height(next(iter(heights)))
    return None


_MODEL = CostModel()

#: Table 1 in priority order — the first cell whose requirement holds
#: wins: cell -> (what it requires, candidates in tie-break order, each
#: with the model's formula for it)
_CELLS = {
    "sorted+indexed": ("both inputs sorted and indexed", {"ADB+": _MODEL.adb}),
    "sorted": ("both inputs sorted", {"STACKTREE": _MODEL.stack_tree}),
    "indexed": ("a Start index on D", {"INLJN": _MODEL.inljn}),
    # SHCJ ties VPJ on pages at every input, never reads more than
    # rollup, and has no false hits to verify: a one-candidate cell
    "single-height": ("single-height ancestors", {"SHCJ": _MODEL.shcj}),
    "unsorted-unindexed": (
        "nothing",
        {"MHCJ+Rollup": _MODEL.mhcj_rollup, "VPJ": _MODEL.vpj},
    ),
}


def cell_of(a_props: SetProperties, d_props: SetProperties) -> str:
    """The Table-1 cell two inputs' properties select."""
    both_sorted = a_props.sorted and d_props.sorted
    if both_sorted and a_props.indexed and d_props.indexed:
        return "sorted+indexed"
    if both_sorted:
        return "sorted"
    # INLJN's planned outer side is A, probing a Start index on D; a
    # Start index on A alone (outer = D) does not select the cell
    if d_props.start_index is not None:
        return "indexed"
    # neither sorted nor usably indexed: the paper's new territory
    if a_props.single_height is not None:
        return "single-height"
    return "unsorted-unindexed"


@dataclass(frozen=True)
class Plan:
    """One planned join step.

    ``estimates`` holds the cell's candidates cheapest first — fewest
    pages, then least ``cpu``, then Table-1 order; the first is the
    plan, the rest are what it beat.
    """

    cell: str
    estimates: tuple[CostEstimate, ...]
    inputs: CostInputs
    a_props: SetProperties
    d_props: SetProperties

    @property
    def estimate(self) -> CostEstimate:
        return self.estimates[0]

    @property
    def algorithm_name(self) -> str:
        return self.estimates[0].algorithm

    def instantiate(self) -> JoinAlgorithm:
        """A fresh operator for the winning candidate."""
        name = self.algorithm_name
        a_props, d_props = self.a_props, self.d_props
        if name == "ADB+":
            return AncDesBPlusJoin(
                a_index=a_props.start_index, d_index=d_props.start_index
            )
        if name == "INLJN":
            # the cell holds only with D's Start index: probe it from A
            return IndexNestedLoopJoin(
                d_index=d_props.start_index, force_outer="A"
            )
        if name == "SHCJ":
            return SingleHeightJoin(height=a_props.single_height)
        return make_algorithm(name)


def plan(
    ancestors: ElementSet,
    descendants: ElementSet,
    a_props: Optional[SetProperties] = None,
    d_props: Optional[SetProperties] = None,
    buffer_pages: Optional[int] = None,
) -> Plan:
    """Plan one join step without reading a page.

    Missing properties are inferred from set metadata
    (:meth:`SetProperties.of`); ``buffer_pages`` defaults to the pool
    the ancestors live in.  The positional histograms give the ancestor
    heights and rollup's co-bucket pairs.
    """
    a_props = a_props or SetProperties.of(ancestors)
    d_props = d_props or SetProperties.of(descendants)
    inputs = CostInputs(
        a_pages=ancestors.num_pages,
        d_pages=descendants.num_pages,
        buffer_pages=buffer_pages or ancestors.bufmgr.num_pages,
        a_count=len(ancestors),
        d_count=len(descendants),
        a_heights=len(ancestors.known_heights) or 1,
        rollup_pairs=rollup_candidate_pairs(
            ancestors.histogram, descendants.histogram
        ),
        a_sorted=a_props.sorted,
        d_sorted=d_props.sorted,
        a_indexed=a_props.indexed,
        d_indexed=d_props.indexed,
        a_pair_pages=rolled_pair_pages(ancestors),
    )
    cell = cell_of(a_props, d_props)
    estimates = [formula(inputs) for formula in _CELLS[cell][1].values()]
    # the sort is stable, so a full tie keeps the cell's own order
    estimates.sort(key=lambda estimate: (estimate.total, estimate.cpu))
    return Plan(cell, tuple(estimates), inputs, a_props, d_props)


def choose_algorithm(
    ancestors: ElementSet,
    descendants: ElementSet,
    a_props: Optional[SetProperties] = None,
    d_props: Optional[SetProperties] = None,
    buffer_pages: Optional[int] = None,
) -> JoinAlgorithm:
    """Instantiate the algorithm :func:`plan` picks for these inputs."""
    return plan(
        ancestors, descendants, a_props, d_props, buffer_pages
    ).instantiate()


def explain(
    ancestors: ElementSet,
    descendants: ElementSet,
    a_props: Optional[SetProperties] = None,
    d_props: Optional[SetProperties] = None,
    buffer_pages: Optional[int] = None,
) -> str:
    """EXPLAIN for one join step, as text.

    The first lines are :func:`plan`'s own — the chosen candidate and
    the in-cell candidates it beat (on pages, or on ``cpu`` at equal
    pages); below them every other algorithm the model can price, with
    why Table 1 did not consider it.  Those plans are listed, never
    chosen: the properties gate, the estimate ranks only inside the
    gate.
    """
    chosen = plan(ancestors, descendants, a_props, d_props, buffer_pages)
    cells = list(_CELLS)
    here = cells.index(chosen.cell)
    rows = [(chosen.estimate, "chosen")]
    rows += [(estimate, "in cell, not cheaper") for estimate in chosen.estimates[1:]]
    in_cell = {estimate.algorithm for estimate in chosen.estimates}
    for estimate in _MODEL.all_estimates(chosen.inputs):
        name = estimate.algorithm
        if name in in_cell:
            continue
        home = next(
            (index for index, cell in enumerate(cells) if name in _CELLS[cell][1]),
            None,
        )
        if home is None:
            reason = "not in Table 1"
        elif home < here:
            # a higher-priority cell that did not match: its test failed
            reason = f"needs {_CELLS[cells[home]][0]}"
        else:
            reason = f"Table 1 prefers the {chosen.cell} cell"
        rows.append((estimate, reason))
    lines = [
        f"cell {chosen.cell} -> {chosen.algorithm_name}",
        f"{'plan':<12} {'prep':>8} {'join':>8} {'total':>8} {'cpu':>12}",
        "-" * 52,
    ]
    for estimate, verdict in rows:
        lines.append(
            f"{estimate.algorithm:<12} {estimate.prep_pages:>8.0f} "
            f"{estimate.join_pages:>8.0f} {estimate.total:>8.0f} "
            f"{estimate.cpu:>12.0f}  {verdict}"
        )
    return "\n".join(lines)


class PBiTreeJoinFramework:
    """Convenience façade: plan and run a containment join in one call.

    >>> framework = PBiTreeJoinFramework()
    >>> report, pairs = framework.join(ancestor_set, descendant_set)
    """

    def __init__(self, buffer_pages: Optional[int] = None) -> None:
        self.buffer_pages = buffer_pages

    def plan(
        self,
        ancestors: ElementSet,
        descendants: ElementSet,
        a_props: Optional[SetProperties] = None,
        d_props: Optional[SetProperties] = None,
    ) -> JoinAlgorithm:
        return choose_algorithm(
            ancestors, descendants, a_props, d_props, self.buffer_pages
        )

    def join(
        self,
        ancestors: ElementSet,
        descendants: ElementSet,
        a_props: Optional[SetProperties] = None,
        d_props: Optional[SetProperties] = None,
        collect: bool = True,
    ) -> tuple[JoinReport, list[tuple[int, int]]]:
        algorithm = self.plan(ancestors, descendants, a_props, d_props)
        sink = JoinSink("collect" if collect else "count")
        report = algorithm.run(ancestors, descendants, sink)
        return report, sink.pairs
