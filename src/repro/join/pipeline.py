"""Path-query pipelines: ordering a chain of containment joins.

A descendant-axis path ``//t1//t2//...//tn`` decomposes into ``n - 1``
containment joins ([12], which the paper adopts for its real-world
workloads).  The joins can be evaluated in different orders:

* **top-down** (left to right): join (t1, t2), keep the matched t2
  elements, join them with t3, ...;
* **bottom-up** (right to left): join (t_{n-1}, t_n), keep the matched
  *ancestors* t_{n-1}, join (t_{n-2}, those), ...; one final top-down
  sweep recovers the surviving t_n elements.

Both are semijoin programs with the same answer; their costs differ by
the intermediate cardinalities.  :func:`plan_direction` estimates them
straight off the positional histogram every element set carries
(:class:`~repro.storage.histogram.PositionHistogram`, paper Section 6),
so planning reads no page; :class:`PathPipeline` runs the chain in the
cheaper direction and reports each step.

Each step runs as a semijoin: its sink (``JoinSink("semi-d")`` top-down,
``"semi-a"`` in the bottom-up shrink) keeps the distinct survivors of
one side, never a pair, and the step's ``result_count`` is their
number.  Survivors that feed a later join are written as an element
set, the input every operator reads; the last join's survivors are
the answer, sorted, and are never written.

The same program runs the rest of the path grammar
(:mod:`repro.datatree.xpath`).  A **child step** ``/t`` joins on the
parent's code (SHCJ with the caller's ``parent_codes`` key) instead of
a planned containment join; both directions are unchanged, and its
direction estimate is the containment one, an upper bound.  A
**predicate** ``[t]`` / ``[.//t]`` is a :class:`StepFilter`: a
``semi-a`` step that shrinks its step's set before the chain runs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core import pbitree
from ..obs.tracer import NULL_TRACER, Tracer
from ..storage.buffer import BufferManager
from ..storage.elementset import ElementSet
from ..storage.histogram import PositionHistogram, slice_shift
from .base import JoinReport, JoinSink
from .hash_join import BulkKeyFunc
from .planner import SetProperties, choose_algorithm
from .shcj import SingleHeightJoin

__all__ = [
    "NoParentMapError",
    "PathPipeline",
    "PipelineResult",
    "StepFilter",
    "estimate_join_cardinality",
    "plan_direction",
]

#: per-step planner properties; ``None`` = infer from set metadata
StepProperties = Sequence[Optional[SetProperties]]

#: one chain step as the planner sees it: ``(count, cells)``, its number
#: of codes and its ``(height, slice) -> count`` cells — a histogram's
#: own, or a copy shrunk to the estimated survivors of the join before
_Cells = dict[tuple[int, int], int]
_Step = tuple[int, _Cells]


class NoParentMapError(ValueError):
    """A child step or ``[t]`` predicate met a pipeline built without
    ``parent_codes`` (a saved image stores no parent map)."""


@dataclass(frozen=True)
class StepFilter:
    """An existence predicate of one path step: keep the step's
    elements with a child (``axis="child"``) or a descendant
    (``"descendant"``) in ``elements``."""

    axis: str
    elements: ElementSet
    props: Optional[SetProperties] = None


@dataclass
class PipelineResult:
    """Final matches plus the per-step execution trace."""

    codes: list[int]
    direction: str
    reports: list[JoinReport] = field(default_factory=list)
    estimated_cost: float = 0.0

    @property
    def total_io(self) -> int:
        return sum(report.total_pages for report in self.reports)


def plan_direction(
    histograms: Sequence[PositionHistogram],
) -> tuple[str, float, float]:
    """Choose top-down vs bottom-up from estimated intermediate sizes.

    ``histograms`` are the steps' in path order, all of one PBiTree
    (else ``ValueError``).  Returns ``(direction, top_down_cost,
    bottom_up_cost)``: each cost sums the estimated *input*
    cardinalities of the chain's joins (a proxy for pages).
    """
    if len(histograms) < 2:
        return "top-down", 0.0, 0.0
    tree_height, steps = _steps(histograms)
    top_down = _sweep(steps, tree_height, bottom_up=False)
    # bottom-up needs the final recovery sweep over the last tag
    bottom_up = _sweep(steps, tree_height, bottom_up=True) + steps[-1][0]
    direction = "top-down" if top_down <= bottom_up else "bottom-up"
    return direction, top_down, bottom_up


def estimate_join_cardinality(a: PositionHistogram, d: PositionHistogram) -> float:
    """Expected |A <| D| from the two sets' positional histograms.

    Per ancestor height ``h`` and slice ``s``, a descendant in ``s``
    below ``h`` has exactly one ancestor slot at ``h`` (``F`` is a
    function); that slot lies in the same slice (slices are wider than
    any realistic subtree stride) and is occupied with probability
    ``|A_{h,s}| / slots_h(s)``.  Histograms of different PBiTrees raise
    ``ValueError``: their slices do not line up.
    """
    tree_height, (a_step, d_step) = _steps([a, d])
    return _positional_estimate(a_step, d_step, tree_height)


def _steps(histograms: Sequence[PositionHistogram]) -> tuple[int, list[_Step]]:
    """The histograms' one tree height, and each histogram as a step."""
    heights = {histogram.tree_height for histogram in histograms}
    if len(heights) != 1:
        raise ValueError(
            "cannot estimate a join of sets from different PBiTrees "
            f"(H={sorted(heights)})"
        )
    return heights.pop(), [(sum(h.counts.values()), h.counts) for h in histograms]


def _sweep(steps: list[_Step], tree_height: int, bottom_up: bool) -> float:
    """Join the chain in one direction, each join keeping the estimated
    survivors of the step it moves to; returns the summed input sizes."""
    order = steps[::-1] if bottom_up else steps
    cost = 0.0
    current = order[0]
    for step in order[1:]:
        cost += current[0] + step[0]
        ancestors, descendants = (step, current) if bottom_up else (current, step)
        matched = _positional_estimate(ancestors, descendants, tree_height)
        current = _shrunk(step, min(float(step[0]), matched))
    return cost


def _shrunk(step: _Step, survivors: float) -> _Step:
    """Scale a step to an estimated survivor count.  Each cell keeps at
    least one code, so a step shrunk to ``count == 0`` still has cells."""
    count, cells = step
    if count == 0:
        return step
    ratio = max(0.0, min(1.0, survivors / count))
    return int(round(count * ratio)), {
        key: max(1, int(round(cell * ratio))) for key, cell in cells.items()
    }


def _slots_at_height(span_size: int, height: int) -> int:
    """How many PBiTree nodes of ``height`` exist inside a code range.

    Nodes of one height form an arithmetic progression with stride
    ``2**(height+1)``; this density argument is what the PBiTree's
    regular structure buys over an arbitrary region coding.
    """
    return max(1, span_size >> (height + 1))


def _slice_counts_below(cells: _Cells, height: int) -> dict[int, int]:
    """Per-slice counts of the cells below ``height``, keyed in the
    cells' own order (the order :func:`_positional_estimate` sums in)."""
    out: dict[int, int] = {}
    for (h, slice_index), count in cells.items():
        if h < height:
            out[slice_index] = out.get(slice_index, 0) + count
    return out


def _counts_below_each(
    cells: _Cells, heights: list[int]
) -> dict[int, dict[int, int]]:
    """:func:`_slice_counts_below` for each of ``heights``, from one
    ascending sweep over the cells grouped by height (key order aside:
    these dicts are only looked up)."""
    by_height: dict[int, list[tuple[int, int]]] = {}
    for (h, slice_index), count in cells.items():
        by_height.setdefault(h, []).append((slice_index, count))
    cell_heights = sorted(by_height)
    running: dict[int, int] = {}
    out: dict[int, dict[int, int]] = {}
    taken = 0
    for height in sorted(heights):
        while taken < len(cell_heights) and cell_heights[taken] < height:
            for slice_index, count in by_height[cell_heights[taken]]:
                running[slice_index] = running.get(slice_index, 0) + count
            taken += 1
        out[height] = dict(running)
    return out


def _positional_estimate(a: _Step, d: _Step, tree_height: int) -> float:
    # the zero test is on the counts: a shrunk step keeps its cells
    if not a[0] or not d[0]:
        return 0.0
    shift = slice_shift(tree_height)
    slice_size = 1 << shift

    # group A's positional counts by height
    a_by_height: dict[int, dict[int, int]] = {}
    for (height, slice_index), count in a[1].items():
        a_by_height.setdefault(height, {})[slice_index] = count
    # D's counts below each low ancestor height, read off D's cells once
    below = _counts_below_each(d[1], [h for h in a_by_height if h < shift])
    # the top heights sum in D's cell order; heights with the same D
    # heights below them share one ordered scan
    d_heights = sorted({h for h, _slice in d[1]})
    top_counts: dict[int, dict[int, int]] = {}

    expected = 0.0
    for height, slices in a_by_height.items():
        if height < shift:
            # the ancestor slot of a descendant stays inside its slice
            d_slices = below[height]
            slots = _slots_at_height(slice_size, height)
            for slice_index, a_count in slices.items():
                d_count = d_slices.get(slice_index, 0)
                if d_count:
                    expected += min(1.0, a_count / slots) * d_count
        else:
            # the whole slice shares ONE ancestor node at this height;
            # its slice index is F applied to slice indices (slices are
            # codes shifted right, and F commutes with the shift here)
            cut = bisect_left(d_heights, height)
            ordered = top_counts.get(cut)
            if ordered is None:
                ordered = top_counts[cut] = _slice_counts_below(d[1], height)
            for slice_index, d_count in ordered.items():
                anchor_slice = pbitree.f_ancestor(slice_index, height - shift)
                a_count = slices.get(anchor_slice, 0)
                expected += min(1.0, float(a_count)) * d_count
    return expected


class PathPipeline:
    """Plan and execute a chain of containment joins over element sets."""

    def __init__(
        self,
        bufmgr: BufferManager,
        props: Optional[StepProperties] = None,
        direction: Optional[str] = None,
        tracer: Optional[Tracer] = None,
        axes: Optional[Sequence[str]] = None,
        filters: Optional[Sequence[Sequence[StepFilter]]] = None,
        parent_codes: Optional[BulkKeyFunc] = None,
    ) -> None:
        """``props`` parallels the ``steps`` later passed to
        :meth:`execute` with what the caller knows about each base set
        beyond its metadata (its indexes): every join step is planned
        by :func:`~repro.join.planner.choose_algorithm` from them, and
        from metadata alone for the intermediate sets the pipeline
        materialises itself.  ``direction`` forces ``"top-down"``/
        ``"bottom-up"`` instead of estimating the cheaper order;
        ``tracer`` threads a span tree through planning and every join
        step.  ``axes`` and ``filters`` parallel the steps too:
        ``axes[i]`` says how step ``i`` joins step ``i - 1``
        (``"descendant"``, the default, or ``"child"``; ``axes[0]`` is
        not read) and ``filters[i]`` are step ``i``'s predicates.
        ``parent_codes`` maps codes to their parents' codes (``0`` for
        none), the key of every child step."""
        if direction not in (None, "top-down", "bottom-up"):
            raise ValueError(f"unknown direction {direction!r}")
        self.bufmgr = bufmgr
        self.props = props
        self.forced_direction = direction
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind(bufmgr)
        self.axes = axes
        self.filters = filters
        self.parent_codes = parent_codes

    # ------------------------------------------------------------------
    def execute(self, steps: Sequence[ElementSet]) -> PipelineResult:
        """Run the path; ``steps`` are the per-tag element sets in path
        order (outermost first).  Returns the final-step codes that
        have the whole ancestor chain."""
        if not steps:
            raise ValueError("empty path")
        count = len(steps)
        props = list(self.props) if self.props is not None else [None] * count
        axes = self.axes if self.axes is not None else ["descendant"] * count
        filters = self.filters if self.filters is not None else [()] * count
        if not len(props) == len(axes) == len(filters) == count:
            raise ValueError("props, axes and filters must parallel steps")
        step_axes = set(axes[1:]) | {f.axis for fs in filters for f in fs}
        if not step_axes <= {"descendant", "child"}:
            raise ValueError(f"unknown axis in {sorted(step_axes)}")
        if "child" in step_axes and self.parent_codes is None:
            raise NoParentMapError(
                "a child step or [t] predicate joins on parent codes, and "
                "this pipeline has no parent map"
            )
        if count == 1 and not filters[0]:
            return PipelineResult(
                codes=sorted(steps[0].scan()), direction="top-down"
            )

        if self.forced_direction is not None:
            direction = self.forced_direction
            td_cost = bu_cost = 0.0
        else:
            with self.tracer.span("pipeline.plan", steps=count):
                direction, td_cost, bu_cost = plan_direction(
                    [step.histogram for step in steps]
                )
        estimated = td_cost if direction == "top-down" else bu_cost

        # predicates shrink their step's set first; the filtered sets
        # are the pipeline's own, so their ``props`` slot goes to None
        steps = list(steps)
        reports: list[JoinReport] = []
        filtered: list[ElementSet] = []
        try:
            for index, step_filters in enumerate(filters):
                for position, step_filter in enumerate(step_filters, 1):
                    report, matched = self._join_step(
                        steps[index],
                        step_filter.elements,
                        "semi-a",
                        step_filter.axis,
                        props[index],
                        step_filter.props,
                    )
                    reports.append(report)
                    if count == 1 and position == len(step_filters):
                        return PipelineResult(
                            sorted(matched), direction, reports, estimated
                        )
                    steps[index] = self._materialize(
                        matched, steps[index].tree_height, f"pipe.filter.{index}"
                    )
                    filtered.append(steps[index])
                    props[index] = None
            run = self._run_top_down if direction == "top-down" else self._run_bottom_up
            codes, chain_reports = run(steps, props, axes)
        finally:
            for elements in filtered:
                elements.destroy()
        return PipelineResult(
            codes=codes,
            direction=direction,
            reports=reports + chain_reports,
            estimated_cost=estimated,
        )

    # ------------------------------------------------------------------
    def _join_step(
        self,
        ancestors: ElementSet,
        descendants: ElementSet,
        keep: str,
        axis: str,
        a_props: Optional[SetProperties] = None,
        d_props: Optional[SetProperties] = None,
    ) -> tuple[JoinReport, set[int]]:
        """One semijoin: ``keep`` is the sink mode, ``"semi-d"`` or
        ``"semi-a"``; a ``"child"`` ``axis`` joins on the parent code,
        a ``"descendant"`` one runs the planned containment join.
        Returns the report and the surviving codes."""
        sink = JoinSink(keep)
        if axis == "child":
            algorithm = SingleHeightJoin(parent_codes=self.parent_codes)
        else:
            algorithm = choose_algorithm(ancestors, descendants, a_props, d_props)
        report = algorithm.run(ancestors, descendants, sink, tracer=self.tracer)
        return report, sink.survivors

    def _materialize(self, codes, tree_height: int, name: str) -> ElementSet:
        return ElementSet.from_codes(
            self.bufmgr, sorted(codes), tree_height, name=name, sorted_by="code"
        )

    # Intermediates are destroyed in ``finally``: a step that raises (a
    # permanent fault, an exhausted pool) must not leave them allocated
    # on a disk that outlives the query — a service query's scratch
    # pages live on the database's own disk.  The last join's survivors
    # are the answer and are never written.
    def _run_top_down(
        self, steps: Sequence[ElementSet], props: StepProperties, axes: Sequence[str]
    ):
        reports = []
        current = steps[0]
        temporary = False
        matched: set[int] = set()
        try:
            for index, descendants in enumerate(steps[1:], 1):
                report, matched = self._join_step(
                    current,
                    descendants,
                    "semi-d",
                    axes[index],
                    None if temporary else props[0],
                    props[index],
                )
                reports.append(report)
                if index == len(steps) - 1:
                    break
                if temporary:
                    current.destroy()
                    temporary = False
                current = self._materialize(
                    matched, descendants.tree_height, f"pipe.td.{index}"
                )
                temporary = True
        finally:
            if temporary:
                current.destroy()
        return sorted(matched), reports

    def _run_bottom_up(
        self, steps: Sequence[ElementSet], props: StepProperties, axes: Sequence[str]
    ):
        reports = []
        # phase 1: shrink ancestor sets right-to-left; a shrunken set is
        # the pipeline's own, so its slot in ``props`` goes back to None
        survivors: list[ElementSet] = list(steps)
        props = list(props)
        try:
            for index in range(len(steps) - 2, -1, -1):
                report, matched = self._join_step(
                    survivors[index],
                    survivors[index + 1],
                    "semi-a",
                    axes[index + 1],
                    props[index],
                    props[index + 1],
                )
                reports.append(report)
                survivors[index] = self._materialize(
                    matched, steps[index].tree_height, f"pipe.bu.{index}"
                )
                props[index] = None
            # phase 2: recover the final-step elements with a top-down
            # sweep through the shrunken sets (one join for a 2-step path)
            codes, sweep_reports = self._run_top_down(survivors, props, axes)
            reports += sweep_reports
        finally:
            for survivor, step in zip(survivors, steps):
                if survivor is not step:
                    survivor.destroy()
        return codes, reports
