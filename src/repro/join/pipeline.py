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
the intermediate cardinalities, which :mod:`repro.join.statistics` can
estimate before running anything.  :class:`PathPipeline` plans the
direction from the estimates — built from the positional histograms
the element sets carry, so planning reads no page — and executes the
chain, reporting each step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..obs.tracer import NULL_TRACER, Tracer
from ..storage.buffer import BufferManager
from ..storage.elementset import ElementSet
from .base import JoinReport, JoinSink
from .planner import SetProperties, choose_algorithm
from .statistics import SetStatistics, estimate_join_cardinality

__all__ = ["PathPipeline", "PipelineResult", "plan_direction"]

#: per-step planner properties; ``None`` = infer from set metadata
StepProperties = Sequence[Optional[SetProperties]]


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


def plan_direction(step_stats: Sequence[SetStatistics]) -> tuple[str, float, float]:
    """Choose top-down vs bottom-up from estimated intermediate sizes.

    Returns ``(direction, top_down_cost, bottom_up_cost)`` where the
    costs are the sums of estimated *input* cardinalities each join in
    the chain would see (a proxy for pages touched).
    """
    if len(step_stats) < 2:
        return "top-down", 0.0, 0.0

    top_down = 0.0
    current = step_stats[0]
    for nxt in step_stats[1:]:
        top_down += current.count + nxt.count
        survivors = min(
            float(nxt.count), estimate_join_cardinality(current, nxt)
        )
        current = _shrunk(nxt, survivors)

    bottom_up = 0.0
    current = step_stats[-1]
    for prev in reversed(step_stats[:-1]):
        bottom_up += current.count + prev.count
        matched_pairs = estimate_join_cardinality(prev, current)
        survivors = min(float(prev.count), matched_pairs)
        current = _shrunk(prev, survivors)
    # bottom-up needs the final recovery sweep over the last tag
    bottom_up += step_stats[-1].count

    direction = "top-down" if top_down <= bottom_up else "bottom-up"
    return direction, top_down, bottom_up


def _shrunk(stats: SetStatistics, survivors: float) -> SetStatistics:
    """Scale a statistics object to an estimated survivor count."""
    if stats.count == 0:
        return stats
    ratio = max(0.0, min(1.0, survivors / stats.count))
    scaled = SetStatistics(
        count=int(round(stats.count * ratio)),
        min_code=stats.min_code,
        max_code=stats.max_code,
        tree_height=stats.tree_height,
    )
    scaled.height_counts = {
        height: max(1, int(round(count * ratio)))
        for height, count in stats.height_counts.items()
    }
    scaled.position_counts = {
        key: max(1, int(round(count * ratio)))
        for key, count in stats.position_counts.items()
    }
    return scaled


class PathPipeline:
    """Plan and execute a chain of containment joins over element sets."""

    def __init__(
        self,
        bufmgr: BufferManager,
        props: Optional[StepProperties] = None,
        direction: Optional[str] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        """``props`` parallels the ``steps`` later passed to
        :meth:`execute` with what the caller knows about each base set
        beyond its metadata (its indexes): every join step is planned
        by :func:`~repro.join.planner.choose_algorithm` from them, and
        from metadata alone for the intermediate sets the pipeline
        materialises itself.  ``direction`` forces ``"top-down"``/
        ``"bottom-up"`` instead of estimating the cheaper order;
        ``tracer`` threads a span tree through planning and every join
        step."""
        if direction not in (None, "top-down", "bottom-up"):
            raise ValueError(f"unknown direction {direction!r}")
        self.bufmgr = bufmgr
        self.props = props
        self.forced_direction = direction
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind(bufmgr)

    # ------------------------------------------------------------------
    def execute(self, steps: Sequence[ElementSet]) -> PipelineResult:
        """Run the chain; ``steps`` are the per-tag element sets in path
        order (outermost first).  Returns the final-step codes that have
        the whole ancestor chain."""
        if not steps:
            raise ValueError("empty path")
        props = self.props if self.props is not None else [None] * len(steps)
        if len(props) != len(steps):
            raise ValueError("props must parallel steps")
        if len(steps) == 1:
            return PipelineResult(
                codes=sorted(steps[0].scan()), direction="top-down"
            )

        if self.forced_direction is not None:
            direction = self.forced_direction
            td_cost = bu_cost = 0.0
        else:
            with self.tracer.span("pipeline.plan", steps=len(steps)):
                direction, td_cost, bu_cost = plan_direction(
                    [SetStatistics.from_histogram(step.histogram) for step in steps]
                )
        estimated = td_cost if direction == "top-down" else bu_cost

        if direction == "top-down":
            codes, reports = self._run_top_down(steps, props)
        else:
            codes, reports = self._run_bottom_up(steps, props)
        return PipelineResult(
            codes=codes,
            direction=direction,
            reports=reports,
            estimated_cost=estimated,
        )

    # ------------------------------------------------------------------
    def _join_step(
        self,
        ancestors: ElementSet,
        descendants: ElementSet,
        a_props: Optional[SetProperties] = None,
        d_props: Optional[SetProperties] = None,
    ) -> tuple[JoinReport, JoinSink]:
        sink = JoinSink("collect")
        algorithm = choose_algorithm(ancestors, descendants, a_props, d_props)
        report = algorithm.run(ancestors, descendants, sink, tracer=self.tracer)
        return report, sink

    def _materialize(self, codes, tree_height: int, name: str) -> ElementSet:
        return ElementSet.from_codes(
            self.bufmgr, sorted(codes), tree_height, name=name, sorted_by="code"
        )

    # Intermediates are destroyed in ``finally``: a step that raises (a
    # permanent fault, an exhausted pool) must not leave them allocated
    # on a disk that outlives the query — a service session's scratch
    # pages live in the shared page table.
    def _run_top_down(self, steps: Sequence[ElementSet], props: StepProperties):
        reports = []
        current = steps[0]
        temporary = False
        try:
            for index, descendants in enumerate(steps[1:], 1):
                report, sink = self._join_step(
                    current,
                    descendants,
                    None if temporary else props[0],
                    props[index],
                )
                reports.append(report)
                matched = {d for _a, d in sink.pairs}
                if temporary:
                    current.destroy()
                current = self._materialize(
                    matched, descendants.tree_height, f"pipe.td.{index}"
                )
                temporary = True
            codes = sorted(current.scan())
        finally:
            if temporary:
                current.destroy()
        return codes, reports

    def _run_bottom_up(self, steps: Sequence[ElementSet], props: StepProperties):
        reports = []
        # phase 1: shrink ancestor sets right-to-left; a shrunken set is
        # the pipeline's own, so its slot in ``props`` goes back to None
        survivors: list[ElementSet] = list(steps)
        props = list(props)
        try:
            for index in range(len(steps) - 2, -1, -1):
                report, sink = self._join_step(
                    survivors[index],
                    survivors[index + 1],
                    props[index],
                    props[index + 1],
                )
                reports.append(report)
                matched = {a for a, _d in sink.pairs}
                survivors[index] = self._materialize(
                    matched, steps[index].tree_height, f"pipe.bu.{index}"
                )
                props[index] = None
            # phase 2: recover the final-step elements with a top-down
            # sweep through the shrunken sets (for a 2-step path phase 1
            # already produced the only join needed, so this is a single
            # join)
            if len(steps) == 2:
                report, sink = self._join_step(
                    survivors[0], steps[-1], props[0], props[-1]
                )
                reports.append(report)
                codes = sorted({d for _a, d in sink.pairs})
            else:
                codes, sweep_reports = self._run_top_down(survivors, props)
                reports += sweep_reports
        finally:
            for survivor, step in zip(survivors, steps):
                if survivor is not step:
                    survivor.destroy()
        return codes, reports
