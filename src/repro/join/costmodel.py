"""Analytic I/O cost model for every containment-join algorithm.

The per-algorithm formulas come straight from the paper's analysis
(Sections 3.1-3.4): external-sort passes for the merge-based
algorithms when inputs arrive unsorted, index-build costs for the
index-based ones, ``3(||A|| + ||D||)`` for the partitioning joins with
a Grace/partition pass, and ``||A|| + ||D||`` when one input fits the
pool.  Section 6 names "a cost-based query optimizer ... using a more
precise disk access model" as future work; this module provides that
model and :mod:`repro.join.planner` ranks the candidates of a Table-1
cell with it.

Every input is a scalar the caller can read off set metadata without
touching a page, so an estimate never costs I/O.  All costs are *page
transfers*; they intentionally mirror what the measured
``JoinReport.total_pages`` counts, and a benchmark validates the
predicted-vs-measured ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..sort.external_sort import merge_cost_estimate

__all__ = ["CostInputs", "CostModel", "CostEstimate"]


@dataclass(frozen=True)
class CostInputs:
    """Everything the model needs about one join invocation."""

    a_pages: int
    d_pages: int
    buffer_pages: int
    a_count: int
    d_count: int
    #: pages A occupies as rollup's ``(effective, original)`` pair
    #: records (:func:`repro.join.mhcj.rolled_pair_pages`)
    a_pair_pages: int
    #: distinct node heights among the ancestors
    a_heights: int = 1
    a_sorted: bool = False
    d_sorted: bool = False
    a_indexed: bool = False
    d_indexed: bool = False


@dataclass(frozen=True)
class CostEstimate:
    algorithm: str
    prep_pages: float
    join_pages: float

    @property
    def total(self) -> float:
        return self.prep_pages + self.join_pages


class CostModel:
    """Per-algorithm page-I/O estimates (Sections 3.1-3.4)."""

    # -- shared helpers ---------------------------------------------------
    @staticmethod
    def _sort_cost(pages: int, buffer_pages: int, already_sorted: bool) -> int:
        return 0 if already_sorted else merge_cost_estimate(pages, buffer_pages)

    @staticmethod
    def _index_height(count: int, fanout: int = 60) -> int:
        if count <= 1:
            return 1
        return max(1, math.ceil(math.log(count, fanout)))

    @staticmethod
    def _partition_rounds(build_pages: int, budget: int) -> int:
        """Partitioning passes until a ``build_pages`` side fits the
        pool: each pass is one read+write of both inputs and shrinks a
        bucket ``budget``-fold."""
        if budget <= 1:
            return 1
        return max(1, math.ceil(math.log(build_pages / budget, budget)))

    # -- algorithms --------------------------------------------------------
    def stack_tree(self, inputs: CostInputs) -> CostEstimate:
        prep = self._sort_cost(
            inputs.a_pages, inputs.buffer_pages, inputs.a_sorted
        ) + self._sort_cost(inputs.d_pages, inputs.buffer_pages, inputs.d_sorted)
        return CostEstimate("STACKTREE", prep, inputs.a_pages + inputs.d_pages)

    def mpmgjn(self, inputs: CostInputs) -> CostEstimate:
        base = self.stack_tree(inputs)
        # re-scanning of descendant segments: grows with ancestor nesting
        nesting = max(1, inputs.a_heights)
        rescan = (nesting - 1) * 0.5 * inputs.d_pages
        return CostEstimate("MPMGJN", base.prep_pages, base.join_pages + rescan)

    def inljn(self, inputs: CostInputs) -> CostEstimate:
        """min over the two probe directions, as the paper's heuristic."""
        a_outer = self._inljn_one_direction(
            outer_pages=inputs.a_pages,
            outer_count=inputs.a_count,
            inner_pages=inputs.d_pages,
            inner_count=inputs.d_count,
            inner_indexed=inputs.d_indexed,
            buffer_pages=inputs.buffer_pages,
        )
        d_outer = self._inljn_one_direction(
            outer_pages=inputs.d_pages,
            outer_count=inputs.d_count,
            inner_pages=inputs.a_pages,
            inner_count=inputs.a_count,
            inner_indexed=inputs.a_indexed,
            buffer_pages=inputs.buffer_pages,
        )
        return min(a_outer, d_outer, key=lambda e: e.total)

    def _inljn_one_direction(
        self, outer_pages, outer_count, inner_pages, inner_count,
        inner_indexed, buffer_pages,
    ) -> CostEstimate:
        height = self._index_height(inner_count)
        prep = 0.0
        if not inner_indexed:
            # sort + bulk load the inner index on the fly
            prep = merge_cost_estimate(inner_pages, buffer_pages) + inner_pages
        probes = outer_count * height
        # a warm pool absorbs upper index levels: charge a fraction
        effective = probes * max(0.1, 1.0 - buffer_pages / max(1, inner_pages))
        return CostEstimate("INLJN", prep, outer_pages + effective)

    def adb(self, inputs: CostInputs) -> CostEstimate:
        prep = 0.0
        if not inputs.a_indexed:
            prep += merge_cost_estimate(
                inputs.a_pages, inputs.buffer_pages
            ) + inputs.a_pages
        if not inputs.d_indexed:
            prep += merge_cost_estimate(
                inputs.d_pages, inputs.buffer_pages
            ) + inputs.d_pages
        # leaf scans are bounded by a full pass; how far skipping gets
        # below that depends on a selectivity set metadata does not carry
        return CostEstimate("ADB+", prep, inputs.a_pages + inputs.d_pages)

    def shcj(self, inputs: CostInputs) -> CostEstimate:
        return self._equijoin_cost("SHCJ", inputs, inputs.a_pages)

    def mhcj(self, inputs: CostInputs) -> CostEstimate:
        """MHCJ always pays the height-partitioning pass over A (pair
        records double its width), then one SHCJ per height class —
        roughly the paper's ``5||A|| + 3k||D||`` with the in-memory
        shortcut per class."""
        k = max(1, inputs.a_heights)
        pair_pages = inputs.a_pair_pages
        scatter = inputs.a_pages + pair_pages      # read A, write pairs
        read_back = pair_pages
        budget = max(1, inputs.buffer_pages - 2)
        per_class_fits = (
            min(pair_pages / k, inputs.d_pages) <= budget
        )
        d_factor = 1 if per_class_fits else 3
        join = scatter + read_back + d_factor * k * inputs.d_pages
        return CostEstimate("MHCJ", 0.0, join)

    def mhcj_rollup(self, inputs: CostInputs) -> CostEstimate:
        return self._equijoin_cost("MHCJ+Rollup", inputs, inputs.a_pair_pages)

    def _equijoin_cost(
        self, name: str, inputs: CostInputs, build_pages: int
    ) -> CostEstimate:
        """Hash equijoin of A (``build_pages`` wide as the operator
        stores it) with D: one pass when either side fits the pool —
        the operators' own test — else Grace partitioning.  The Grace
        passes are charged per round exactly as VPJ's are, so the two
        partitioning families stay comparable when a bucket still
        overflows a tiny pool."""
        budget = max(1, inputs.buffer_pages - 2)
        smaller = min(build_pages, inputs.d_pages)
        if smaller <= budget:
            return CostEstimate(name, 0.0, inputs.a_pages + inputs.d_pages)
        rounds = self._partition_rounds(smaller, budget)
        return CostEstimate(
            name,
            0.0,
            inputs.a_pages
            + 2 * rounds * build_pages
            + (2 * rounds + 1) * inputs.d_pages,
        )

    def vpj(self, inputs: CostInputs) -> CostEstimate:
        pages = inputs.a_pages + inputs.d_pages
        smaller = min(inputs.a_pages, inputs.d_pages)
        budget = max(1, inputs.buffer_pages - 2)
        if smaller <= budget:
            return CostEstimate("VPJ", 0.0, pages)
        rounds = self._partition_rounds(smaller, budget)
        return CostEstimate("VPJ", 0.0, (2 * rounds + 1) * pages)

    def block_nested_loop(self, inputs: CostInputs) -> CostEstimate:
        outer = min(inputs.a_pages, inputs.d_pages)
        inner = max(inputs.a_pages, inputs.d_pages)
        blocks = max(1, math.ceil(outer / max(1, inputs.buffer_pages - 2)))
        return CostEstimate("BNL", 0.0, outer + blocks * inner)

    # ------------------------------------------------------------------
    def all_estimates(self, inputs: CostInputs) -> list[CostEstimate]:
        estimates = [
            self.stack_tree(inputs),
            self.mpmgjn(inputs),
            self.inljn(inputs),
            self.adb(inputs),
            self.mhcj(inputs),
            self.mhcj_rollup(inputs),
            self.vpj(inputs),
            self.block_nested_loop(inputs),
        ]
        if inputs.a_heights == 1:
            estimates.append(self.shcj(inputs))
        return estimates
