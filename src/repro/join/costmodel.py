"""Analytic cost model for every containment-join algorithm.

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
touching a page, so an estimate never costs I/O.  The primary costs are
*page transfers*; they intentionally mirror what the measured
``JoinReport.total_pages`` counts, and a benchmark validates the
predicted-vs-measured ordering.

Pages are not the whole bill: two plans that read the same pages can
differ 100x in wall time (rollup into one bucket verifies every
``(a, d)`` pair; Algorithm 6 on the same pages verifies none).  Each
estimate therefore carries a second, I/O-free term ``cpu`` — estimated
*elementary operations*: hash inserts and probes, bisect comparisons,
Lemma-1 verifications, one per record per partitioning pass.  It is an
operation count, not a time: the planner only ever compares it between
candidates whose page totals are equal, so no pages-per-operation
exchange rate is needed.  The branch each formula prices is the
operator's own page-driven test, so at fixed page counts every ``cpu``
is monotone in ``a_count`` and ``d_count``.
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
    #: expected ``(a, d)`` pairs that share a bucket of rollup's
    #: equijoin, from the two sets' positional histograms
    #: (:func:`repro.join.mhcj.rollup_candidate_pairs`)
    rollup_pairs: float = 0.0
    a_sorted: bool = False
    d_sorted: bool = False
    a_indexed: bool = False
    d_indexed: bool = False


@dataclass(frozen=True)
class CostEstimate:
    algorithm: str
    prep_pages: float
    join_pages: float
    #: estimated elementary operations (see the module docstring);
    #: compared only between estimates of equal ``total``
    cpu: float = 0.0

    @property
    def total(self) -> float:
        return self.prep_pages + self.join_pages


class CostModel:
    """Per-algorithm estimates (Sections 3.1-3.4): pages, then ``cpu``."""

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
    def _index_pages(leaf_pages: int, fanout: int = 60) -> int:
        """Pages of an index over ``leaf_pages`` of entries: the leaves
        plus every level above them."""
        pages = level = max(1, leaf_pages)
        while level > 1:
            level = -(-level // fanout)
            pages += level
        return pages

    @staticmethod
    def _partition_rounds(build_pages: int, budget: int) -> int:
        """Partitioning passes until a ``build_pages`` side fits the
        pool: each pass is one read+write of both inputs and shrinks a
        bucket ``budget``-fold."""
        if budget <= 1:
            return 1
        return max(1, math.ceil(math.log(build_pages / budget, budget)))

    @staticmethod
    def _compares(count: int) -> float:
        """Comparisons of one binary search over ``count`` keys."""
        return math.log2(max(2, count))

    def _sort_cpu(self, count: int, already_sorted: bool = False) -> float:
        return 0.0 if already_sorted else count * self._compares(count)

    # -- algorithms --------------------------------------------------------
    def stack_tree(self, inputs: CostInputs) -> CostEstimate:
        prep = self._sort_cost(
            inputs.a_pages, inputs.buffer_pages, inputs.a_sorted
        ) + self._sort_cost(inputs.d_pages, inputs.buffer_pages, inputs.d_sorted)
        cpu = (
            self._sort_cpu(inputs.a_count, inputs.a_sorted)
            + self._sort_cpu(inputs.d_count, inputs.d_sorted)
            + inputs.a_count
            + inputs.d_count
        )
        return CostEstimate(
            "STACKTREE", prep, inputs.a_pages + inputs.d_pages, cpu
        )

    def mpmgjn(self, inputs: CostInputs) -> CostEstimate:
        base = self.stack_tree(inputs)
        # re-scanning of descendant segments: grows with ancestor nesting
        nesting = max(1, inputs.a_heights)
        rescan = (nesting - 1) * 0.5
        return CostEstimate(
            "MPMGJN",
            base.prep_pages,
            base.join_pages + rescan * inputs.d_pages,
            base.cpu + rescan * inputs.d_count,
        )

    def inljn(self, inputs: CostInputs) -> CostEstimate:
        """min over the two probe directions, as the paper's heuristic.

        Both probe a Start B+-tree: A-outer with one range lookup per
        ancestor, D-outer with one point lookup per ``F(d, h)``, priced
        for every ancestor height (those above ``d`` are what run)."""
        a_outer = self._inljn_one_direction(
            outer_pages=inputs.a_pages,
            lookups=inputs.a_count,
            inner_pages=inputs.d_pages,
            inner_count=inputs.d_count,
            inner_indexed=inputs.d_indexed,
            buffer_pages=inputs.buffer_pages,
        )
        d_outer = self._inljn_one_direction(
            outer_pages=inputs.d_pages,
            lookups=inputs.d_count * max(1, inputs.a_heights),
            inner_pages=inputs.a_pages,
            inner_count=inputs.a_count,
            inner_indexed=inputs.a_indexed,
            buffer_pages=inputs.buffer_pages,
        )
        return min(a_outer, d_outer, key=lambda e: (e.total, e.cpu))

    def _inljn_one_direction(
        self, outer_pages, lookups, inner_pages, inner_count,
        inner_indexed, buffer_pages,
    ) -> CostEstimate:
        height = self._index_height(inner_count)
        prep = 0.0
        cpu = lookups * self._compares(inner_count)
        if not inner_indexed:
            # sort + bulk load the inner index on the fly
            prep = merge_cost_estimate(inner_pages, buffer_pages) + inner_pages
            cpu += self._sort_cpu(inner_count)
        probes = lookups * height
        # a warm pool absorbs upper index levels: charge a fraction
        effective = probes * max(0.1, 1.0 - buffer_pages / max(1, inner_pages))
        index_pages = self._index_pages(inner_pages)
        if index_pages <= buffer_pages:
            # the whole index stays resident: no page is read twice
            effective = min(effective, index_pages)
        return CostEstimate("INLJN", prep, outer_pages + effective, cpu)

    def adb(self, inputs: CostInputs) -> CostEstimate:
        prep = 0.0
        cpu = float(inputs.a_count + inputs.d_count)
        if not inputs.a_indexed:
            prep += merge_cost_estimate(
                inputs.a_pages, inputs.buffer_pages
            ) + inputs.a_pages
            cpu += self._sort_cpu(inputs.a_count)
        if not inputs.d_indexed:
            prep += merge_cost_estimate(
                inputs.d_pages, inputs.buffer_pages
            ) + inputs.d_pages
            cpu += self._sort_cpu(inputs.d_count)
        # leaf scans are bounded by a full pass; how far skipping gets
        # below that depends on a selectivity set metadata does not carry
        return CostEstimate("ADB+", prep, inputs.a_pages + inputs.d_pages, cpu)

    def shcj(self, inputs: CostInputs) -> CostEstimate:
        """No false hits: one insert per ancestor, one probe per
        descendant."""
        return self._equijoin_cost("SHCJ", inputs, inputs.a_pages, verified=0.0)

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
        # scatter A, insert A, probe D once per class (a Grace class
        # routes D through a partitioning pass first)
        d_passes = 1 if per_class_fits else 2
        cpu = 2 * inputs.a_count + d_passes * k * inputs.d_count
        return CostEstimate("MHCJ", 0.0, join, cpu)

    def mhcj_rollup(self, inputs: CostInputs) -> CostEstimate:
        """Rollup to the top ancestor height makes one equijoin of it —
        and a candidate of every ``(a, d)`` pair that shares a bucket:
        ``rollup_pairs`` Lemma-1 verifications, nearly all of them
        false hits when the buckets are few or the data crowds into
        some of them."""
        return self._equijoin_cost(
            "MHCJ+Rollup", inputs, inputs.a_pair_pages, inputs.rollup_pairs
        )

    def _equijoin_cost(
        self, name: str, inputs: CostInputs, build_pages: int, verified: float
    ) -> CostEstimate:
        """Hash equijoin of A (``build_pages`` wide as the operator
        stores it) with D: one pass when either side fits the pool —
        the operators' own test — else Grace partitioning.  The Grace
        passes are charged per round exactly as VPJ's are, so the two
        partitioning families stay comparable when a bucket still
        overflows a tiny pool.  ``cpu``: one hash insert or probe per
        record, one routing per record per Grace pass, plus the
        ``verified`` candidate pairs the caller expects."""
        budget = max(1, inputs.buffer_pages - 2)
        smaller = min(build_pages, inputs.d_pages)
        records = inputs.a_count + inputs.d_count
        if smaller <= budget:
            return CostEstimate(
                name, 0.0, inputs.a_pages + inputs.d_pages, records + verified
            )
        rounds = self._partition_rounds(smaller, budget)
        return CostEstimate(
            name,
            0.0,
            inputs.a_pages
            + 2 * rounds * build_pages
            + (2 * rounds + 1) * inputs.d_pages,
            (rounds + 1) * records + verified,
        )

    def vpj(self, inputs: CostInputs) -> CostEstimate:
        """Algorithm 6 on each co-partition pair, neither branch of
        which verifies a pair (no false hits).  Which side it loads is
        the operator's page test: D when ``||D|| <= ||A||`` — sort it,
        bisect each ancestor's two region ends — else A, as one hash
        set per ancestor height that each descendant probes with
        ``F``."""
        pages = inputs.a_pages + inputs.d_pages
        smaller = min(inputs.a_pages, inputs.d_pages)
        budget = max(1, inputs.buffer_pages - 2)
        if inputs.d_pages <= inputs.a_pages:
            cpu = (inputs.d_count + 2 * inputs.a_count) * self._compares(
                inputs.d_count
            )
        else:
            cpu = inputs.a_count + inputs.d_count * max(1, inputs.a_heights)
        if smaller <= budget:
            return CostEstimate("VPJ", 0.0, pages, cpu)
        rounds = self._partition_rounds(smaller, budget)
        routed = rounds * (inputs.a_count + inputs.d_count)
        return CostEstimate("VPJ", 0.0, (2 * rounds + 1) * pages, cpu + routed)

    def block_nested_loop(self, inputs: CostInputs) -> CostEstimate:
        outer = min(inputs.a_pages, inputs.d_pages)
        inner = max(inputs.a_pages, inputs.d_pages)
        blocks = max(1, math.ceil(outer / max(1, inputs.buffer_pages - 2)))
        # every block of the smaller side meets the whole other side
        cpu: float
        if inputs.a_pages <= inputs.d_pages:
            cpu = inputs.a_count + blocks * inputs.d_count * max(1, inputs.a_heights)
        else:
            cpu = (inputs.d_count + blocks * 2 * inputs.a_count) * self._compares(
                inputs.d_count
            )
        return CostEstimate("BNL", 0.0, outer + blocks * inner, cpu)

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
