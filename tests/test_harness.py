"""Tests for the experiment harness and report formatting."""

import pytest

from repro.experiments.harness import (
    LineupResult,
    Workbench,
    make_algorithm,
    make_lineup,
    materialize,
    run_algorithm,
    run_lineup,
)
from repro.experiments.harness import AlgorithmResult
from repro.experiments.report import format_ratio, format_table
from repro.join.base import JoinReport, JoinSink
from repro.storage.stats import IOSnapshot
from repro.workloads import synthetic as syn


class TestWorkbench:
    def test_create(self):
        bench = Workbench.create(buffer_pages=7, page_size=256)
        assert bench.bufmgr.num_pages == 7
        assert bench.disk.page_size == 256

    def test_materialize_is_cold(self):
        bench = Workbench.create(buffer_pages=8, page_size=128)
        elements = materialize(bench.bufmgr, list(range(1, 200)), 10, "x")
        bench.disk.stats.reset()
        list(elements.scan())
        # every page re-read from disk: the set was evicted
        assert bench.disk.stats.reads == elements.num_pages


class TestMakeAlgorithm:
    @pytest.mark.parametrize(
        "name", ["INLJN", "STACKTREE", "ADB+", "SHCJ", "MHCJ+Rollup", "VPJ"]
    )
    def test_known_names(self, name):
        assert make_algorithm(name).name in (name, "SHCJ")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_algorithm("MAGIC")

    def test_lineups(self):
        assert "SHCJ" in make_lineup(single_height=True)
        assert "MHCJ+Rollup" in make_lineup(single_height=False)
        assert set(make_lineup(True)) >= {"INLJN", "STACKTREE", "ADB+"}


class TestRunAlgorithm:
    def test_cold_start_and_prep_accounting(self):
        spec = syn.spec_by_name("SSSH", large=2000, small=300)
        ds = syn.generate(spec, seed=1)
        bench = Workbench.create(buffer_pages=8, page_size=128)
        a_set = materialize(bench.bufmgr, ds.a_codes, ds.tree_height, "A")
        d_set = materialize(bench.bufmgr, ds.d_codes, ds.tree_height, "D")
        report = run_algorithm(make_algorithm("STACKTREE"), a_set, d_set)
        # unsorted inputs: stack-tree must pay the external sorts
        assert report.prep_io.total > 0
        assert report.result_count == ds.num_results

    def test_collecting_sink(self):
        spec = syn.spec_by_name("SSSL", large=1000, small=150)
        ds = syn.generate(spec, seed=2)
        bench = Workbench.create(buffer_pages=8, page_size=128)
        a_set = materialize(bench.bufmgr, ds.a_codes, ds.tree_height, "A")
        d_set = materialize(bench.bufmgr, ds.d_codes, ds.tree_height, "D")
        sink = JoinSink("collect")
        run_algorithm(make_algorithm("VPJ"), a_set, d_set, sink)
        assert len(sink.pairs) == ds.num_results


class TestRunLineup:
    def test_all_algorithms_agree_and_ratios(self):
        spec = syn.spec_by_name("SSSH", large=1500, small=250)
        ds = syn.generate(spec, seed=3)
        lineup = run_lineup(
            "SSSH",
            ds.a_codes,
            ds.d_codes,
            ds.tree_height,
            buffer_pages=8,
            page_size=128,
            single_height=True,
        )
        assert lineup.result_count == ds.num_results
        assert lineup.min_rgn_io > 0
        for name in ("SHCJ", "VPJ"):
            ratio = lineup.improvement_ratio(name)
            assert -2.0 <= ratio <= 1.0
            assert lineup.speedup(name) > 0

    def test_missing_algorithm_lookup(self):
        lineup = LineupResult(dataset="x")
        with pytest.raises(KeyError):
            lineup.by_name("nope")

    def test_requires_lineup_or_flag(self):
        with pytest.raises(ValueError):
            run_lineup("x", [1], [2], 5)

    def test_empty_algorithm_list_rejected_before_any_work(self):
        """Not an ``algorithms disagree`` assertion over zero results."""
        with pytest.raises(ValueError, match="at least one algorithm"):
            run_lineup("x", [1], [2], 5, algorithms=[])

    def test_explicit_algorithm_list(self):
        spec = syn.spec_by_name("SSSL", large=800, small=100)
        ds = syn.generate(spec, seed=4)
        lineup = run_lineup(
            "SSSL",
            ds.a_codes,
            ds.d_codes,
            ds.tree_height,
            buffer_pages=8,
            page_size=128,
            algorithms=["STACKTREE", "VPJ"],
        )
        assert [r.name for r in lineup.results] == ["STACKTREE", "VPJ"]


def _tiny_lineup(baseline_io, alg_io, baseline_wall=0.0, alg_wall=0.0):
    """A two-entry lineup built by hand, small enough to hit 0-I/O runs."""

    def result(name, io, wall):
        report = JoinReport(
            algorithm=name,
            result_count=0,
            join_io=IOSnapshot(reads=io),
            wall_seconds=wall,
        )
        return AlgorithmResult(name=name, report=report)

    lineup = LineupResult(dataset="tiny")
    lineup.results.append(result("INLJN", baseline_io, baseline_wall))
    lineup.results.append(result("VPJ", alg_io, alg_wall))
    return lineup


class TestDegenerateRatios:
    """Regression: tiny inputs that fit entirely in the buffer pool can
    finish with zero I/O (and sub-tick wall time), which used to divide
    by zero inside improvement_ratio/speedup."""

    def test_zero_baseline_zero_alg_is_a_tie(self):
        lineup = _tiny_lineup(baseline_io=0, alg_io=0)
        assert lineup.improvement_ratio("VPJ") == 0.0
        assert lineup.speedup("VPJ") == 1.0

    def test_zero_baseline_paying_alg_is_minus_inf(self):
        lineup = _tiny_lineup(baseline_io=0, alg_io=4)
        assert lineup.improvement_ratio("VPJ") == float("-inf")
        assert lineup.speedup("VPJ") == 0.0

    def test_free_alg_against_paying_baseline(self):
        lineup = _tiny_lineup(baseline_io=8, alg_io=0)
        assert lineup.improvement_ratio("VPJ") == 1.0
        assert lineup.speedup("VPJ") == float("inf")

    def test_normal_case_unchanged(self):
        lineup = _tiny_lineup(baseline_io=10, alg_io=5)
        assert lineup.improvement_ratio("VPJ") == pytest.approx(0.5)
        assert lineup.speedup("VPJ") == pytest.approx(2.0)

    def test_wall_speedup_sub_tick_guards(self):
        both_zero = _tiny_lineup(0, 0, baseline_wall=0.0, alg_wall=0.0)
        assert both_zero.wall_speedup("VPJ") == 1.0
        free_alg = _tiny_lineup(0, 0, baseline_wall=0.5, alg_wall=0.0)
        assert free_alg.wall_speedup("VPJ") == float("inf")
        normal = _tiny_lineup(0, 0, baseline_wall=1.0, alg_wall=0.25)
        assert normal.wall_speedup("VPJ") == pytest.approx(4.0)


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "io"],
            [["SLLH", 1234], ["SSSL", 7]],
            title="Table 2(e)",
        )
        lines = text.splitlines()
        assert lines[0] == "Table 2(e)"
        assert "name" in lines[1] and "io" in lines[1]
        assert len(lines) == 5

    def test_float_cells(self):
        text = format_table(["r"], [[0.123456]])
        assert "0.123" in text

    def test_format_ratio(self):
        assert format_ratio(0.956) == "95.6%"
        assert format_ratio(0.0) == "0.0%"
