"""Self-test of the perf ledger, seconds at ``--scale 0.05``.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q`` (the
tier-1 suite's ``testpaths`` does not collect this directory).
"""

from __future__ import annotations

import json
import re

import pytest

from benchmarks.ledger import cli
from benchmarks.ledger.catalogue import (
    END_TO_END, PER_LAYER, ROOT, WORKLOADS, layer_metrics_of, manifest,
)
from benchmarks.ledger.harness import run_workload
from benchmarks.ledger.spans import Span, SpanRecorder, self_times
from repro.obs.export import validate_bench_summary
from repro.obs.tracer import Tracer

SCALE = 0.05
SECONDS = 0.2
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced and one traced run of every workload."""
    out = tmp_path_factory.mktemp("ledger")
    return {
        name: tuple(
            run_workload(workload, 2003, SECONDS, trace, SCALE, out)
            for trace in (False, True)
        )
        for name, workload in cli.WORKLOADS.items()
    }


def test_benchmark_json_is_the_catalogue_and_within_the_contract():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert contract == manifest()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert 1 <= contract["run_seconds"] <= 60
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(0 <= m["bound"] <= 0.25 for m in contract["end_to_end"])
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * (contract["run_seconds"] + 13) < 3420  # measured: window + ~4-12 s


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_on_its_workloads_and_no_others(runs, name):
    untraced, traced = runs[name]
    assert untraced.correct and traced.correct, untraced.failures + traced.failures
    assert untraced.attempted > 0 and untraced.failed_share == 0.0
    assert list(untraced.end_to_end) == [metric.name for metric in END_TO_END]
    assert all(value > 0 for value in untraced.end_to_end.values()), untraced.end_to_end
    assert untraced.per_layer == {}
    assert set(traced.per_layer) == set(layer_metrics_of(name))
    # the contract line carries every name either way, 0 off-workload
    line = cli.contract_object(traced)
    assert list(line["metrics"]) == [metric.name for metric in PER_LAYER]
    off = set(line["metrics"]) - set(layer_metrics_of(name))
    assert all(line["metrics"][metric]["value"] == 0.0 for metric in off)
    assert set(cli.contract_object(untraced)["metrics"]) == set(untraced.end_to_end)


def test_every_per_layer_metric_has_a_workload():
    covered = {metric for name in WORKLOADS for metric in layer_metrics_of(name)}
    assert covered == {metric.name for metric in PER_LAYER}


def test_traced_run_stays_inside_its_spans(runs):
    for _untraced, traced in runs.values():
        assert traced.per_layer["trace.untraced_share"] <= 0.10, traced.workload
        assert traced.trace_path.exists()


def test_exact_counts_repeat_for_a_seed_and_move_with_it(tmp_path):
    workload = cli.WORKLOADS["lineup_ls"]
    pages = [
        run_workload(workload, seed, SECONDS, False, SCALE, tmp_path).end_to_end["pages_per_op"]
        for seed in (7, 7, 8)
    ]
    assert pages[0] == pages[1]
    assert pages[0] != pages[2]


def test_a_wrong_expected_count_fails_the_run(monkeypatch, capsys, tmp_path):
    from benchmarks.ledger import shard

    true_count = shard.count_results
    monkeypatch.setattr(shard, "count_results", lambda a, d: true_count(a, d) + 1)
    status = cli.main([
        "run", "--workload", "shard_scatter", "--seed", "5", "--seconds", str(SECONDS),
        "--scale", str(SCALE), "--out", str(tmp_path),
    ])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] > 0


def test_self_times_sum_to_the_root_span():
    rec = SpanRecorder()
    tracer = Tracer()
    with rec.span("root") as root:
        with rec.span("a", "join") as a:
            with tracer.span("join.X"):
                with tracer.span("prepare"):
                    with tracer.span("x.sort"):
                        pass
                with tracer.span("execute"):
                    pass
        rec.adopt(a, tracer.roots[0])
        with rec.span("b", "storage"):
            pass
        with rec.span("c", "index"):
            pass
    own = self_times(rec.spans)
    assert all(value >= -1e-12 for value in own.values())
    assert sum(own.values()) == pytest.approx(root.duration, rel=1e-9)
    assert {span.layer for span in rec.spans} >= {"join", "sort", "storage", "index"}


def test_trace_files_sum_to_their_roots(runs):
    fields = ("id", "parent", "request", "name", "layer", "start", "end", "adopted")
    for _untraced, traced in runs.values():
        spans = [
            Span(*(record[field] for field in fields))
            for record in map(json.loads, traced.trace_path.read_text().splitlines())
        ]
        own = self_times(spans)
        root_of: dict[int, int] = {}
        totals: dict[int, float] = {}
        for span in spans:  # parents precede children
            root = span.id if span.parent is None else root_of[span.parent]
            root_of[span.id] = root
            totals[root] = totals.get(root, 0.0) + own[span.id]
        for span in spans:
            if span.parent is None:
                assert totals[span.id] == pytest.approx(span.duration)


def test_result_files_are_valid_bench_summaries(runs, tmp_path):
    for _untraced, traced in runs.values():
        path = cli._write_result(traced, tmp_path)
        data = json.loads(path.read_text())
        assert validate_bench_summary(data) == []
        assert all(NAME.match(name) for name in data["metrics"])
        assert NAME.match(data["ledger"]["workload"])


def _history(path, workload, metric, values):
    with path.open("w") as out:
        for value in values:
            out.write(json.dumps({"workload": workload, "metrics": {metric: value}}) + "\n")
    return str(path)


def test_compare_flags_regressions_and_wide_spreads(tmp_path, capsys):
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    base = _history(tmp_path / "a.jsonl", "lineup_ll", "op_p50_ms", steady)
    same = _history(tmp_path / "b.jsonl", "lineup_ll", "op_p50_ms", steady[::-1])
    slow = _history(tmp_path / "c.jsonl", "lineup_ll", "op_p50_ms", [v * 1.3 for v in steady])
    wild = _history(tmp_path / "d.jsonl", "lineup_ll", "op_p50_ms", [60, 100, 140, 180, 90])
    assert cli.main(["compare", base, same]) == 0
    assert " ok" in capsys.readouterr().out
    assert cli.main(["compare", base, slow]) == 1
    assert "regressed" in capsys.readouterr().out
    assert cli.main(["compare", base, wild]) == 0
    assert "unresolved" in capsys.readouterr().out


def test_history_appends_instead_of_overwriting(tmp_path):
    history = tmp_path / "history.jsonl"
    for seed in (1, 2):
        assert cli.main([
            "run", "--workload", "lineup_ls", "--seed", str(seed), "--seconds", str(SECONDS),
            "--scale", str(SCALE), "--out", str(tmp_path), "--history", str(history),
        ]) == 0
    rows = [json.loads(line) for line in history.read_text().splitlines()]
    assert [row["seed"] for row in rows] == [1, 2]
    assert all({"date", "commit", "nproc", "metrics"} <= set(row) for row in rows)
