"""Tests for the Section-4 experiment table and its pytest-free driver."""

import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import run_experiments  # noqa: E402

from benchmarks import paper  # noqa: E402

SCALE = "0.02"
USAGE = [
    line.split("#")[0].split()[2:]
    for line in run_experiments.__doc__.splitlines()
    if line.strip().startswith("python scripts/run_experiments.py")
]


@pytest.fixture(scope="module")
def usage_runs(tmp_path_factory):
    """Every usage line of the script's docstring, at a tiny scale."""
    runs = []
    for index, argv in enumerate(USAGE):
        out = tmp_path_factory.mktemp(f"usage{index}")
        code = run_experiments.main(argv + ["--scale", SCALE, "--out", str(out)])
        runs.append((argv, code, out))
    return runs


def table_labels(text):
    """The first cell of every data row, one list per table in ``text``."""
    tables = []
    for block in text.split("\n\n"):
        lines = block.splitlines()
        if len(lines) > 2 and set(lines[2].replace(" ", "")) == {"-"}:
            tables.append([line.split()[0] for line in lines[3:]])
    return tables


def without_wall_time(text):
    return re.sub(r" +", " ", re.sub(r"\d+\.\d{3}s\b", "t", text))


class TestRunExperiments:
    def test_docstring_usage_lines_run(self, usage_runs):
        assert [argv for argv, _code, _out in usage_runs] == [
            [], ["--scale", "0.3"], ["--only", "fig6a", "fig6e"],
        ]
        for argv, code, out in usage_runs:
            keys = argv[1:] if argv[:1] == ["--only"] else list(paper.EXPERIMENTS)
            files = {f"{name}.txt" for key in keys for name in paper.EXPERIMENTS[key].files}
            assert code == 0
            assert {path.name for path in out.iterdir()} == files, argv

    @pytest.mark.parametrize("key", list(paper.EXPERIMENTS))
    def test_every_key_writes_one_row_per_point(self, usage_runs, key):
        _argv, _code, out = usage_runs[0]
        experiment = paper.EXPERIMENTS[key]
        labels = [point.label for point in experiment.points(float(SCALE))]
        for name, blocks in experiment.files.items():
            tables = table_labels((out / f"{name}.txt").read_text())
            assert len(tables) == sum(isinstance(b, paper.Table) for b in blocks)
            assert all(rows == labels for rows in tables), name

    def test_script_text_equals_the_benchmark_writer(self, tmp_path, capsys):
        """What the script prints and writes for one experiment is what
        ``bench_paper``'s writer renders for its rows, wall time aside."""
        argv = ["--scale", SCALE, "--out", str(tmp_path / "script"), "--only", "fig6a"]
        assert run_experiments.main(argv) == 0
        printed = without_wall_time(capsys.readouterr().out)
        experiment = paper.EXPERIMENTS["fig6a"]
        rows = paper.run(experiment, float(SCALE))
        texts = paper.write(experiment, rows, tmp_path / "bench")
        capsys.readouterr()
        assert "MIN_RGN t" in texts["table2e_fig6a_single_height"]
        for name, text in texts.items():
            script = (tmp_path / "script" / f"{name}.txt").read_text()
            bench = (tmp_path / "bench" / f"{name}.txt").read_text()
            assert without_wall_time(script) == without_wall_time(bench)
            assert without_wall_time(text) in printed

    def test_a_failed_point_writes_no_result_file(self, tmp_path, monkeypatch):
        """Result files are written only once every point has run: a
        line-up failing at the last dataset leaves no partial table."""
        real = paper.run_lineup

        def fail_last(name, *args, **kwargs):
            if name == "SSSL":
                raise RuntimeError("injected")
            return real(name, *args, **kwargs)

        monkeypatch.setattr(paper, "run_lineup", fail_last)
        with pytest.raises(RuntimeError, match="injected"):
            run_experiments.main(
                ["--scale", SCALE, "--out", str(tmp_path), "--only", "fig6a"]
            )
        assert list(tmp_path.iterdir()) == []

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run_experiments.main(
                ["--out", str(tmp_path), "--only", "fig99"]
            )

    def test_experiment_registry_complete(self):
        assert list(run_experiments.EXPERIMENTS) == list(paper.EXPERIMENTS) == [
            "fig6a", "fig6b", "fig6c", "fig6d",
            "fig6e", "fig6f", "fig6g", "fig6h",
        ]
        # one writer per committed Section-4 result file
        names = [name for e in paper.EXPERIMENTS.values() for name in e.files]
        assert sorted(names) == sorted(
            path.stem
            for path in (ROOT / "benchmarks" / "results").glob("*.txt")
            if re.match(r"(table2|fig6)", path.name)
        )
        assert len(names) == 10
