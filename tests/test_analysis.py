"""Tests for the tools.analysis invariant checker suite.

The pin-discipline, code-domain, and annotations checkers deliberately
skip files that live under a ``tests`` directory, so the known-bad
fixtures are copied into a neutral temporary project before checking.
The exports checker runs everywhere and is exercised in place.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tools.analysis import all_checkers, run_checks
from tools.analysis.__main__ import main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"


def checkers_named(*names: str):
    picked = [checker for checker in all_checkers() if checker.name in names]
    assert len(picked) == len(names)
    return picked


def copy_fixtures(tmp_path: Path, *names: str) -> Path:
    """Copy fixtures into a directory whose path triggers no exemptions."""
    proj = tmp_path / "proj"
    proj.mkdir(exist_ok=True)
    for name in names:
        shutil.copy(FIXTURES / name, proj / name)
    return proj


def locations(findings, checker: str) -> set[tuple[int, int]]:
    return {(f.line, f.col) for f in findings if f.checker == checker}


# ---------------------------------------------------------------------------
# pin-discipline


def test_pin_bad_exact_locations(tmp_path: Path) -> None:
    proj = copy_fixtures(tmp_path, "pin_bad.py")
    findings, errors = run_checks([proj], checkers_named("pin-discipline"))
    assert not errors
    assert locations(findings, "pin-discipline") == {
        (5, 12),
        (12, 12),
        (21, 16),
        (28, 12),
    }


def test_pin_good_is_clean(tmp_path: Path) -> None:
    proj = copy_fixtures(tmp_path, "pin_good.py")
    findings, errors = run_checks([proj], checkers_named("pin-discipline"))
    assert not errors
    assert findings == []


def test_pin_checker_skips_test_files(tmp_path: Path) -> None:
    nested = tmp_path / "tests"
    nested.mkdir()
    shutil.copy(FIXTURES / "pin_bad.py", nested / "pin_bad.py")
    findings, _ = run_checks([nested], checkers_named("pin-discipline"))
    assert findings == []


def test_pin_regression_pr1_new_node_shape(tmp_path: Path) -> None:
    # The pre-fix _new_node from the B+-tree: new_page pinned, counter
    # bumped, frame returned with the unpin on the straight-line path
    # only.  The checker must flag the new_page call.
    source = (
        "class Tree:\n"
        "    def _new_node(self, is_leaf):\n"
        "        frame = self.bufmgr.new_page()\n"
        "        self.num_nodes += 1\n"
        "        node = (frame.page_id, is_leaf)\n"
        "        self.bufmgr.unpin(frame.page_id, dirty=True)\n"
        "        return node\n"
    )
    path = tmp_path / "regress.py"
    path.write_text(source)
    findings, errors = run_checks([path], checkers_named("pin-discipline"))
    assert not errors
    assert len(findings) == 1
    assert (findings[0].line, findings[0].col) == (3, 16)


# ---------------------------------------------------------------------------
# frame-escape


def test_frame_bad_exact_locations(tmp_path: Path) -> None:
    proj = copy_fixtures(tmp_path, "frame_bad.py")
    findings, errors = run_checks([proj], checkers_named("frame-escape"))
    assert not errors
    views = [f for f in findings if "decode helpers" in f.message]
    kept = [f for f in findings if "escapes its pin" in f.message]
    assert len(views) + len(kept) == len(findings)
    # the borrowed page view of a heap scan: the memoryview and its cast
    assert sorted((f.line, f.col, f.message.split()[0]) for f in views) == [
        (8, 18, ".cast()"),
        (8, 18, "memoryview()"),
    ]
    assert locations(kept, "frame-escape") == {
        (13, 20),  # attribute store of the raw buffer
        (16, 15),  # returned
        (20, 31),  # subscript store through a local alias
        (24, 23),  # .append() into a container
        (27, 36),  # returned inside a tuple
    }


def test_frame_good_is_clean(tmp_path: Path) -> None:
    proj = copy_fixtures(tmp_path, "frame_good.py")
    findings, errors = run_checks([proj], checkers_named("frame-escape"))
    assert not errors
    assert findings == []


def test_frame_checker_skips_test_files(tmp_path: Path) -> None:
    nested = tmp_path / "tests"
    nested.mkdir()
    shutil.copy(FIXTURES / "frame_bad.py", nested / "frame_bad.py")
    findings, _ = run_checks([nested], checkers_named("frame-escape"))
    assert findings == []


def _frame_findings(tmp_path: Path, relpath: str, source: str) -> list:
    path = tmp_path / "proj" / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    findings, errors = run_checks([path], checkers_named("frame-escape"))
    assert not errors
    return findings


def test_frame_mutation_borrowed_heap_scan(tmp_path: Path) -> None:
    # The zero-copy borrow this rule keeps out of src/: a heap
    # scan yielding a Q-cast view of the pinned frame.  The real module
    # is clean; the one-line mutation turns it red.
    text = (REPO_ROOT / "src/repro/storage/heapfile.py").read_text()
    assert _frame_findings(tmp_path, "storage/heapfile.py", text) == []
    decode = "yield page_layout.read_record_array(frame.data, codec)"
    assert text.count(decode) == 1
    mutant = text.replace(decode, 'yield memoryview(frame.data)[8:].cast("Q")')
    findings = _frame_findings(tmp_path, "storage/heapfile.py", mutant)
    assert {f.message.split()[0] for f in findings} == {"memoryview()", ".cast()"}


@pytest.mark.parametrize(
    "line", ["self._raw = frame.data", "return frame.data"]
)
def test_frame_mutation_kept_buffer(tmp_path: Path, line: str) -> None:
    # appended to the real heap file as a method of HeapFile
    text = (REPO_ROOT / "src/repro/storage/heapfile.py").read_text()
    anchor = "    def read_page_array(self, index: int)"
    mutant = text.replace(
        anchor, f"    def leak(self, frame):\n        {line}\n\n{anchor}"
    )
    findings = _frame_findings(tmp_path, "storage/heapfile.py", mutant)
    assert [f.message for f in findings] == [
        "a frame's buffer escapes its pin: copy or decode it instead"
    ]
    # the pool itself owns and recycles frame buffers
    assert _frame_findings(tmp_path, "storage/buffer.py", mutant) == []


VIEW_SOURCE = (
    "def decode(frame, count):\n"
    "    return memoryview(frame.data)[8 : 8 + 8 * count].cast('Q').tolist()\n"
)


@pytest.mark.parametrize(
    "relpath",
    [
        "storage/record.py",
        "storage/page.py",
        "index/bptree.py",
        "index/interval_tree.py",
        "ablations/rtree.py",
    ],
)
def test_frame_allowlisted_decode_helpers_stay_green(
    tmp_path: Path, relpath: str
) -> None:
    assert _frame_findings(tmp_path, relpath, VIEW_SOURCE) == []
    # the same helper anywhere else is a finding
    other = _frame_findings(tmp_path, "join/" + relpath.split("/")[1], VIEW_SOURCE)
    assert {f.line for f in other} == {2}


def test_frame_escape_waiver(tmp_path: Path) -> None:
    source = (
        "class Probe:\n"
        "    def keep(self, frame):\n"
        "        self._raw = frame.data  # repro: allow[frame-escape]\n"
        "        return memoryview(frame.data)  # repro: allow[frame-escape]\n"
    )
    assert _frame_findings(tmp_path, "join/probe.py", source) == []
    unwaived = source.replace("  # repro: allow[frame-escape]", "")
    assert len(_frame_findings(tmp_path, "join/probe.py", unwaived)) == 2


_DATA_MESSAGE = "a frame's buffer escapes its pin: copy or decode it instead"


def _probe_method(body: str) -> str:
    """``body`` (one statement per line) as a method of a join-side class."""
    lines = "".join(f"        {line}\n" for line in body.split("\n"))
    return (
        "import typing\n\n\n"
        "class Probe:\n"
        "    def keep(self, frame, pages, ok):\n"
        f"{lines}"
    )


@pytest.mark.parametrize(
    "body",
    [
        "yield frame.data",
        "yield from frame.data",
        "self.cache[frame.page_id] = frame.data",
        "pages.append(frame.data)",
        "pages.add(frame.data)",
        "pages.insert(0, frame.data)",
        "pages.setdefault(frame.page_id, frame.data)",
        "return (frame.page_id, frame.data)",
        "return [frame.data]",
        "return {'raw': frame.data}",
        "return frame.data if ok else b''",
        "return self._frame.data",
        "self.raw: bytearray = frame.data",
        "raw = frame.data\nreturn raw",
        "raw = frame.data\nself.pages[0] = raw",
    ],
)
def test_frame_escape_sinks_are_red(tmp_path: Path, body: str) -> None:
    # every way a frame's buffer can outlive its pin: one finding, on
    # the statement that keeps it
    findings = _frame_findings(tmp_path, "join/probe.py", _probe_method(body))
    assert [f.message for f in findings] == [_DATA_MESSAGE]
    assert findings[0].line == 6 + body.count("\n")


@pytest.mark.parametrize(
    "body",
    [
        "return len(frame.data)",
        "return bytes(frame.data)",
        "return frame.data[0]",
        "return decode(frame.data, 1)",
        "raw = frame.data\nreturn len(raw)",
        "return 1 if frame.data else 0",
        "return self.data",
        "return typing.cast(int, ok)",
    ],
)
def test_frame_reads_inside_the_pin_stay_green(tmp_path: Path, body: str) -> None:
    # copying, decoding or measuring the buffer keeps nothing of it
    assert _frame_findings(tmp_path, "join/probe.py", _probe_method(body)) == []



# ---------------------------------------------------------------------------
# span-discipline


def test_span_bad_exact_locations(tmp_path: Path) -> None:
    proj = copy_fixtures(tmp_path, "span_bad.py")
    findings, errors = run_checks([proj], checkers_named("span-discipline"))
    assert not errors
    assert locations(findings, "span-discipline") == {
        (5, 4),    # dropped on the floor
        (9, 11),   # manual __enter__ with a straight-line __exit__
        (17, 15),  # self.trace(...) result never entered
    }


def test_span_good_is_clean(tmp_path: Path) -> None:
    proj = copy_fixtures(tmp_path, "span_good.py")
    findings, errors = run_checks([proj], checkers_named("span-discipline"))
    assert not errors
    assert findings == []


# ---------------------------------------------------------------------------
# code-domain


def test_domain_bad_exact_lines(tmp_path: Path) -> None:
    proj = copy_fixtures(tmp_path, "domain_bad.py")
    findings, errors = run_checks([proj], checkers_named("code-domain"))
    assert not errors
    assert {f.line for f in findings} == {6, 12, 17, 21}


def test_domain_good_is_clean(tmp_path: Path) -> None:
    proj = copy_fixtures(tmp_path, "domain_good.py")
    findings, errors = run_checks([proj], checkers_named("code-domain"))
    assert not errors
    assert findings == []


def test_domain_checker_exempts_core(tmp_path: Path) -> None:
    core = tmp_path / "repro" / "core"
    core.mkdir(parents=True)
    shutil.copy(FIXTURES / "domain_bad.py", core / "pbitree_impl.py")
    findings, _ = run_checks([core], checkers_named("code-domain"))
    assert findings == []


# ---------------------------------------------------------------------------
# exports (runs on test files too, so no copy needed)


def test_exports_bad_exact_locations() -> None:
    findings, errors = run_checks(
        [FIXTURES / "exports_bad.py"], checkers_named("exports")
    )
    assert not errors
    assert {(f.line, f.checker) for f in findings} == {
        (3, "exports"),
        (10, "exports"),
    }
    messages = sorted(f.message for f in findings)
    assert "ghost_name" in messages[0]
    assert "undeclared_fn" in messages[1]


# ---------------------------------------------------------------------------
# annotations


def test_annotations_bad_exact_lines(tmp_path: Path) -> None:
    proj = copy_fixtures(tmp_path, "annotations_bad.py")
    findings, errors = run_checks([proj], checkers_named("annotations"))
    assert not errors
    assert {f.line for f in findings} == {4, 8, 13}
    partial = next(f for f in findings if f.line == 8)
    assert "height" in partial.message
    assert "code" not in partial.message.split(":")[-1]


# ---------------------------------------------------------------------------
# suppression comments


def test_wildcard_suppression(tmp_path: Path) -> None:
    path = tmp_path / "wild.py"
    path.write_text(
        "def f(bufmgr, page_id, code):\n"
        "    frame = bufmgr.pin(page_id)  # repro: allow[*]\n"
        "    return frame, code >> 1  # repro: allow[code-domain]\n"
    )
    findings, errors = run_checks(
        [path], checkers_named("pin-discipline", "code-domain")
    )
    assert not errors
    assert findings == []


def test_suppression_is_line_scoped(tmp_path: Path) -> None:
    path = tmp_path / "scoped.py"
    path.write_text(
        "def f(bufmgr, a, b):  # repro: allow[pin-discipline]\n"
        "    frame = bufmgr.pin(a)\n"
        "    return frame\n"
    )
    findings, _ = run_checks([path], checkers_named("pin-discipline"))
    assert len(findings) == 1
    assert findings[0].line == 2


# ---------------------------------------------------------------------------
# the real tree must be clean


def test_src_tree_has_no_findings() -> None:
    # the ablations' access methods and joins moved out of src/ stay
    # checked, and so do the checkers themselves
    roots = [
        REPO_ROOT / "src",
        REPO_ROOT / "tools",
        REPO_ROOT / "benchmarks" / "ablations",
    ]
    findings, errors = run_checks(roots, all_checkers())
    assert errors == []
    assert findings == [], "\n".join(f.render() for f in findings)


# ---------------------------------------------------------------------------
# CLI


def test_cli_clean_tree_exits_zero(tmp_path: Path) -> None:
    proj = copy_fixtures(tmp_path, "pin_good.py", "domain_good.py")
    argv = ["--checker", "pin-discipline", "--checker", "code-domain", str(proj)]
    assert main(argv) == 0


def test_cli_findings_exit_one(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    proj = copy_fixtures(tmp_path, "pin_bad.py")
    assert main(["--checker", "pin-discipline", str(proj)]) == 1
    captured = capsys.readouterr()
    assert "pin_bad.py:5:12" in captured.out
    assert "4 findings" in captured.err


def test_cli_missing_path_exits_two(tmp_path: Path) -> None:
    assert main([str(tmp_path / "does-not-exist")]) == 2


def test_cli_unknown_checker_exits_two(tmp_path: Path) -> None:
    assert main(["--checker", "nonsense", str(tmp_path)]) == 2


def test_cli_parse_error_exits_two(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    assert main([str(bad)]) == 2
    assert "broken.py" in capsys.readouterr().err


def test_cli_list_checkers(capsys: pytest.CaptureFixture) -> None:
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("pin-discipline", "code-domain", "exports", "annotations"):
        assert name in out


@pytest.mark.parametrize(
    "fixture, code", [("pin_good.py", 0), ("pin_bad.py", 1)]
)
def test_cli_runs_as_a_module_from_the_repo_root(
    tmp_path: Path, fixture: str, code: int
) -> None:
    """``PYTHONPATH=src python -m tools.analysis`` is how CI runs it."""
    proj = copy_fixtures(tmp_path, fixture)
    result = subprocess.run(
        [sys.executable, "-m", "tools.analysis", "--checker", "pin-discipline",
         str(proj)],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert result.returncode == code, result.stderr
    assert ("pin_bad.py:5:12" in result.stdout) == bool(code)


# ---------------------------------------------------------------------------
# mypy gate (only when the tool is available; CI's lint job installs it and
# fails if this test is skipped there)


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_rejects_domain_misuse() -> None:
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--strict", str(FIXTURES / "typing_misuse.py")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode != 0
    assert result.stdout.count("error:") >= 3
