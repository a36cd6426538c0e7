"""``python -m benchmarks.ledger {run,compare,manifest}``.

``run`` measures one workload (or ``all``) and prints every metric by
name with its unit, then — as the last line — the driver contract's
JSON object: the end-to-end metrics of an untraced run, or with
``--trace`` the per-layer metrics of the traced one.  It exits non-zero
when any checked output was wrong.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.obs.export import bench_summary, write_bench_summary

from .catalogue import PER_LAYER, ROOT, RUN_SECONDS, UNITS, manifest
from .harness import DEFAULT_OUT, RunResult, run_workload
from .lineup import LINEUP_LL, LINEUP_LS
from .service import SERVICE_CLOSED
from .shard import SHARD_SCATTER
from .updates import UPDATE_MIX

__all__ = ["main", "WORKLOADS", "contract_object"]

WORKLOADS = {
    workload.name: workload
    for workload in (LINEUP_LL, LINEUP_LS, SERVICE_CLOSED, UPDATE_MIX, SHARD_SCATTER)
}


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------
def contract_object(result: RunResult) -> dict[str, Any]:
    """The driver's result object: every end-to-end metric of an
    untraced run, every per-layer metric of a traced one (0 where the
    workload never calls the layer)."""
    if result.trace:
        values = {m.name: result.per_layer.get(m.name, 0.0) for m in PER_LAYER}
    else:
        values = result.end_to_end
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in values.items()
        },
    }


def _print_result(result: RunResult) -> None:
    print(
        f"== {result.workload}  seed={result.seed}  seconds={result.seconds:g}  "
        f"scale={result.scale:g}  samples={result.samples} =="
    )
    width = max(len(name) for name in UNITS)
    print("end-to-end (untraced window)")
    for name, value in result.end_to_end.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {UNITS[name]}")
    print(f"  {'failed_share':<{width}}  {result.failed_share:>14.6g}  ratio")
    if result.trace:
        print("per-layer (traced run)")
        for name, value in result.per_layer.items():
            print(f"  {name:<{width}}  {value:>14.6g}  {UNITS[name]}")
        for title, table in (
            ("traced window", result.layer_self_s), ("probes", result.probe_self_s)
        ):
            total = sum(table.values())
            print(f"self time per layer ({title})")
            for layer, seconds in table.items():
                print(f"  {layer:<{width}}  {seconds:>14.6g}  s  {seconds / total:6.1%}")
        print(f"trace: {result.trace_path}")
    for message in result.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    print(
        f"correct: {result.correct}  attempted={result.attempted}  failed={result.failed}"
    )


def _all_metrics(result: RunResult) -> dict[str, float]:
    return {**result.end_to_end, **result.per_layer, "failed_share": result.failed_share}


def _write_result(result: RunResult, out_dir: Path) -> Path:
    """``repro.bench/v1``: join rows in ``algorithms``, named metrics in ``metrics``."""
    summary = bench_summary(
        f"ledger.{result.workload}", result.rows, metrics=_all_metrics(result)
    )
    summary["ledger"] = {
        "workload": result.workload,
        "seed": result.seed,
        "seconds": result.seconds,
        "scale": result.scale,
        "trace": result.trace,
        "samples": result.samples,
        "attempted": result.attempted,
        "failed": result.failed,
        "units": {name: UNITS.get(name, "ratio") for name in _all_metrics(result)},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    return write_bench_summary(summary, out_dir / f"ledger_{result.workload}.json")


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _append_history(result: RunResult, path: Path) -> None:
    row = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": _commit(),
        "seed": result.seed,
        "nproc": os.cpu_count(),
        "workload": result.workload,
        "trace": result.trace,
        "seconds": result.seconds,
        "scale": result.scale,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": _all_metrics(result),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as out:
        out.write(json.dumps(row, sort_keys=True) + "\n")


def _cmd_run(args: argparse.Namespace) -> int:
    if args.workload == "all":
        # one process per workload: peak RSS is a process-wide high-water mark
        status = 0
        for name in WORKLOADS:
            command = [
                sys.executable, "-m", "benchmarks.ledger", "run", "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", str(args.scale),
                "--out", str(args.out),
            ]
            if args.history is not None:
                command += ["--history", str(args.history)]
            sys.stdout.flush()
            status |= subprocess.run(
                command, check=False, cwd=ROOT,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))},
            ).returncode
        return status
    result = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        args.scale, args.out,
    )
    _print_result(result)
    print(f"[wrote {_write_result(result, args.out)}]")
    if args.history is not None:
        _append_history(result, args.history)
    print(json.dumps(contract_object(result)), flush=True)
    return 0 if result.correct else 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
def _load_rows(path: Path) -> list[dict[str, Any]]:
    """Rows of a ``--history`` trajectory, or the one row of a result file."""
    text = path.read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    if "ledger" in data:
        return [{"workload": data["ledger"]["workload"], "metrics": data["metrics"]}]
    return [data]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _samples(rows: list[dict[str, Any]]) -> dict[tuple[str, str], list[float]]:
    samples: dict[tuple[str, str], list[float]] = {}
    for row in rows:
        for name, value in row["metrics"].items():
            samples.setdefault((row["workload"], name), []).append(float(value))
    return samples


def _cmd_compare(args: argparse.Namespace) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounded = {m["name"]: m for m in contract["end_to_end"]}
    better = {m["name"]: m["better"] for m in contract["end_to_end"] + contract["per_layer"]}
    base, new = _samples(_load_rows(args.base)), _samples(_load_rows(args.new))
    regressed = 0
    print(
        f"{'workload':<15} {'metric':<32} {'base median [q1, q3]':>34} "
        f"{'new median [q1, q3]':>34} {'new/base':>9}  status"
    )
    for key in sorted(set(base) & set(new)):
        workload, name = key
        b1, b2, b3 = _quartiles(base[key])
        n1, n2, n3 = _quartiles(new[key])
        ratio = n2 / b2 if b2 else float("nan")
        status = "-"
        if name in bounded:
            bound = bounded[name]["bound"]
            worse = ratio - 1.0 if better[name] == "lower" else 1.0 - ratio
            spread = max((b3 - b1) / b2 if b2 else 0.0, (n3 - n1) / n2 if n2 else 0.0)
            if spread > bound:
                status = "unresolved"
            elif worse > bound:
                status = "regressed"
                regressed += 1
            else:
                status = "ok"
        print(
            f"{workload:<15} {name:<32} {b2:>12.6g} [{b1:>8.5g}, {b3:>8.5g}] "
            f"{n2:>12.6g} [{n1:>8.5g}, {n3:>8.5g}] {ratio:>9.4f}  {status}"
        )
    print(f"# ratios are new/base; {regressed} regressed")
    return 1 if regressed else 0


def _cmd_manifest(_args: argparse.Namespace) -> int:
    print(json.dumps(manifest(), indent=2))
    return 0


# ---------------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure one workload, or all")
    run.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, default=RUN_SECONDS,
                     help="length of the timed window")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="traced run: per-layer metrics, trace_<workload>.jsonl")
    run.add_argument("--scale", type=float, default=1.0,
                     help="shrink set sizes (self-test only; BENCHMARK.json runs at 1.0)")
    run.add_argument("--out", type=Path, default=DEFAULT_OUT,
                     help="directory for result and trace files")
    run.add_argument("--history", type=Path, default=None,
                     help="append one dated row per workload to this JSONL trajectory")
    run.set_defaults(handler=_cmd_run)

    compare = commands.add_parser(
        "compare", help="hold B against A under the bounds in BENCHMARK.json"
    )
    compare.add_argument("base", type=Path)
    compare.add_argument("new", type=Path)
    compare.set_defaults(handler=_cmd_compare)

    show = commands.add_parser("manifest", help="print BENCHMARK.json from the catalogue")
    show.set_defaults(handler=_cmd_manifest)

    args = parser.parse_args(argv)
    return int(args.handler(args))
