#!/usr/bin/env python
"""Perf smoke: prove the batched hot path actually pays for itself.

Runs two workloads with batching on (default batch size) and off
(``batch_size=0``, the scalar oracle):

* the bulk code-conversion micro kernels of
  :mod:`benchmarks.bench_coding_micro` (heights / regions / prefixes /
  doc-order keys over one code array);
* the Figure 6(b) multi-height line-up on one synthetic dataset.

It emits a schema-valid ``BENCH_batched.json`` (``repro.bench/v1``)
whose ``metrics`` object carries the scalar and batched wall times plus
the derived ``speedup_micro`` / ``speedup_fig6b`` ratios, then compares
those speedups against the committed baseline and exits non-zero when
either regresses by more than ``--tolerance`` (default 10%).

A third section does the same for the flat-array static indexes
(:mod:`repro.index.flat`): it probes pre-built pointer and flat index
pairs with the INLJN probe loops, emits ``BENCH_flat.json`` carrying
the per-side ratios and the gated combined ``speedup_flat_probe``, and
additionally enforces a hard floor of ``FLAT_MIN_SPEEDUP`` on that
combined speedup.  The B+-tree range side is reported but not gated
(``flat_range_ratio``): the pointer tree's node cache already amortises
its decode, so that side sits at parity and would only add noise to
the gate — the win lives in the stab side, which the pointer interval
tree re-decodes on every visit.

A fourth section measures the view-lifetime sanitizer
(:mod:`repro.storage.sanitize`): the same Figure 6(b) line-up runs with
``REPRO_SANITIZE`` semantics on and off, every JoinReport is asserted
field-for-field identical (modulo wall time) between the two, and the
overhead ratio is written to ``BENCH_sanitize.json``.  This section is
*informational only* — the sanitizer is a debugging mode, not a hot
path, so its overhead is recorded but never gated.

A fifth section runs the update-heavy workload
(:mod:`repro.workloads.updates`) through every registered containment
codec and writes ``BENCH_updates.json`` comparing relabel cost per
insert (PBiTree pays local relabels to stay inside a fixed code space;
nested intervals never relabel but spend code bits per sibling ordinal
and start refusing deep inserts at the 63-bit budget).  Also
informational only: the numbers characterise a codec trade-off, not a
hot path this repo could regress, so no ``speedup_`` key is emitted.

Usage::

    PYTHONPATH=src python scripts/perf_smoke.py --out BENCH_batched.json
    PYTHONPATH=src python scripts/perf_smoke.py --update-baseline

Wall-clock times differ across machines; the *speedup ratios* are what
the baseline pins (same interpreter, same machine, two builds of the
same loop), which keeps the gate meaningful on shared CI runners.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import batch, pbitree as pt  # noqa: E402
from repro.core.codec import available_codecs, get_codec  # noqa: E402
from repro.core.execconfig import current, exec_scope  # noqa: E402
from repro.experiments.harness import (  # noqa: E402
    Workbench,
    materialize,
    run_algorithm,
    run_lineup,
)
from repro.join.base import JoinReport, JoinSink  # noqa: E402
from repro.join.inljn import (  # noqa: E402
    IndexNestedLoopJoin,
    build_interval_index,
    build_start_index,
)
from repro.obs.export import bench_summary, write_bench_summary  # noqa: E402
from repro.workloads import synthetic as syn  # noqa: E402
from repro.workloads.updates import (  # noqa: E402
    UpdateWorkloadSpec,
    run_update_workload,
)

DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "results" / "BENCH_batched_baseline.json"
DEFAULT_FLAT_BASELINE = (
    REPO_ROOT / "benchmarks" / "results" / "BENCH_flat_baseline.json"
)

MICRO_CODES = 50_000
MICRO_REPEATS = 5
FIG6B_DATASET = "MLLH"
FIG6B_LARGE = 8_000
FIG6B_SMALL = 80
FIG6B_REPEATS = 3
FLAT_DATASET = "MLLH"
FLAT_LARGE = 6_000
FLAT_SMALL = 60
FLAT_REPEATS = 5
FLAT_BUFFER_PAGES = 400
FLAT_PAGE_SIZE = 1024
#: hard floor on the combined flat-probe speedup, independent of baseline
FLAT_MIN_SPEEDUP = 1.3
SANITIZE_DATASET = "MLLH"
SANITIZE_LARGE = 4_000
SANITIZE_SMALL = 40
SANITIZE_REPEATS = 3
UPDATE_NODES = 300
UPDATE_OPS = 600
UPDATE_SEED = 2003


def _time_best(fn, repeats: int) -> float:
    """Best-of-N wall time — the standard noise filter for smoke runs."""
    best = float("inf")
    for _ in range(repeats):
        tick = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - tick)
    return best


def micro_times() -> tuple[float, float]:
    """Scalar vs batched bulk conversions over one code array."""
    rng = random.Random(7)
    codes = [rng.randrange(1, 1 << 62) for _ in range(MICRO_CODES)]

    def scalar() -> None:
        [pt.height_of(c) for c in codes]
        [pt.region_of(c) for c in codes]
        [pt.prefix_of(c) for c in codes]
        [pt.doc_order_key(c) for c in codes]

    def batched() -> None:
        batch.heights(codes)
        batch.regions(codes)
        batch.prefixes(codes)
        batch.doc_order_keys(codes)

    return _time_best(scalar, MICRO_REPEATS), _time_best(batched, MICRO_REPEATS)


def fig6b_times() -> tuple[float, float, object]:
    """Whole-line-up wall time, scalar vs batched; returns the batched
    line-up for the BENCH report rows.  The dataset is generated once,
    outside the timed region — the gate measures join execution, not
    workload synthesis."""
    spec = syn.spec_by_name(FIG6B_DATASET, large=FIG6B_LARGE, small=FIG6B_SMALL)
    dataset = syn.generate(spec, seed=2003)

    def lineup_run(batch_size: int):
        return run_lineup(
            FIG6B_DATASET,
            dataset.a_codes,
            dataset.d_codes,
            dataset.tree_height,
            buffer_pages=50,
            page_size=1024,
            single_height=False,
            exec=current().override(batch_size=batch_size),
        )

    lineup_run(0)  # warm both code paths once
    scalar_wall = _time_best(lambda: lineup_run(0), FIG6B_REPEATS)
    lineup = lineup_run(batch.DEFAULT_BATCH_SIZE)
    batched_wall = _time_best(
        lambda: lineup_run(batch.DEFAULT_BATCH_SIZE), FIG6B_REPEATS
    )
    return scalar_wall, batched_wall, lineup


def flat_section() -> tuple[dict[str, object], list[tuple[str, str, object]]]:
    """Pointer vs flat probe wall times over pre-built static indexes.

    Returns the flat BENCH metrics plus ``(label, dataset, report)``
    rows for the summary: one INLJN run per probe direction per index
    family.  Each flat report is asserted field-for-field equal to its
    pointer twin (modulo wall time) before anything is written — the
    perf gate never reports a speedup of a path that changed results
    or I/O accounting.
    """
    spec = syn.spec_by_name(FLAT_DATASET, large=FLAT_LARGE, small=FLAT_SMALL)
    dataset = syn.generate(spec, seed=2003)
    bench = Workbench.create(FLAT_BUFFER_PAGES, FLAT_PAGE_SIZE)
    ancestors = materialize(
        bench.bufmgr, dataset.a_codes, dataset.tree_height, f"{FLAT_DATASET}.A"
    )
    descendants = materialize(
        bench.bufmgr, dataset.d_codes, dataset.tree_height, f"{FLAT_DATASET}.D"
    )
    with exec_scope(flat_index=False):
        d_pointer = build_start_index(descendants, bench.bufmgr, "D.start.ptr")
        a_pointer = build_interval_index(ancestors, bench.bufmgr, "A.iv.ptr")
    with exec_scope(flat_index=True):
        d_flat = build_start_index(descendants, bench.bufmgr, "D.start.flat")
        a_flat = build_interval_index(ancestors, bench.bufmgr, "A.iv.flat")

    probe_range = IndexNestedLoopJoin._probe_descendant_index
    probe_stab = IndexNestedLoopJoin._probe_ancestor_index

    def range_count(index) -> int:
        sink = JoinSink("count")
        probe_range(ancestors, index, sink)
        return sink.count

    def stab_count(index) -> int:
        sink = JoinSink("count")
        probe_stab(descendants, index, sink)
        return sink.count

    with exec_scope(batch_size=batch.DEFAULT_BATCH_SIZE):
        # differential sanity before timing anything
        if range_count(d_flat) != range_count(d_pointer):
            raise AssertionError("flat range probe changed the result count")
        if stab_count(a_flat) != stab_count(a_pointer):
            raise AssertionError("flat stab probe changed the result count")
        range_pointer = _time_best(lambda: range_count(d_pointer), FLAT_REPEATS)
        range_flat = _time_best(lambda: range_count(d_flat), FLAT_REPEATS)
        stab_pointer = _time_best(lambda: stab_count(a_pointer), FLAT_REPEATS)
        stab_flat = _time_best(lambda: stab_count(a_flat), FLAT_REPEATS)

    rows: list[tuple[str, str, object]] = []
    reports: dict[tuple[str, str], object] = {}
    for enabled, family in ((False, "pointer"), (True, "flat")):
        for outer in ("A", "D"):
            with exec_scope(
                batch_size=batch.DEFAULT_BATCH_SIZE, flat_index=enabled
            ):
                report = run_algorithm(
                    IndexNestedLoopJoin(force_outer=outer),
                    ancestors,
                    descendants,
                )
            reports[(family, outer)] = report
            rows.append((f"INLJN[{family},outer={outer}]", FLAT_DATASET, report))
    for outer in ("A", "D"):
        pointer_report = dataclasses.replace(
            reports[("pointer", outer)], wall_seconds=0.0, trace=None
        )
        flat_report = dataclasses.replace(
            reports[("flat", outer)], wall_seconds=0.0, trace=None
        )
        if flat_report != pointer_report:
            raise AssertionError(
                f"flat INLJN (outer={outer}) diverged from the pointer "
                f"oracle's JoinReport"
            )

    metrics: dict[str, object] = {
        "flat_dataset": FLAT_DATASET,
        "flat_range_pointer_seconds": round(range_pointer, 6),
        "flat_range_flat_seconds": round(range_flat, 6),
        "flat_range_ratio": round(range_pointer / range_flat, 3),
        "flat_stab_pointer_seconds": round(stab_pointer, 6),
        "flat_stab_flat_seconds": round(stab_flat, 6),
        "flat_stab_ratio": round(stab_pointer / stab_flat, 3),
        "speedup_flat_probe": round(
            (range_pointer + stab_pointer) / (range_flat + stab_flat), 3
        ),
    }
    return metrics, rows


def sanitize_section() -> tuple[dict[str, object], list[tuple[str, str, object]]]:
    """Sanitized vs plain Figure 6(b) line-up wall times (no gate).

    Before timing anything, each algorithm's sanitized JoinReport is
    asserted field-for-field equal to its plain twin (modulo wall
    time): the sanitizer must be observationally free.  The reported
    ``sanitize_overhead_ratio`` (sanitized / plain, >= 1.0 up to
    noise) is informational — none of its keys carry the ``speedup_``
    prefix the baseline gate looks for.
    """
    spec = syn.spec_by_name(
        SANITIZE_DATASET, large=SANITIZE_LARGE, small=SANITIZE_SMALL
    )
    dataset = syn.generate(spec, seed=2003)

    def lineup_run(sanitized: bool):
        return run_lineup(
            SANITIZE_DATASET,
            dataset.a_codes,
            dataset.d_codes,
            dataset.tree_height,
            buffer_pages=50,
            page_size=1024,
            single_height=False,
            exec=current().override(sanitize=sanitized),
        )

    plain = lineup_run(False)
    sanitized = lineup_run(True)
    for p_result, s_result in zip(plain.results, sanitized.results):
        plain_report = dataclasses.replace(
            p_result.report, wall_seconds=0.0, trace=None
        )
        sanitized_report = dataclasses.replace(
            s_result.report, wall_seconds=0.0, trace=None
        )
        if sanitized_report != plain_report:
            raise AssertionError(
                f"{p_result.name} diverged under the view sanitizer"
            )
    plain_wall = _time_best(lambda: lineup_run(False), SANITIZE_REPEATS)
    sanitized_wall = _time_best(lambda: lineup_run(True), SANITIZE_REPEATS)
    metrics: dict[str, object] = {
        "sanitize_dataset": SANITIZE_DATASET,
        "sanitize_plain_seconds": round(plain_wall, 6),
        "sanitize_sanitized_seconds": round(sanitized_wall, 6),
        "sanitize_overhead_ratio": round(sanitized_wall / plain_wall, 3),
    }
    rows = [
        (f"{result.name}[sanitized]", SANITIZE_DATASET, result.report)
        for result in sanitized.results
    ]
    return metrics, rows


def updates_section() -> tuple[dict[str, object], list[tuple[str, str, object]]]:
    """Relabel cost per insert for every registered codec (no gate).

    One seeded update storm per codec through the full storage-backed
    pipeline (change log, page patches, index retirement) — the run
    itself ends with ``DocumentStore.verify``, so a diverged store
    cannot report numbers.  The summary rows reuse the JoinReport shape
    (``result_count`` = log records applied) purely so the output
    passes the ``repro.bench/v1`` schema; the payload of interest is
    the ``updates.<codec>.*`` metrics block.
    """
    spec = UpdateWorkloadSpec(
        nodes=UPDATE_NODES, updates=UPDATE_OPS, seed=UPDATE_SEED
    )
    metrics: dict[str, object] = {"update_operations": UPDATE_OPS}
    rows: list[tuple[str, str, object]] = []
    for name in available_codecs():
        result = run_update_workload(spec, get_codec(name))
        metrics.update(result.as_metrics())
        rows.append(
            (
                f"updates:{name}",
                "update-storm",
                JoinReport(
                    algorithm=f"updates:{name}",
                    result_count=result.log_records_applied,
                    join_io=result.io,
                    wall_seconds=result.wall_seconds,
                ),
            )
        )
    return metrics, rows


def check_regressions(
    metrics: dict[str, object], baseline_path: Path, tolerance: float
) -> list[str]:
    if not baseline_path.exists():
        return [f"no baseline at {baseline_path} (run with --update-baseline)"]
    baseline = json.loads(baseline_path.read_text())
    problems = []
    for key, reference in baseline.get("metrics", {}).items():
        if not key.startswith("speedup_"):
            continue
        current = metrics.get(key)
        floor = float(reference) * (1.0 - tolerance)
        if not isinstance(current, (int, float)) or current < floor:
            problems.append(
                f"{key} regressed: {current} vs baseline {reference} "
                f"(floor {floor:.2f} at {tolerance:.0%} tolerance)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_batched.json")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    parser.add_argument("--flat-out", default="BENCH_flat.json")
    parser.add_argument("--flat-baseline", default=str(DEFAULT_FLAT_BASELINE))
    parser.add_argument(
        "--sanitize-out", default="BENCH_sanitize.json",
        help="sanitizer overhead summary (informational, never gated)",
    )
    parser.add_argument(
        "--updates-out", default="BENCH_updates.json",
        help="per-codec update-storm summary (informational, never gated)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.10,
        help="allowed fractional speedup regression vs baseline (default 0.10)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the committed baselines instead of gating against them",
    )
    args = parser.parse_args(argv)

    micro_scalar, micro_batched = micro_times()
    fig_scalar, fig_batched, lineup = fig6b_times()
    flat_metrics, flat_rows = flat_section()
    sanitize_metrics, sanitize_rows = sanitize_section()
    updates_metrics, updates_rows = updates_section()

    metrics: dict[str, object] = {
        "batch_size": batch.DEFAULT_BATCH_SIZE,
        "micro_scalar_seconds": round(micro_scalar, 6),
        "micro_batched_seconds": round(micro_batched, 6),
        "speedup_micro": round(micro_scalar / micro_batched, 3),
        "fig6b_dataset": FIG6B_DATASET,
        "fig6b_scalar_seconds": round(fig_scalar, 6),
        "fig6b_batched_seconds": round(fig_batched, 6),
        "speedup_fig6b": round(fig_scalar / fig_batched, 3),
    }
    summary = bench_summary(
        "batched",
        [
            (result.name, FIG6B_DATASET, result.report)
            for result in lineup.results
        ],
        metrics=metrics,
    )
    flat_summary = bench_summary("flat", flat_rows, metrics=flat_metrics)
    sanitize_summary = bench_summary(
        "sanitize", sanitize_rows, metrics=sanitize_metrics
    )
    updates_summary = bench_summary(
        "updates", updates_rows, metrics=updates_metrics
    )
    out_path = write_bench_summary(summary, args.out)
    flat_out_path = write_bench_summary(flat_summary, args.flat_out)
    sanitize_out_path = write_bench_summary(sanitize_summary, args.sanitize_out)
    updates_out_path = write_bench_summary(updates_summary, args.updates_out)
    print(f"micro:  {micro_scalar * 1e3:8.2f} ms scalar  "
          f"{micro_batched * 1e3:8.2f} ms batched  "
          f"{metrics['speedup_micro']}x")
    print(f"fig6b:  {fig_scalar * 1e3:8.2f} ms scalar  "
          f"{fig_batched * 1e3:8.2f} ms batched  "
          f"{metrics['speedup_fig6b']}x")
    print(f"flat:   range {flat_metrics['flat_range_ratio']}x  "
          f"stab {flat_metrics['flat_stab_ratio']}x  "
          f"combined {flat_metrics['speedup_flat_probe']}x")
    print(f"sanitize: plain {sanitize_metrics['sanitize_plain_seconds']}s  "
          f"sanitized {sanitize_metrics['sanitize_sanitized_seconds']}s  "
          f"overhead {sanitize_metrics['sanitize_overhead_ratio']}x "
          f"(informational)")
    for name in available_codecs():
        print(
            f"updates[{name}]: "
            f"{updates_metrics[f'updates.{name}.relabelled_per_insert']:.3f} "
            f"relabelled/insert  "
            f"{updates_metrics[f'updates.{name}.skipped_inserts']:.0f} skipped "
            f"(informational)"
        )
    print(f"[wrote {out_path}]")
    print(f"[wrote {flat_out_path}]")
    print(f"[wrote {sanitize_out_path}]")
    print(f"[wrote {updates_out_path}]")

    baseline_path = Path(args.baseline)
    flat_baseline_path = Path(args.flat_baseline)
    problems = []
    combined = flat_metrics["speedup_flat_probe"]
    if not isinstance(combined, (int, float)) or combined < FLAT_MIN_SPEEDUP:
        problems.append(
            f"speedup_flat_probe {combined} is below the hard floor "
            f"{FLAT_MIN_SPEEDUP}"
        )
    if args.update_baseline:
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        write_bench_summary(summary, baseline_path)
        write_bench_summary(flat_summary, flat_baseline_path)
        print(f"[baseline updated: {baseline_path}]")
        print(f"[baseline updated: {flat_baseline_path}]")
        return 0
    problems += check_regressions(metrics, baseline_path, args.tolerance)
    problems += check_regressions(
        flat_metrics, flat_baseline_path, args.tolerance
    )
    for problem in problems:
        print(f"REGRESSION: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
