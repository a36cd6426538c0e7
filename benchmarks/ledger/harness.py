"""The measurement protocol every workload runs under.

One run = several timed set-ups (median reported as ``setup_s``), a
timed window of ``seconds`` in which the workload repeats its unit of
work, a correctness gate, and — for a traced run — the same window
again with a span around every layer call plus the per-layer probes.
End-to-end metrics always come from an untraced window.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Optional, Protocol

from .catalogue import LEDGER_DIR, layer_metrics_of
from .spans import LEDGER_LAYER, NullRecorder, SpanRecorder, layer_self_times

__all__ = [
    "Measurement", "RunResult", "Workload", "run_workload", "median",
    "percentile", "DEFAULT_OUT",
]

#: set-ups timed per run; the last one's state is the one measured
SETUP_REPEATS = 3
DEFAULT_OUT = LEDGER_DIR / "out"

median = statistics.median


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile (``samples`` need not be sorted)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


@dataclass
class Measurement:
    """What one timed window produced."""

    #: wall seconds of each unit of work, in completion order
    latencies: list[float]
    #: work items completed (joins, ok replies, updates, sharded joins)
    items: int
    #: the timed wall the items completed in
    wall: float
    #: page transfers (reads + writes) per unit of work
    pages_per_op: float
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: ``(label, dataset, JoinReport)`` rows for the result file
    rows: list[tuple[str, str, Any]] = field(default_factory=list)
    #: workload-specific samples the per-layer metrics are derived from
    detail: dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        """Count one checked operation; remember why a failed one failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)


class Workload(Protocol):
    name: str

    def setup(self, seed: int, scale: float) -> Any: ...

    def teardown(self, state: Any) -> None: ...

    def measure(self, state: Any, seconds: float, rec: SpanRecorder) -> Measurement: ...

    def layers(
        self, state: Any, rec: SpanRecorder, untraced: Measurement, traced: Measurement
    ) -> dict[str, float]: ...


@dataclass
class RunResult:
    workload: str
    seed: int
    seconds: float
    scale: float
    trace: bool
    attempted: int
    failed: int
    failures: list[str]
    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    samples: int
    rows: list[tuple[str, str, Any]]
    #: self seconds per layer inside the traced window's ops ...
    layer_self_s: dict[str, float] = field(default_factory=dict)
    #: ... and inside the per-layer probes that follow it
    probe_self_s: dict[str, float] = field(default_factory=dict)
    trace_path: Optional[Path] = None

    @property
    def correct(self) -> bool:
        return self.failed == 0

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def _end_to_end(setup_times: list[float], window: Measurement) -> dict[str, float]:
    return {
        "setup_s": median(setup_times),
        "op_p50_ms": median(window.latencies) * 1e3,
        "throughput_per_s": window.items / window.wall,
        "pages_per_op": window.pages_per_op,
        # ru_maxrss is KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _trace_metrics(
    rec: SpanRecorder, untraced: Measurement, traced: Measurement
) -> tuple[dict[str, float], dict[str, float]]:
    """(``trace.*`` metrics, per-layer self seconds) of the traced window."""
    # every timed unit of work is one ledger-layer "op" span whose
    # subtree holds the layer calls; its self time is benchmark glue.
    # Client threads open their ops as roots, so membership is by id.
    inside: set[int] = set()
    timed = []
    for span in rec.spans:  # parents are recorded before their children
        if span.parent in inside or (span.name == "op" and span.layer == LEDGER_LAYER):
            inside.add(span.id)
            timed.append(span)
    layers = layer_self_times(timed)
    total = sum(span.duration for span in timed if span.name == "op")
    metrics = {
        "trace.untraced_share": layers.get(LEDGER_LAYER, 0.0) / total if total else 1.0,
        "trace.overhead_share": median(traced.latencies) / median(untraced.latencies) - 1.0,
    }
    return metrics, layers


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool = False,
    scale: float = 1.0,
    out_dir: Path = DEFAULT_OUT,
) -> RunResult:
    setup_times: list[float] = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
        started = perf_counter()
        state = workload.setup(seed, scale)
        setup_times.append(perf_counter() - started)
    try:
        per_layer: dict[str, float] = {}
        layer_self_s: dict[str, float] = {}
        probe_self_s: dict[str, float] = {}
        trace_path = None
        if trace:
            rec = SpanRecorder()
            untraced = workload.measure(state, seconds / 2, NullRecorder())
            with rec.span("window"):
                traced = workload.measure(state, seconds / 2, rec)
            per_layer, layer_self_s = _trace_metrics(rec, untraced, traced)
            with rec.span("probes") as probes:
                per_layer.update(workload.layers(state, rec, untraced, traced))
            probe_self_s = layer_self_times(rec.spans[probes.id + 1:])
            expected = set(layer_metrics_of(workload.name))
            if set(per_layer) != expected:
                raise AssertionError(
                    f"{workload.name} per-layer metrics drifted from the catalogue: "
                    f"missing {sorted(expected - set(per_layer))}, "
                    f"extra {sorted(set(per_layer) - expected)}"
                )
            trace_path = rec.write_jsonl(out_dir / f"trace_{workload.name}.jsonl")
            windows = [untraced, traced]
        else:
            untraced = workload.measure(state, seconds, NullRecorder())
            windows = [untraced]
    finally:
        workload.teardown(state)
    return RunResult(
        workload=workload.name,
        seed=seed,
        seconds=seconds,
        scale=scale,
        trace=trace,
        attempted=sum(w.attempted for w in windows),
        failed=sum(w.failed for w in windows),
        failures=[message for w in windows for message in w.failures],
        end_to_end=_end_to_end(setup_times, untraced),
        per_layer=per_layer,
        samples=len(untraced.latencies),
        rows=untraced.rows,
        layer_self_s=layer_self_s,
        probe_self_s=probe_self_s,
        trace_path=trace_path,
    )
