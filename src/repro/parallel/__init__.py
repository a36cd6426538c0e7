"""Parallel execution of independent partition tasks.

The partitioning algorithms of Sections 3.2–3.3 are embarrassingly
parallel by construction: MHCJ's height classes and VPJ's purged
co-partition pairs are joined independently and their outputs are
disjoint.  This package fans those tasks — plus the harness's
per-algorithm line-up runs — out over a process pool while keeping the
parent's page-I/O accounting *byte-identical* to a serial run: the
parent performs all storage I/O in serial order and ships only code
arrays; workers run pure-CPU kernels (see docs/parallel.md).

Everything defaults to serial (``workers=1``); the knob is threaded
through :class:`~repro.join.vpj.VerticalPartitionJoin`,
:class:`~repro.join.mhcj.MultiHeightRollupJoin`,
:func:`~repro.experiments.harness.run_lineup` and the CLI's
``--workers`` flag.
"""

from .fanout import Fanout, open_fanout, run_cold_joins
from .pool import PARALLEL_MODE_ENV, WorkerPool, split_chunks
from .tasks import (
    HeightProbeTask,
    MemJoinTask,
    SlotJoinTask,
    SlotTaskResult,
    TaskResult,
    fault_from_payload,
    fault_to_payload,
    run_height_probe_task,
    run_memjoin_task,
    run_slot_join_task,
)

__all__ = [
    "Fanout",
    "open_fanout",
    "run_cold_joins",
    "PARALLEL_MODE_ENV",
    "WorkerPool",
    "split_chunks",
    "HeightProbeTask",
    "MemJoinTask",
    "SlotJoinTask",
    "SlotTaskResult",
    "TaskResult",
    "fault_from_payload",
    "fault_to_payload",
    "run_height_probe_task",
    "run_memjoin_task",
    "run_slot_join_task",
]
