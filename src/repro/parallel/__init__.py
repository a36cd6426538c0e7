"""Process-pool execution of independent cold joins.

The one pooled unit is a :class:`~repro.parallel.tasks.SlotJoinTask`:
one algorithm, cold, on a worker-private workbench.  The line-up
harness ships one task per algorithm
(:func:`~repro.experiments.harness.run_lineup` with ``workers > 1``) and
the shard executor one task per level-``l`` slot;
:func:`~repro.parallel.fanout.run_cold_joins` merges the results in
submission order.  Each task's report equals the same algorithm run
serially on a fresh bench, so reports are identical for every worker
count (see docs/parallel.md).  Everything defaults to serial
(``workers=1``); the CLI's ``--workers`` flag sets the width.
"""

from .fanout import run_cold_joins
from .pool import PARALLEL_MODE_ENV, WorkerPool
from .tasks import (
    SlotJoinTask,
    SlotTaskResult,
    fault_from_payload,
    fault_to_payload,
    run_slot_join_task,
)

__all__ = [
    "run_cold_joins",
    "PARALLEL_MODE_ENV",
    "WorkerPool",
    "SlotJoinTask",
    "SlotTaskResult",
    "fault_from_payload",
    "fault_to_payload",
    "run_slot_join_task",
]
