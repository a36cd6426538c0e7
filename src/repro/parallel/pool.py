"""Worker pool: fan cold-join tasks out over processes.

The pool is deliberately small and boring.  Tasks are *pure functions
of picklable payloads* — a task ships codes and frozen configs, never
buffer pages, heap files or live fault injectors, and builds its own
bench (see :mod:`repro.parallel.tasks`) — so a task can always be
re-run inline with an identical result.  That purity is what the
graceful-degradation story leans on: if the process pool cannot start
(restricted containers) or dies mid-flight (a worker is OOM-killed),
every affected task is simply executed in the parent, and the join's
output and accounting are unchanged.

Two modes:

* ``"process"`` (default) — a :class:`~concurrent.futures.ProcessPoolExecutor`
  over a ``fork`` context where available (workers inherit the loaded
  module graph; nothing else is shared);
* ``"inline"`` — tasks run eagerly in the parent at submit time.  This
  is the deterministic single-process reference the differential tests
  compare against, and the automatic fallback everywhere else.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Callable, Optional, TypeVar

__all__ = ["WorkerPool", "check_pool_args"]

_TaskT = TypeVar("_TaskT")
_ResultT = TypeVar("_ResultT")

_MODES = ("process", "inline")


def check_pool_args(workers: int, mode: Optional[str]) -> None:
    """Reject a worker count below 1 or an unknown mode name.

    ``mode=None`` passes: it means ``"process"``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if mode is not None and mode not in _MODES:
        raise ValueError(
            f"unknown parallel mode {mode!r} (expected one of {_MODES})"
        )


def _immediate(
    fn: Callable[[_TaskT], _ResultT], task: _TaskT
) -> "Future[_ResultT]":
    """Run ``fn(task)`` now and wrap the outcome in a resolved future."""
    future: "Future[_ResultT]" = Future()
    try:
        future.set_result(fn(task))
    except Exception as exc:
        future.set_exception(exc)
    return future


class WorkerPool:
    """A fixed-size pool executing pure, picklable tasks.

    ``workers`` is the process count; ``workers == 1`` always runs
    inline.  The underlying executor is created lazily on first submit,
    so a pool that receives no task costs nothing.
    """

    def __init__(self, workers: int, mode: Optional[str] = None) -> None:
        check_pool_args(workers, mode)
        self.workers = workers
        self.mode = "inline" if workers == 1 else mode or "process"
        self._executor: Optional[ProcessPoolExecutor] = None
        self._broken = False

    # -- lifecycle ------------------------------------------------------
    def _ensure_executor(self) -> Optional[ProcessPoolExecutor]:
        if self.mode != "process" or self._broken:
            return None
        if self._executor is None:
            try:
                try:
                    context = multiprocessing.get_context("fork")
                except ValueError:
                    context = multiprocessing.get_context()
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=context
                )
            except (OSError, ValueError, PermissionError):
                # restricted environments (no /dev/shm, seccomp, ...):
                # degrade to inline execution rather than failing the join
                self._broken = True
                return None
        return self._executor

    def submit(
        self, fn: Callable[[_TaskT], _ResultT], task: _TaskT
    ) -> "Future[_ResultT]":
        """Schedule ``fn(task)``; falls back to inline on pool failure."""
        executor = self._ensure_executor()
        if executor is None:
            return _immediate(fn, task)
        try:
            return executor.submit(fn, task)
        except (BrokenExecutor, RuntimeError, OSError):
            self._broken = True
            return _immediate(fn, task)

    def resolve(
        self,
        future: "Future[_ResultT]",
        fn: Callable[[_TaskT], _ResultT],
        task: _TaskT,
    ) -> _ResultT:
        """Result of ``future``; re-runs the task inline if the pool died.

        Tasks are pure functions of their payloads, so an inline re-run
        after a worker crash returns exactly what the worker would have.
        """
        try:
            return future.result()
        except BrokenExecutor:
            self._broken = True
            return fn(task)

    def close(self) -> None:
        """Shut the executor down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
