"""The one execution configuration: batch size, flat indexes, sanitizer.

The paper runs every algorithm under one fixed set-up (Section 4: same
pool, same page size, every algorithm cold); the three execution
switches this reproduction grew on top — the vectorized batch size
(:mod:`repro.core.batch`), flat-array static indexes
(:mod:`repro.index.flat`) and the view-lifetime sanitizer
(:mod:`repro.storage.sanitize`) — are likewise *one* configuration of a
run, not three independent pieces of module state.  :class:`ExecConfig`
is that configuration; none of its values may change a result or a
page-I/O count, only wall time (the differential suites hold every
``JoinReport`` field-for-field equal across it).

* the process default is parsed once from ``REPRO_BATCH_SIZE`` /
  ``REPRO_FLAT_INDEX`` / ``REPRO_SANITIZE`` at import; a malformed
  value is a :class:`ValueError`, never a silent fallback;
* :func:`exec_scope` pins a configuration for the calling *context*
  only (``contextvars``): threads and asyncio tasks each see their own,
  so one tenant's scope cannot flip another in-flight query's mode;
* there is no process-global mutator.  Worker processes do not share
  the parent's context, so a task that must run under the parent's
  configuration carries the (frozen, picklable) :class:`ExecConfig` as a
  field and the worker runs under ``exec_scope(task.exec)``.

Hot paths read the switch through :func:`current` — one
``ContextVar.get`` per check.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Any, Iterator, Mapping, Optional

__all__ = ["DEFAULT_BATCH_SIZE", "ExecConfig", "current", "exec_scope"]

#: Default element count per batch.  Chosen from the batch-size sweep in
#: ``benchmarks/bench_coding_micro.py``: per-element cost flattens out
#: between 256 and 1024, and 1024 covers a whole 1 KiB page of codes.
DEFAULT_BATCH_SIZE = 1024

_TRUE = ("1", "true", "on", "yes")
_FALSE = ("0", "false", "off", "no")


def _parse_size(name: str, raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(
            f"{name}={raw!r}: expected an integer >= 0 (0 = scalar oracle)"
        )
    return value


def _parse_switch(name: str, raw: str) -> bool:
    word = raw.lower()
    if word not in _TRUE + _FALSE:
        raise ValueError(
            f"{name}={raw!r}: expected one of {'/'.join(_TRUE)} "
            f"or {'/'.join(_FALSE)}"
        )
    return word in _TRUE


@dataclass(frozen=True)
class ExecConfig:
    """How a run executes — never *what* it computes or reads.

    ``batch_size`` is the element count per vectorized batch (0 selects
    the scalar differential oracle); ``flat_index`` makes on-the-fly
    index builds produce flat-array static indexes instead of the
    pointer oracle; ``sanitize`` arms the view-lifetime sanitizer.
    """

    batch_size: int = DEFAULT_BATCH_SIZE
    flat_index: bool = False
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.batch_size < 0:
            raise ValueError(f"batch size must be >= 0, got {self.batch_size}")

    def override(self, **changes: Any) -> "ExecConfig":
        """A copy with the given fields replaced; ``None`` keeps a field
        (so unset CLI flags and optional arguments pass straight through)."""
        kept = {name: value for name, value in changes.items() if value is not None}
        return replace(self, **kept) if kept else self

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "ExecConfig":
        """The configuration the ``REPRO_*`` variables describe.

        Unset or empty variables keep the defaults; anything else must
        parse, or the :class:`ValueError` names the variable and the
        accepted values — a typo like ``REPRO_SANITIZE=ture`` must fail
        the run, not silently leave it unsanitized.
        """
        if environ is None:
            environ = os.environ
        parsers = (
            ("batch_size", "REPRO_BATCH_SIZE", _parse_size),
            ("flat_index", "REPRO_FLAT_INDEX", _parse_switch),
            ("sanitize", "REPRO_SANITIZE", _parse_switch),
        )
        values: dict[str, Any] = {}
        for field_name, variable, parse in parsers:
            raw = environ.get(variable, "").strip()
            if raw:
                values[field_name] = parse(variable, raw)
        return cls(**values)


#: the process default is the context variable's default, so a context
#: with no scope active (a fresh thread, a worker process) sees it
_current: ContextVar[ExecConfig] = ContextVar(
    "repro_exec", default=ExecConfig.from_env()
)


#: ``current()`` is the configuration in force in the calling context
#: (bound directly to the variable's ``get``: readers sit on hot paths)
current = _current.get


@contextmanager
def exec_scope(
    cfg: Optional[ExecConfig] = None, **overrides: Any
) -> Iterator[ExecConfig]:
    """Pin ``cfg`` (default: the current configuration) with
    ``overrides`` applied, for the calling context only.

    ``exec_scope(batch_size=0)`` selects the scalar oracle and keeps the
    other two values; ``exec_scope(task.exec)`` is how a worker adopts
    the configuration its task was built under.
    """
    chosen = (current() if cfg is None else cfg).override(**overrides)
    token = _current.set(chosen)
    try:
        yield chosen
    finally:
        _current.reset(token)
