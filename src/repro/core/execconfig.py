"""The one execution configuration: the view-lifetime sanitizer.

The paper runs every algorithm under one fixed set-up (Section 4: same
pool, same page size, every algorithm cold), and so does this
reproduction: every join runs the batched kernels (:mod:`repro.core.
batch`) over one probe path per index.  What is left to configure is
a debugging mode, the view-lifetime sanitizer
(:mod:`repro.storage.sanitize`), and :class:`ExecConfig` carries it as
*one* configuration of a run rather than a piece of module state.  It
may not change a result or a page-I/O count, only wall time (the
execution matrix holds every ``JoinReport`` field-for-field equal
across it).

* the process default is parsed once from ``REPRO_SANITIZE`` at
  import; a malformed value is a :class:`ValueError`, never a silent
  fallback;
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

__all__ = ["ExecConfig", "current", "exec_scope"]

_TRUE = ("1", "true", "on", "yes")
_FALSE = ("0", "false", "off", "no")


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

    ``sanitize`` arms the view-lifetime sanitizer.
    """

    sanitize: bool = False

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
        raw = environ.get("REPRO_SANITIZE", "").strip()
        if raw:
            return cls(sanitize=_parse_switch("REPRO_SANITIZE", raw))
        return cls()


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

    ``exec_scope(sanitize=True)`` arms the sanitizer;
    ``exec_scope(task.exec)`` is how a worker adopts the configuration
    its task was built under.
    """
    chosen = (current() if cfg is None else cfg).override(**overrides)
    token = _current.set(chosen)
    try:
        yield chosen
    finally:
        _current.reset(token)
