"""Pluggable execution backends for work units and the experiment grid.

Every backend implements the same contract (see
:class:`~repro.runtime.executors.base.Executor`): take a list of
work-unit payloads, return one outcome per payload in input order, with
shared per-unit timeout, bounded retries with backoff, and cancellation.

* ``local`` -- serial, in process (the reference backend);
* ``subprocess`` -- persistent ``repro-eval worker`` child processes
  behind an arbitrary command prefix (the SSH-shaped seam); the one
  parallel backend, and the only one that kills a timed-out unit.

:func:`create_executor` is the factory the runner, DSE, CLI, and serve
layers use to resolve an executor name. Any backend can be wrapped in a
:class:`~repro.runtime.faults.FaultyExecutor` to run under a declarative
:class:`~repro.runtime.faults.FaultPlan`; error classification lives in
:mod:`repro.runtime.health`.
"""

from __future__ import annotations

from typing import Any, Dict, Type

from ...errors import ConfigurationError
from .base import (
    OUTCOME_CANCELLED,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    Executor,
    UnitOutcome,
    WorkerError,
)
from .local import LocalExecutor
from .subprocess import SubprocessExecutor

#: Executor classes by CLI/serve-facing name.
EXECUTORS: Dict[str, Type[Executor]] = {
    LocalExecutor.name: LocalExecutor,
    SubprocessExecutor.name: SubprocessExecutor,
}


def create_executor(name: str, **options: Any) -> Executor:
    """Instantiate the named executor (``local``/``subprocess``).

    Keyword options are forwarded to the constructor (``workers``,
    ``timeout_s``, ``retries``, ``backoff_s``, ``seed``, and for
    ``subprocess`` also ``command``).
    """
    try:
        factory = EXECUTORS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown executor {name!r}; known: {', '.join(sorted(EXECUTORS))}"
        ) from None
    return factory(**options)


__all__ = [
    "EXECUTORS",
    "Executor",
    "LocalExecutor",
    "OUTCOME_CANCELLED",
    "OUTCOME_ERROR",
    "OUTCOME_OK",
    "OUTCOME_TIMEOUT",
    "SubprocessExecutor",
    "UnitOutcome",
    "WorkerError",
    "create_executor",
]
