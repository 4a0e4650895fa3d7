"""Pluggable execution backends for work units and the experiment grid.

Every backend implements the same contract (see
:class:`~repro.runtime.executors.base.Executor`): take a list of
work-unit payloads, return one outcome per payload in input order, with
bounded retries with backoff and cancellation.

* ``local`` -- serial, inline on the calling thread (the reference
  backend); it takes only the retry policy;
* ``subprocess`` -- persistent ``repro-eval worker`` child processes
  behind an arbitrary command prefix (the SSH-shaped seam); the one
  parallel backend, and the one that takes a per-unit ``timeout_s``,
  because it can kill a worker whose unit overruns.

:data:`EXECUTORS` maps the ``--executor`` names to the classes, and
:func:`choose_executor` picks one for a run. Any backend can be wrapped
in a :class:`~repro.runtime.faults.FaultyExecutor` to run under a
declarative :class:`~repro.runtime.faults.FaultPlan`; error
classification lives in :mod:`repro.runtime.health`.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Type

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

#: Executor classes by their ``--executor`` name.
EXECUTORS: Dict[str, Type[Executor]] = {
    LocalExecutor.name: LocalExecutor,
    SubprocessExecutor.name: SubprocessExecutor,
}


def workers_are_profitable(workers: int, pending_tasks: int) -> bool:
    """Whether fanning ``pending_tasks`` over ``workers`` processes can pay off.

    Not on one core (the seed benchmark measured a 0.94x "speedup" there)
    and not for fewer than two units: workers would only add start-up cost.
    """
    return workers > 1 and pending_tasks >= 2 and (os.cpu_count() or 1) > 1


def choose_executor(
    name: Optional[str],
    *,
    workers: int,
    pending: int,
    timeout_s: Optional[float] = None,
    retries: int = 0,
) -> Executor:
    """The executor for a run of ``pending`` units, which the caller closes.

    A named executor is used as named (``local`` takes no timeout: an
    in-process unit cannot be stopped). With no name, ``subprocess`` runs
    the units when a timeout is set or its workers pay off, else ``local``.
    """
    if name is None:
        wanted = timeout_s is not None or workers_are_profitable(workers, pending)
        name = SubprocessExecutor.name if wanted else LocalExecutor.name
    if name == SubprocessExecutor.name:
        return SubprocessExecutor(workers, timeout_s=timeout_s, retries=retries)
    if name == LocalExecutor.name and timeout_s is None:
        return LocalExecutor(retries=retries)
    if name == LocalExecutor.name:
        raise ConfigurationError("a timeout needs worker processes, not the local executor")
    raise ConfigurationError(f"unknown executor {name!r}; known: {', '.join(sorted(EXECUTORS))}")


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
    "choose_executor",
    "workers_are_profitable",
]
