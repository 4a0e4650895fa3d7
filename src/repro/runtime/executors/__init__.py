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

:data:`EXECUTORS` maps the ``--executor`` names to the classes. Any
backend can be wrapped in a :class:`~repro.runtime.faults.FaultyExecutor`
to run under a declarative :class:`~repro.runtime.faults.FaultPlan`;
error classification lives in :mod:`repro.runtime.health`.
"""

from __future__ import annotations

from typing import Dict, Type

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
]
