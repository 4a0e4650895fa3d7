"""Parallel, cached execution of the (application x dataset) grid.

:class:`ExperimentRunner` turns the registry's specs into a task grid,
satisfies what it can from the on-disk profile cache, fans the remaining
functional runs out over a pluggable executor (see
:mod:`repro.runtime.executors`), and returns a :class:`RunReport` of
structured per-task results in deterministic (registry) order --
independent of completion order, worker count, executor, or cache state.
"""

from __future__ import annotations

import os
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import ContextManager, Dict, List, Optional, Sequence, Tuple, Union

from ..apps.profile import WorkloadProfile
from . import registry
from .cache import ProfileCache, cache_enabled
from .executors import Executor, UnitOutcome, choose_executor
from .executors.base import OUTCOME_ERROR, OUTCOME_OK, OUTCOME_TIMEOUT, WorkerError
from .jobs import context_to_dict
from .registry import RunContext

#: Task states a :class:`TaskResult` can report.
STATUS_OK = "ok"
STATUS_CACHED = "cached"
STATUS_ERROR = "error"


@dataclass
class TaskResult:
    """Outcome of one (application, dataset) evaluation task.

    Attributes:
        app: Application name.
        dataset: Dataset name.
        status: ``"ok"`` (executed), ``"cached"`` (served from the profile
            cache), or ``"error"``.
        duration_s: Wall time spent on this task; for cache hits this is
            the measured cache-lookup time, so profiling a warm run shows
            where its (small) time actually goes.
        profile: The collected profile (``None`` on error).
        error: One-line error description (``None`` unless failed).
        classification: For failures, ``"transient"`` or ``"permanent"``
            (:mod:`repro.runtime.health`) -- callers deciding whether a
            retry is worthwhile read this instead of re-parsing ``error``.
    """

    app: str
    dataset: str
    status: str
    duration_s: float = 0.0
    profile: Optional[WorkloadProfile] = None
    error: Optional[str] = None
    classification: Optional[str] = None


@dataclass
class RunReport:
    """All task results of one runner invocation, in registry order."""

    context: RunContext
    results: List[TaskResult] = field(default_factory=list)
    workers: int = 1
    wall_time_s: float = 0.0
    executor: str = "local"

    def profiles(self) -> List[WorkloadProfile]:
        """Successful profiles in registry order (failed tasks skipped)."""
        return [r.profile for r in self.results if r.profile is not None]

    def errors(self) -> List[TaskResult]:
        """The failed tasks, if any."""
        return [r for r in self.results if r.status == STATUS_ERROR]

    def executed_count(self) -> int:
        """Tasks that ran functionally (cache misses)."""
        return sum(1 for r in self.results if r.status == STATUS_OK)

    def cached_count(self) -> int:
        """Tasks served from the profile cache."""
        return sum(1 for r in self.results if r.status == STATUS_CACHED)


class _RemoteTraceback(Exception):
    """Carries a worker's formatted traceback across the process boundary."""

    def __init__(self, text: str):
        super().__init__(text)
        self.text = text

    def __str__(self) -> str:
        return f"\n{self.text}"


#: One warning per process for a bad REPRO_EVAL_WORKERS, not one per call.
_warned_bad_workers = False


def default_workers() -> int:
    """Worker count from ``REPRO_EVAL_WORKERS`` (default: serial).

    An unparseable value falls back to serial with a (once per process)
    warning -- a silently ignored ``REPRO_EVAL_WORKERS=8x`` otherwise looks
    exactly like a slow machine.
    """
    global _warned_bad_workers
    raw = os.environ.get("REPRO_EVAL_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        if not _warned_bad_workers:
            _warned_bad_workers = True
            warnings.warn(
                f"ignoring unparseable REPRO_EVAL_WORKERS={raw!r}; running serial",
                RuntimeWarning,
                stacklevel=2,
            )
        return 1


class ExperimentRunner:
    """Runs registered applications over their datasets, cached and parallel.

    The runner is a thin client of the executor layer: it plans the grid,
    serves cache hits, and hands the pending cells to an executor as
    ``profile`` work units (the same payloads ``repro-eval worker``
    executes remotely).

    Args:
        context: Run parameters shared by every task.
        workers: Parallelism; ``1`` runs serially in-process and ``None``
            reads ``REPRO_EVAL_WORKERS`` (default serial). Even with
            ``workers > 1`` the default executor falls back to serial when
            the machine has a single core or too few tasks are pending for
            worker processes to pay off (see
            :func:`~repro.runtime.executors.choose_executor`).
        cache: ``True`` (default) uses the default on-disk profile cache,
            ``False``/``None`` disables caching, or pass a
            :class:`ProfileCache` instance. The
            ``REPRO_PROFILE_CACHE_DISABLE`` kill switch overrides ``True``.
        raise_on_error: Re-raise the first task failure (default). When
            ``False``, failures are reported as ``"error"`` task results.
        executor: ``None`` picks per run: ``workers`` ``repro-eval
            worker`` subprocesses when they pay off, else serial in
            process; ``"subprocess"`` always runs ``workers`` worker
            processes and ``"local"`` always runs serially in process. A
            run closes the executor it builds. Or pass a configured
            :class:`~repro.runtime.executors.base.Executor` instance,
            which the caller closes.
    """

    def __init__(
        self,
        context: Optional[RunContext] = None,
        workers: Optional[int] = None,
        cache: Union[ProfileCache, bool, None] = True,
        raise_on_error: bool = True,
        executor: Union[str, Executor, None] = None,
    ):
        self.context = context or RunContext()
        self.workers = default_workers() if workers is None else max(1, int(workers))
        if cache is True:
            self.cache: Optional[ProfileCache] = ProfileCache() if cache_enabled() else None
        elif cache is False or cache is None:
            self.cache = None
        else:
            self.cache = cache
        self.raise_on_error = raise_on_error
        self.executor = executor

    def tasks(self, apps: Optional[Sequence[str]] = None) -> List[Tuple[str, str]]:
        """The (app, dataset) grid in deterministic registry order."""
        names = list(apps) if apps is not None else list(registry.app_order())
        grid: List[Tuple[str, str]] = []
        for name in names:
            spec = registry.get_spec(name)
            grid.extend((name, dataset) for dataset in spec.datasets)
        return grid

    def run(self, apps: Optional[Sequence[str]] = None) -> RunReport:
        """Evaluate the grid and return per-task results in grid order."""
        started = time.perf_counter()
        grid = self.tasks(apps)
        results: Dict[Tuple[str, str], TaskResult] = {}

        pending: List[Tuple[str, str]] = []
        for app, dataset in grid:
            lookup_started = time.perf_counter()
            cached = self._load_cached(app, dataset)
            if cached is not None:
                results[(app, dataset)] = TaskResult(
                    app=app,
                    dataset=dataset,
                    status=STATUS_CACHED,
                    duration_s=time.perf_counter() - lookup_started,
                    profile=cached,
                )
            else:
                pending.append((app, dataset))

        if isinstance(self.executor, Executor):
            held: ContextManager[Executor] = nullcontext(self.executor)
        else:
            held = choose_executor(self.executor, workers=self.workers, pending=len(pending))
        with held as executor:
            if pending:
                context_dict = context_to_dict(self.context)
                payloads = [
                    # cache=False: the runner owns caching through self.cache
                    # (possibly a custom instance), so units run bare.
                    {"kind": "profile", "app": app, "dataset": dataset,
                     "context": context_dict, "cache": False}
                    for app, dataset in pending
                ]
                outcomes = executor.run_units(payloads, stop_on_error=self.raise_on_error)
                if self.raise_on_error:
                    # Surface the actual failure, not a unit that merely got
                    # cancelled in its wake (stop_on_error cancels the rest).
                    for (app, dataset), outcome in zip(pending, outcomes):
                        if outcome.status in (OUTCOME_ERROR, OUTCOME_TIMEOUT):
                            raise self._failure_exception(app, dataset, outcome)
                for (app, dataset), outcome in zip(pending, outcomes):
                    self._record(app, dataset, outcome, results)

        return RunReport(
            context=self.context,
            results=[results[task] for task in grid],
            workers=self.workers,
            wall_time_s=time.perf_counter() - started,
            executor=executor.name,
        )

    def _key(self, app: str, dataset: str) -> str:
        return self.cache.key(app, dataset, self.context)

    def _load_cached(self, app: str, dataset: str) -> Optional[WorkloadProfile]:
        if self.cache is None:
            return None
        return self.cache.load(self._key(app, dataset))

    def _record(
        self,
        app: str,
        dataset: str,
        outcome: UnitOutcome,
        results: Dict[Tuple[str, str], TaskResult],
    ) -> None:
        """Turn one unit outcome into a TaskResult (raising if configured)."""
        if outcome.status != OUTCOME_OK:
            if self.raise_on_error:
                raise self._failure_exception(app, dataset, outcome)
            error = outcome.error or outcome.status
            results[(app, dataset)] = TaskResult(
                app=app,
                dataset=dataset,
                status=STATUS_ERROR,
                duration_s=outcome.duration_s,
                error=error,
                classification=outcome.classification,
            )
            return
        profile = outcome.result
        if self.cache is not None:
            self.cache.store(self._key(app, dataset), profile)
        results[(app, dataset)] = TaskResult(
            app=app,
            dataset=dataset,
            status=STATUS_OK,
            duration_s=outcome.duration_s,
            profile=profile,
        )

    @staticmethod
    def _failure_exception(app: str, dataset: str, outcome: UnitOutcome) -> BaseException:
        """The exception to re-raise for a failed unit.

        Prefers the original exception object; when it crossed a process
        boundary the worker-side traceback is chained so the failure site
        stays visible.
        """
        exc = outcome.exception
        if exc is None:
            return WorkerError(
                f"{app}/{dataset} failed: {outcome.error or outcome.status}",
                outcome.traceback,
            )
        if exc.__traceback__ is None and outcome.traceback:
            exc.__cause__ = _RemoteTraceback(outcome.traceback)
        return exc
