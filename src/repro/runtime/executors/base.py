"""The executor protocol: batched work-unit execution with a shared contract.

Every executor takes a list of work-unit payloads (see
:mod:`repro.runtime.jobs`) and returns one :class:`UnitOutcome` per
payload **in input order**, regardless of completion order. The base
class owns the policy knobs so every backend behaves identically:

* ``timeout_s`` -- per-unit wall-clock cap; an expired unit reports
  ``"timeout"`` (and, where the backend owns a process, the worker is
  killed and respawned);
* ``retries`` -- extra attempts after a failed or timed-out attempt, with
  exponentially-growing full-jitter backoff: attempt ``n`` waits a uniform
  draw from ``[0, cap]`` where ``cap = backoff_s * 2**(n-1)``. Jitter
  keeps the retry storm after a killed wave from hammering the job store
  in lockstep; ``seed`` pins the draws for deterministic tests. Failures
  classified *permanent* by :func:`repro.runtime.health.classify_error`
  (bad spec, import errors) skip the retry loop entirely -- no backoff,
  no extra attempts -- and every final outcome carries its
  ``classification``;
* ``cancel()`` -- callable from any thread; units not yet finished report
  ``"cancelled"`` and are left claimable by the job store;
* ``stop_on_error`` -- per-run flag: after the first unit exhausts its
  retries, outstanding units are cancelled instead of executed.

Backends: :class:`~repro.runtime.executors.local.LocalExecutor` (serial,
in process), :class:`~repro.runtime.executors.pool.PoolExecutor` (the
process pool extracted from the old ``ExperimentRunner._run_parallel``),
and :class:`~repro.runtime.executors.subprocess.SubprocessExecutor`
(persistent ``repro-eval worker`` children behind an arbitrary command
prefix -- the SSH-shaped seam).
"""

from __future__ import annotations

import random
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ...errors import CapstanError
from ..health import PERMANENT, classify_error

#: Unit-outcome statuses.
OUTCOME_OK = "ok"
OUTCOME_ERROR = "error"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_CANCELLED = "cancelled"


class WorkerError(CapstanError):
    """A unit failed in a worker whose exception object is unavailable.

    Carries the worker-side formatted traceback so the failure site stays
    visible across the process (or machine) boundary.
    """

    def __init__(self, message: str, traceback_text: Optional[str] = None):
        super().__init__(message)
        self.traceback_text = traceback_text

    def __str__(self) -> str:
        base = super().__str__()
        if self.traceback_text:
            return f"{base}\n{self.traceback_text}"
        return base


@dataclass
class UnitOutcome:
    """What happened to one work unit.

    Attributes:
        status: ``"ok"``, ``"error"``, ``"timeout"``, or ``"cancelled"``.
        result: The unit's native result (``None`` unless ok).
        error: One-line failure summary (``None`` when ok/cancelled).
        traceback: Full traceback text of the failing attempt, when known.
        exception: The exception object itself, when it exists in this
            process (in-process executors; pool failures that unpickle).
        duration_s: Wall time of the last attempt.
        attempts: Attempts consumed (0 for units cancelled before starting).
        classification: ``"transient"`` or ``"permanent"`` for failed
            outcomes (see :mod:`repro.runtime.health`); ``None`` when ok
            or cancelled.
    """

    status: str
    result: Any = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    exception: Optional[BaseException] = None
    duration_s: float = 0.0
    attempts: int = 0
    classification: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == OUTCOME_OK


def outcome_from_exception(
    exc: BaseException, duration_s: float, traceback_text: Optional[str] = None
) -> UnitOutcome:
    """Build an error outcome from a caught exception."""
    summary = traceback.format_exception_only(type(exc), exc)[-1].strip()
    return UnitOutcome(
        status=OUTCOME_ERROR,
        error=summary,
        traceback=traceback_text,
        exception=exc,
        duration_s=duration_s,
    )


class Executor:
    """Base class implementing the shared retry/backoff/cancel contract.

    Subclasses implement :meth:`run_units`; the helpers here keep the
    retry arithmetic and cancellation semantics identical across backends
    (the conformance suite in ``tests/test_executors.py`` asserts this).

    Args:
        workers: Degree of parallelism the backend may use.
        timeout_s: Per-unit attempt cap in seconds (``None`` = unlimited).
        retries: Extra attempts after a failed/timed-out attempt.
        backoff_s: Base of the exponential inter-attempt backoff cap.
        seed: Seed for the backoff RNG; ``None`` draws entropy (tests pin
            a seed to make retry schedules reproducible).
    """

    name = "base"

    def __init__(
        self,
        workers: int = 1,
        *,
        timeout_s: Optional[float] = None,
        retries: int = 0,
        backoff_s: float = 0.05,
        seed: Optional[int] = None,
    ):
        self.workers = max(1, int(workers))
        self.timeout_s = timeout_s
        self.retries = max(0, int(retries))
        self.backoff_s = max(0.0, float(backoff_s))
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        self._cancel_event = threading.Event()

    # ----------------------------------------------------------- control

    def cancel(self) -> None:
        """Request cancellation (thread-safe; unfinished units report it)."""
        self._cancel_event.set()

    def cancelled(self) -> bool:
        return self._cancel_event.is_set()

    def _begin_run(self) -> None:
        """Reset per-run state (a fresh run starts uncancelled)."""
        self._cancel_event.clear()

    # ----------------------------------------------------------- helpers

    def _backoff_delay(self, attempt: int) -> float:
        """The full-jitter backoff delay after failed ``attempt`` (1-based)."""
        cap = self.backoff_s * (2 ** (attempt - 1))
        if cap <= 0:
            return cap
        with self._rng_lock:
            return self._rng.uniform(0.0, cap)

    def _backoff(self, attempt: int) -> None:
        """Sleep the jittered backoff after failed ``attempt`` (1-based)."""
        delay = self._backoff_delay(attempt)
        if delay > 0:
            # Wake early on cancel instead of sleeping through it.
            self._cancel_event.wait(delay)

    def classify_outcome(self, outcome: UnitOutcome) -> Optional[str]:
        """Classification for a failed outcome (None when ok/cancelled)."""
        if outcome.status in (OUTCOME_OK, OUTCOME_CANCELLED):
            return None
        if outcome.status == OUTCOME_TIMEOUT:
            # A timeout says nothing about the spec; always worth a retry.
            return classify_error(None)
        return classify_error(
            outcome.exception if outcome.exception is not None else outcome.error
        )

    def _run_with_retries(self, attempt_once: Callable[[], UnitOutcome]) -> UnitOutcome:
        """Drive one unit's attempt/retry loop to a final outcome.

        Permanent failures (see :mod:`repro.runtime.health`) return after
        the first attempt -- retrying a bad spec or a missing import burns
        the budget without changing the answer.
        """
        attempts = 0
        while True:
            if self.cancelled():
                return UnitOutcome(status=OUTCOME_CANCELLED, attempts=attempts)
            attempts += 1
            outcome = attempt_once()
            outcome.attempts = attempts
            outcome.classification = self.classify_outcome(outcome)
            if outcome.status in (OUTCOME_OK, OUTCOME_CANCELLED):
                return outcome
            if outcome.classification == PERMANENT or attempts > self.retries:
                return outcome
            self._backoff(attempts)

    def run_units(
        self, payloads: List[Dict[str, Any]], *, stop_on_error: bool = False
    ) -> List[UnitOutcome]:
        """Execute the payloads; one outcome per payload, in input order."""
        raise NotImplementedError
