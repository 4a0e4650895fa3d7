"""The executor protocol: batched work-unit execution with a shared contract.

Every executor takes a list of work-unit payloads (see
:mod:`repro.runtime.jobs`) and returns one :class:`UnitOutcome` per
payload **in input order**, regardless of completion order. The base
class owns the retry policy and cancellation so every backend behaves
identically:

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

The base class also drains the units: slot 0 on the calling thread and
each further slot of ``workers`` on a thread of its own, every slot
running one unit at a time through the backend's ``_attempt``. Process
options belong to the backend that owns processes: only
:class:`~repro.runtime.executors.subprocess.SubprocessExecutor` takes
``workers`` and a per-unit ``timeout_s``, because only a worker process
can be killed when its unit overruns.
:class:`~repro.runtime.executors.local.LocalExecutor` runs one unit at a
time, inline on the calling thread. An executor is a context manager:
what it holds between runs lives until :meth:`Executor.close`.
"""

from __future__ import annotations

import random
import threading
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

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
            process (the in-process executor); across a process boundary
            a :class:`WorkerError` carrying the worker's traceback.
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

    Subclasses implement ``_attempt`` (one attempt of one unit on one
    slot); :meth:`run_units` here keeps the ordering, retry arithmetic and
    cancellation semantics identical across backends (the conformance
    suite in ``tests/test_executors.py`` asserts this).

    Args:
        retries: Extra attempts after a failed/timed-out attempt.
        backoff_s: Base of the exponential inter-attempt backoff cap.
        seed: Seed for the backoff RNG; ``None`` draws entropy (tests pin
            a seed to make retry schedules reproducible).
    """

    name = "base"
    #: Units one run executes at once (the job store's claim-wave size).
    workers = 1

    def __init__(
        self,
        *,
        retries: int = 0,
        backoff_s: float = 0.05,
        seed: Optional[int] = None,
    ):
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

    def close(self) -> None:
        """Release what the executor holds between runs (nothing here)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

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

    def _run_with_retries(self, slot: int, payload: Dict[str, Any]) -> UnitOutcome:
        """Drive one unit's attempt/retry loop on ``slot`` to a final outcome.

        Permanent failures (see :mod:`repro.runtime.health`) return after
        the first attempt -- retrying a bad spec or a missing import burns
        the budget without changing the answer.
        """
        attempts = 0
        while True:
            if self.cancelled():
                return UnitOutcome(status=OUTCOME_CANCELLED, attempts=attempts)
            attempts += 1
            outcome = self._attempt(slot, payload)
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
        self._cancel_event.clear()  # a fresh run starts uncancelled
        outcomes = [UnitOutcome(status=OUTCOME_CANCELLED) for _ in payloads]
        queue = deque(range(len(payloads)))
        failed = threading.Event()
        lock = threading.Lock()

        def drain(slot: int) -> None:
            while True:
                with lock:
                    if self.cancelled() or (stop_on_error and failed.is_set()) or not queue:
                        return
                    index = queue.popleft()
                outcomes[index] = self._run_with_retries(slot, payloads[index])
                if outcomes[index].status not in (OUTCOME_OK, OUTCOME_CANCELLED):
                    failed.set()

        threads = [
            threading.Thread(target=drain, args=(slot,), daemon=True, name=f"repro-exec-{slot}")
            for slot in range(1, min(self.workers, len(payloads)))
        ]
        for thread in threads:
            thread.start()
        try:
            drain(0)
        except BaseException:
            self.cancel()  # an interrupt (Ctrl-C) stops every slot before it unwinds
            raise
        finally:
            for thread in threads:
                thread.join()
        return outcomes

    def _attempt(self, slot: int, payload: Dict[str, Any]) -> UnitOutcome:
        """Run one attempt of ``payload`` on ``slot`` (the backend's part)."""
        raise NotImplementedError
