"""Worker health tracking: error classification, windows, circuit breakers.

The retry loop treats every failure the same; fleets cannot afford to. A
unit that raises ``ModuleNotFoundError`` will raise it on every worker in
the fleet -- retrying it burns the attempt budget and the wall clock for
nothing. A worker that times out three units in a row is sick in a way its
next unit will not fix -- routing more work at it converts one bad process
into a stream of failed units. This module supplies the two discriminators
(after the provider health/fallback split in openharness):

* :func:`classify_error` -- *transient* failures (timeouts, crashed
  workers, flaky probes) earn retries with backoff; *permanent* failures
  (bad spec, unknown unit kind, import errors) skip the retry loop
  entirely and surface immediately.
* :class:`CircuitBreaker` + :class:`WorkerHealth` -- per-worker-slot
  rolling failure/latency windows feeding a closed -> open -> half-open
  breaker. The subprocess executor consults it before reusing a slot:
  an open breaker quarantines the slot (cooldown), then half-open lets
  one probe worker through; success closes the breaker, failure re-opens
  it. Sick workers get killed and replaced instead of poisoning every
  unit routed to them.

Classification must work across process boundaries, where the exception
object is gone and only a summary string (``"ExcName: message"``) or a
:class:`~repro.runtime.executors.base.WorkerError` with that summary
survives -- so classification is by exception *type name*, checked
against the full MRO in-process and against the summary's leading name
otherwise.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Tuple

#: Classification labels carried on ``UnitOutcome.classification``.
TRANSIENT = "transient"
PERMANENT = "permanent"

#: Exception type names whose failures no amount of retrying will fix:
#: the unit spec itself is bad, the code it names is missing, or the
#: fault plan explicitly asked for a permanent error.
PERMANENT_ERROR_NAMES = frozenset(
    {
        "UnitSpecError",
        "ConfigurationError",
        "FormatError",
        "ImportError",
        "ModuleNotFoundError",
        "AttributeError",
        "TypeError",
        "PermanentFaultInjected",
    }
)


def _names_from_summary(summary: str) -> Tuple[str, ...]:
    """The exception type name leading an ``"ExcName: message"`` summary."""
    head = summary.split(":", 1)[0].strip()
    # A bare type name is a single identifier; anything with spaces is
    # prose (e.g. "unit exceeded 5s timeout"), not a type name.
    if head and " " not in head:
        return (head.rsplit(".", 1)[-1],)
    return ()


def classify_error(error: object) -> str:
    """Classify an exception (or its summary string) as transient/permanent.

    Accepts a live exception (classified by its MRO, so subclasses of a
    permanent type inherit permanence), a ``WorkerError`` whose message
    leads with the original type name, or a bare summary string.
    """
    names: Tuple[str, ...]
    if isinstance(error, BaseException):
        names = tuple(klass.__name__ for klass in type(error).__mro__)
        # Worker-side failures come back as WorkerError("ExcName: ..."):
        # the interesting name is inside the message, not the MRO.
        message_names = _names_from_summary(str(error))
        names = names + message_names
    elif isinstance(error, str):
        names = _names_from_summary(error)
    else:
        names = ()
    if any(name in PERMANENT_ERROR_NAMES for name in names):
        return PERMANENT
    return TRANSIENT


# --------------------------------------------------------------- windows


class RollingWindow:
    """The last ``size`` (ok, duration_s) observations for one worker."""

    def __init__(self, size: int = 16):
        self.size = max(1, int(size))
        self._events: Deque[Tuple[bool, float]] = deque(maxlen=self.size)

    def record(self, ok: bool, duration_s: float) -> None:
        self._events.append((bool(ok), float(duration_s)))

    def __len__(self) -> int:
        return len(self._events)

    @property
    def failures(self) -> int:
        return sum(1 for ok, _ in self._events if not ok)

    @property
    def failure_rate(self) -> float:
        if not self._events:
            return 0.0
        return self.failures / len(self._events)

    @property
    def mean_duration_s(self) -> float:
        if not self._events:
            return 0.0
        return sum(duration for _, duration in self._events) / len(self._events)

    def clear(self) -> None:
        self._events.clear()


# -------------------------------------------------------- circuit breaker

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """A closed -> open -> half-open breaker over consecutive failures.

    Closed admits everything. ``failure_threshold`` consecutive failures
    open it; while open, :meth:`allow` refuses until ``cooldown_s`` has
    elapsed, then admits exactly one probe (half-open). The probe's
    success closes the breaker; its failure re-opens it for another
    cooldown.

    Args:
        failure_threshold: Consecutive failures that trip the breaker.
        cooldown_s: Quarantine length while open. The subprocess executor
            defaults this to 0 so a sick worker is *replaced* immediately
            rather than stalling the wave; a positive value spaces out
            respawns when the worker command itself is broken.
        clock: Injectable time source for tests.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown_s: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.failure_threshold = max(1, int(failure_threshold))
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.trips = 0  # lifetime open transitions, for reporting

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._state = CLOSED

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == HALF_OPEN or self._consecutive_failures >= self.failure_threshold:
                if self._state != OPEN:
                    self.trips += 1
                self._state = OPEN
                self._opened_at = self._clock()

    def allow(self) -> bool:
        """Whether a request may proceed now (may transition to half-open)."""
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN:
                # One probe is already in flight; hold further requests.
                return False
            if self._clock() - self._opened_at >= self.cooldown_s:
                self._state = HALF_OPEN
                return True
            return False


# ------------------------------------------------------- per-slot health


@dataclass
class WorkerHealth:
    """Rolling stats and breaker for one worker slot."""

    slot: int
    window: RollingWindow = field(default_factory=RollingWindow)
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    launched: int = 0
    replaced: int = 0

    def record(self, ok: bool, duration_s: float) -> None:
        self.window.record(ok, duration_s)
        if ok:
            self.breaker.record_success()
        else:
            self.breaker.record_failure()

    def note_spawn(self) -> None:
        self.launched += 1
        if self.breaker.state != CLOSED:
            # Spawning while not closed replaces a quarantined worker.
            self.replaced += 1

    def snapshot(self) -> Dict[str, object]:
        return {
            "slot": self.slot,
            "state": self.breaker.state,
            "launched": self.launched,
            "replaced": self.replaced,
            "trips": self.breaker.trips,
            "window": len(self.window),
            "failures": self.window.failures,
            "failure_rate": round(self.window.failure_rate, 4),
            "mean_duration_s": round(self.window.mean_duration_s, 6),
        }


class HealthRegistry:
    """Thread-safe map of worker slot -> :class:`WorkerHealth`."""

    def __init__(
        self,
        *,
        window: int = 16,
        failure_threshold: int = 3,
        cooldown_s: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._window = window
        self._failure_threshold = failure_threshold
        self._cooldown_s = cooldown_s
        self._clock = clock
        self._slots: Dict[int, WorkerHealth] = {}
        self._lock = threading.Lock()

    def slot(self, index: int) -> WorkerHealth:
        with self._lock:
            health = self._slots.get(index)
            if health is None:
                health = WorkerHealth(
                    slot=index,
                    window=RollingWindow(self._window),
                    breaker=CircuitBreaker(
                        failure_threshold=self._failure_threshold,
                        cooldown_s=self._cooldown_s,
                        clock=self._clock,
                    ),
                )
                self._slots[index] = health
            return health

    def report(self) -> Dict[int, Dict[str, object]]:
        with self._lock:
            return {index: health.snapshot() for index, health in sorted(self._slots.items())}
