"""Deterministic fault injection for the executor/job/serve stack.

Fleets fail in ways unit tests rarely exercise: workers crash mid-unit,
hang forever, emit garbage on the protocol channel, or come up slowly.
This module makes those failures *injectable, declarative, and seeded* so
the chaos suite (``tests/test_chaos.py``) and CI's ``chaos-smoke`` job can
assert the stack's invariants -- no lost or double-committed work units,
byte-identical cache output versus a fault-free run, bounded attempt
counts -- under every failure mode the hardening claims to survive.

A :class:`FaultPlan` is a list of :class:`Fault` entries plus a seed and a
``state_dir``. Each fault names a *kind*, what it matches (a payload
subset and/or the ordinal of the matched unit), and how many ``times`` it
may fire. Firings are recorded as marker files under ``state_dir`` so a
fault stays bounded across worker respawns and process boundaries -- the
same idiom the probe unit uses for attempt accounting. Kinds:

=================  ==========================================================
``crash``          ``os._exit(exit_code)`` at unit start (process-isolated
                   backends only: a crash in the local executor kills the
                   caller).
``hang``           Sleep ``delay_s`` (default far past any timeout) at unit
                   start; the subprocess executor's hard timeout kills it.
``error``          Raise :class:`FaultInjected` (transient) or
                   :class:`PermanentFaultInjected` (``permanent=true``).
``slow``           Sleep ``delay_s`` at unit start, then run normally.
``malformed_line``  The ``repro-eval worker`` loop answers with a non-JSON
                   line instead of the response.
``truncated_line``  The worker writes half the response bytes, no newline,
                   and exits -- a torn write from a dying process.
``slow_start``     The worker sleeps ``delay_s`` before its first request
                   (exercises the warmup-vs-unit-timeout split).
``exit_mid_wave``  :class:`FaultyExecutor` calls ``os._exit`` after a wave
                   executes but *before* the job store commits it -- the
                   driver dying mid-wave (``unit_index`` = wave ordinal).
=================  ==========================================================

Injection reaches any backend through two seams: in-process,
:func:`install_plan` (or :class:`FaultyExecutor`, which installs around
each ``run_units`` call); across process boundaries, the
``REPRO_FAULT_PLAN`` environment variable carrying ``plan.to_json()``,
which ``repro-eval worker`` subprocesses inherit and read.
:func:`inject_unit_fault` is called by
:func:`repro.runtime.jobs.execute_unit` -- the single entry point every
executor drives -- so unit-level faults hit all backends identically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import CapstanError, ConfigurationError

#: Environment variable carrying ``FaultPlan.to_json()`` across processes.
ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"

#: Kinds injected at unit-execution time (reaches every backend).
UNIT_FAULT_KINDS = ("crash", "hang", "error", "slow")
#: Kinds injected into the worker's JSON-lines protocol (subprocess backend).
PROTOCOL_FAULT_KINDS = ("malformed_line", "truncated_line")
#: Kinds applied at worker-process startup.
STARTUP_FAULT_KINDS = ("slow_start",)
#: Kinds applied by :class:`FaultyExecutor` around whole waves.
WAVE_FAULT_KINDS = ("exit_mid_wave",)

FAULT_KINDS = (
    UNIT_FAULT_KINDS + PROTOCOL_FAULT_KINDS + STARTUP_FAULT_KINDS + WAVE_FAULT_KINDS
)

#: A ``hang`` sleeps this long when the fault gives no ``delay_s`` -- far
#: past any sane unit timeout, well short of forever (suites must end).
DEFAULT_HANG_S = 3600.0


class FaultPlanError(CapstanError):
    """Raised for malformed fault plans (unknown kinds, bad JSON)."""


class FaultInjected(CapstanError):
    """The error an ``error`` fault raises; classified *transient*."""


class PermanentFaultInjected(FaultInjected):
    """An ``error`` fault with ``permanent=true``; classified *permanent*."""


@dataclasses.dataclass(frozen=True)
class Fault:
    """One declarative fault.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        match: Payload subset that must match for the fault to arm (e.g.
            ``{"value": 3}`` or ``{"dataset": "wikipedia"}``); empty
            matches every payload.
        unit_index: Arm only on the Nth (0-based) *matched* unit seen by
            this process -- "crash on unit 2"; a subprocess worker serves
            every wave of its executor, so the count spans waves. For
            ``exit_mid_wave`` this counts waves instead of units.
        times: Total firings allowed (bounded across respawns via the
            plan's ``state_dir`` markers).
        probability: Chance of firing once armed, decided by a hash of
            ``(seed, fault, ordinal)`` -- deterministic in every process.
        delay_s: Sleep length for ``hang``/``slow``/``slow_start``.
        exit_code: Process exit code for ``crash``/``truncated_line``/
            ``exit_mid_wave``.
        permanent: For ``error``: raise the permanently-classified
            exception, exercising the skip-retries path.
    """

    kind: str
    match: Dict[str, Any] = dataclasses.field(default_factory=dict)
    unit_index: Optional[int] = None
    times: int = 1
    probability: float = 1.0
    delay_s: float = 0.0
    exit_code: int = 17
    permanent: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )

    def matches(self, payload: Dict[str, Any]) -> bool:
        """Whether every ``match`` item equals the payload's value."""
        return all(payload.get(key) == value for key, value in self.match.items())

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class FaultPlan:
    """A seeded, declarative set of faults with persistent firing accounting.

    Args:
        faults: The :class:`Fault` entries, checked in order.
        seed: Drives the deterministic ``probability`` draws.
        state_dir: Directory for firing markers; without one, accounting is
            in-memory only (fine for single-process injection, required for
            bounded faults across worker respawns).
    """

    def __init__(
        self,
        faults: List[Fault],
        *,
        seed: int = 0,
        state_dir: Optional[str] = None,
    ):
        self.faults = list(faults)
        self.seed = int(seed)
        self.state_dir = str(state_dir) if state_dir else None
        self._seen: Dict[int, int] = {}
        self._fired: Dict[int, int] = {}
        self._lock = threading.Lock()

    # -------------------------------------------------------- serialization

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "state_dir": self.state_dir,
                "faults": [fault.to_dict() for fault in self.faults],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
            faults = [Fault(**entry) for entry in data.get("faults", [])]
            return cls(
                faults,
                seed=data.get("seed", 0),
                state_dir=data.get("state_dir"),
            )
        except (ValueError, TypeError) as exc:
            raise FaultPlanError(f"bad fault plan JSON: {exc}") from None

    # ------------------------------------------------------------- firing

    def _chance(self, fault_index: int, ordinal: int) -> float:
        material = f"{self.seed}:{fault_index}:{ordinal}".encode()
        digest = hashlib.sha256(material).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def _record_firing(self, fault_index: int, fault: Fault) -> bool:
        """Try to consume one firing of ``fault``; False when exhausted."""
        if self.state_dir is None:
            count = self._fired.get(fault_index, 0)
            if count >= fault.times:
                return False
            self._fired[fault_index] = count + 1
            return True
        root = Path(self.state_dir) / f"fault-{fault_index}"
        root.mkdir(parents=True, exist_ok=True)
        if len(list(root.glob("fired-*"))) >= fault.times:
            return False
        (root / f"fired-{os.getpid()}-{time.monotonic_ns()}").write_text("")
        return True

    def take(
        self, kinds: Tuple[str, ...], payload: Optional[Dict[str, Any]] = None
    ) -> Optional[Fault]:
        """The first armed fault of ``kinds`` matching ``payload``, consumed.

        Matching a fault advances its per-process ordinal even when it does
        not fire, so ``unit_index`` means "the Nth matched unit this
        process executes" regardless of how many earlier units missed.
        """
        with self._lock:
            for index, fault in enumerate(self.faults):
                if fault.kind not in kinds:
                    continue
                if payload is not None and not fault.matches(payload):
                    continue
                ordinal = self._seen.get(index, 0)
                self._seen[index] = ordinal + 1
                if fault.unit_index is not None and ordinal != fault.unit_index:
                    continue
                if fault.probability < 1.0 and self._chance(index, ordinal) >= fault.probability:
                    continue
                if not self._record_firing(index, fault):
                    continue
                return fault
        return None

    @contextmanager
    def installed(self) -> Iterator["FaultPlan"]:
        """Install this plan in-process *and* in the environment seam.

        Installs may overlap, also across threads: the live ones form a
        stack whose newest entry is active, and each exit removes its own
        entry. Once every install has exited, the plan and
        ``REPRO_FAULT_PLAN`` from before the first one are back.
        """
        global _BASE
        entry = (object(), self)
        with _LIVE_LOCK:
            if not _LIVE:
                _BASE = (_INSTALLED, os.environ.get(ENV_FAULT_PLAN))
            _LIVE.append(entry)
            _expose_live()
        try:
            yield self
        finally:
            with _LIVE_LOCK:
                _LIVE.remove(entry)
                _expose_live()


# --------------------------------------------------------- the active plan

_INSTALLED: Optional[FaultPlan] = None
#: Live :meth:`FaultPlan.installed` entries, oldest first, and the plan and
#: environment text from before the oldest; guarded by ``_LIVE_LOCK``.
_LIVE: List[Tuple[object, FaultPlan]] = []
_BASE: Tuple[Optional[FaultPlan], Optional[str]] = (None, None)
_LIVE_LOCK = threading.Lock()
#: (raw env text, parsed plan) -- the parse is cached per raw string so the
#: plan object (and its in-memory ordinal state) survives across calls.
_ENV_CACHE: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def _expose_live() -> None:
    """Activate the newest live install, else what was there before the first."""
    global _INSTALLED
    if _LIVE:
        _INSTALLED, env = _LIVE[-1][1], _LIVE[-1][1].to_json()
    else:
        _INSTALLED, env = _BASE
    if env is None:
        os.environ.pop(ENV_FAULT_PLAN, None)
    else:
        os.environ[ENV_FAULT_PLAN] = env


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Set (or with ``None`` clear) the in-process active plan."""
    global _INSTALLED
    _INSTALLED = plan


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, else one parsed from ``REPRO_FAULT_PLAN``."""
    global _ENV_CACHE
    if _INSTALLED is not None:
        return _INSTALLED
    raw = os.environ.get(ENV_FAULT_PLAN)
    if not raw:
        return None
    cached_raw, cached_plan = _ENV_CACHE
    if raw != cached_raw:
        _ENV_CACHE = (raw, FaultPlan.from_json(raw))
    return _ENV_CACHE[1]


# ------------------------------------------------------- injection points


def inject_unit_fault(payload: Dict[str, Any]) -> None:
    """Apply any armed unit-level fault; called by ``execute_unit``."""
    plan = active_plan()
    if plan is None:
        return
    fault = plan.take(UNIT_FAULT_KINDS, payload)
    if fault is None:
        return
    if fault.kind == "crash":
        os._exit(fault.exit_code)
    if fault.kind == "hang":
        time.sleep(fault.delay_s or DEFAULT_HANG_S)
        return
    if fault.kind == "slow":
        time.sleep(fault.delay_s)
        return
    description = f"injected {fault.kind} fault for payload kind {payload.get('kind')!r}"
    if fault.permanent:
        raise PermanentFaultInjected(description)
    raise FaultInjected(description)


def take_protocol_fault(payload: Dict[str, Any]) -> Optional[Fault]:
    """An armed protocol fault for the worker loop to act on, if any."""
    plan = active_plan()
    if plan is None:
        return None
    return plan.take(PROTOCOL_FAULT_KINDS, payload)


def inject_startup_fault() -> None:
    """Apply any armed ``slow_start`` fault; called at worker startup."""
    plan = active_plan()
    if plan is None:
        return
    fault = plan.take(STARTUP_FAULT_KINDS, {})
    if fault is not None:
        time.sleep(fault.delay_s)


class FaultyExecutor:
    """Wrap any executor so its runs execute under a :class:`FaultPlan`.

    The plan is installed (in-process and via ``REPRO_FAULT_PLAN``) around
    every ``run_units`` call, so in-process units and freshly spawned
    ``repro-eval worker`` subprocesses both see it. After a
    wave returns -- and before the caller (``JobStore.run_job``) can commit
    it -- an armed ``exit_mid_wave`` fault kills this process, simulating a
    driver dying with executed-but-uncommitted work.

    Installing the plan would hide any other active plan (installed, or in
    ``REPRO_FAULT_PLAN``) from the units and the workers they spawn, so
    ``run_units`` refuses to run while one is active: put every fault in
    this executor's plan.

    Everything else (``workers``, ``timeout_s``, ``cancel``, ``close`` ...)
    delegates to the wrapped executor, so a ``FaultyExecutor`` drops into
    any seam an :class:`~repro.runtime.executors.base.Executor` fits (the
    ``with`` methods explicitly: Python looks dunders up on the class).
    """

    def __init__(self, inner: Any, plan: FaultPlan):
        self._inner = inner
        self.plan = plan

    @property
    def name(self) -> str:
        return f"faulty-{self._inner.name}"

    def __getattr__(self, attribute: str) -> Any:
        return getattr(self._inner, attribute)

    def __enter__(self) -> "FaultyExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._inner.close()

    def run_units(
        self, payloads: List[Dict[str, Any]], *, stop_on_error: bool = False
    ) -> List[Any]:
        active = active_plan()
        if active not in (None, self.plan) and active.to_json() != self.plan.to_json():
            raise ConfigurationError(
                f"another fault plan is active ({active.to_json()}); "
                "put its faults in this FaultyExecutor's plan"
            )
        with self.plan.installed():
            outcomes = self._inner.run_units(payloads, stop_on_error=stop_on_error)
        fault = self.plan.take(WAVE_FAULT_KINDS)
        if fault is not None:
            os._exit(fault.exit_code)
        return outcomes
