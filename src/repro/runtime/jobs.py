"""Sharded, resumable jobs over the experiment store.

A *job* is any task grid -- the (application x dataset) profile grid, a
design-space cross-product, or the table suite -- sharded into
content-addressed *work units* whose states persist in the SQLite run
store (:mod:`repro.runtime.runstore`, schema version 3). Each unit is a
self-contained JSON payload any worker can execute: in process, or in a
``repro-eval worker`` subprocess on this or another machine (see
:mod:`repro.runtime.executors`). The lifecycle::

    spec = JobSpec.profile_grid(apps=["spmv-csr", "bfs"], context=context)
    with JobStore() as store:
        job = store.submit(spec)            # idempotent: same spec -> same job
        store.run_job(job.id, executor)     # executes only non-done units

Because both the job spec key and every unit key hash the task
coordinates *and* the code fingerprint, a killed sweep resumes exactly:
``submit`` finds the existing job, ``run_job`` resets stale ``running``
units to ``pending`` and skips every ``done`` unit, so completed work is
never re-executed and the outputs (profile-cache entries written by the
workers) are byte-identical to a single-process run.

Claims are *leases* (schema v3): ``run_job`` claims each wave inside a
``BEGIN IMMEDIATE`` transaction, stamping ``lease_owner``
(``hostname:pid:token``) and ``lease_expires_at``, and a heartbeat
thread refreshes the stamp while the wave executes -- so two concurrent
``run_job`` processes on one job serialize at the claim and never
double-run a unit, while a dead claimant's leases are reclaimed on
resume (same-host pid liveness, or lease expiry for remote owners).
With ``max_attempts`` set, a unit that exhausts its budget -- or fails
*permanently* (see :mod:`repro.runtime.health`) -- is dead-lettered
(state ``dead``) instead of being re-claimed forever.

Unit kinds are pluggable via :func:`register_unit_kind`; the built-in
kinds are ``profile`` (one registry cell, served from / stored to the
content-addressed profile cache), ``throughput`` (one SpMU calibration
microbenchmark, persisted in the throughput store), ``dse_chunk`` (a
budget-planned slice of a sweep cross-product costed to gmean cycles and
area), ``table`` (one paper harness), and ``probe`` (a synthetic
unit used by the executor conformance tests and smoke sweeps).
"""

from __future__ import annotations

import dataclasses
import json
import os
import socket
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..config import SpMUConfig
from ..core.ordering import OrderingMode
from ..core.spmu import SpMUVariant, effective_bank_throughput_batch
from ..errors import CapstanError
from . import faults, registry
from .health import PERMANENT
from .cache import (
    ProfileCache,
    cache_enabled,
    code_fingerprint,
    content_key,
    profile_from_dict,
    profile_to_dict,
)
from .registry import RunContext
from .runstore import RunStore, _utc_now
from .sweep import axis_value_to_json, parse_axis_value

#: Work-unit states persisted in the ``work_units`` table. ``dead`` is the
#: dead-letter state: the unit exhausted ``max_attempts`` (or failed
#: permanently) and is no longer claimable on resume.
UNIT_PENDING = "pending"
UNIT_RUNNING = "running"
UNIT_DONE = "done"
UNIT_FAILED = "failed"
UNIT_DEAD = "dead"

#: Job states persisted in the ``jobs`` table.
JOB_PENDING = "pending"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

#: Default ceiling on variants per DSE work unit (resumability granularity
#: when no memory budget imposes a smaller chunk).
DEFAULT_DSE_CHUNK = 64

#: Default lease length for claimed units. A claimant heartbeats at a
#: third of this, so only a process dead (or frozen) for the full lease
#: loses its claim to another claimant.
DEFAULT_LEASE_S = 60.0


class JobError(CapstanError):
    """Raised for malformed job specs, unknown kinds, or missing jobs."""


class UnitSpecError(JobError):
    """A work unit that can never execute: unknown kind, malformed payload.

    Classified *permanent* by :func:`repro.runtime.health.classify_error`,
    so executors surface it immediately instead of burning retries.
    """


# --------------------------------------------------------------- contexts


def context_to_dict(context: RunContext) -> Dict[str, Any]:
    """Serialize a :class:`RunContext` to a JSON-able dict (lossless)."""
    return {
        "scale": context.scale,
        "pagerank_iterations": context.pagerank_iterations,
        "conv_scale": context.conv_scale,
        "backend": context.backend,
    }


def context_from_dict(data: Optional[Dict[str, Any]]) -> RunContext:
    """Rebuild a :class:`RunContext` from :func:`context_to_dict` output."""
    data = dict(data or {})
    known = {f.name for f in dataclasses.fields(RunContext)}
    unknown = set(data) - known
    if unknown:
        raise UnitSpecError(f"unknown RunContext fields in payload: {sorted(unknown)}")
    return RunContext(**data)


# ------------------------------------------------------------- unit kinds


@dataclasses.dataclass(frozen=True)
class UnitKind:
    """One executable unit kind: how to run it and (de)serialize results."""

    name: str
    execute: Callable[[Dict[str, Any]], Any]
    serialize: Callable[[Any], Any]
    deserialize: Callable[[Any], Any]


_KINDS: Dict[str, UnitKind] = {}


def register_unit_kind(
    name: str,
    execute: Callable[[Dict[str, Any]], Any],
    *,
    serialize: Optional[Callable[[Any], Any]] = None,
    deserialize: Optional[Callable[[Any], Any]] = None,
) -> UnitKind:
    """Register one unit kind (``serialize``/``deserialize`` default to identity).

    Note that subprocess workers only know the kinds registered at import
    time of :mod:`repro.runtime.jobs`; ad-hoc kinds registered by tests
    run on the in-process executor.
    """
    kind = UnitKind(
        name=name,
        execute=execute,
        serialize=serialize or (lambda result: result),
        deserialize=deserialize or (lambda result: result),
    )
    _KINDS[name] = kind
    return kind


def unit_kind(name: str) -> UnitKind:
    """Look up one registered kind (raises :class:`UnitSpecError`)."""
    try:
        return _KINDS[name]
    except KeyError:
        known = ", ".join(sorted(_KINDS)) or "<none>"
        raise UnitSpecError(
            f"unknown work-unit kind {name!r}; registered: {known}"
        ) from None


def execute_unit(payload: Dict[str, Any]) -> Any:
    """Execute one work-unit payload and return its (native) result.

    This is the single entry point every executor drives -- in process
    or behind ``repro-eval worker`` -- which also
    makes it the seam where an active fault plan (see
    :mod:`repro.runtime.faults`) injects unit-level faults into every
    backend identically.
    """
    if not isinstance(payload, dict) or "kind" not in payload:
        raise UnitSpecError(f"work-unit payload needs a 'kind' field, got {payload!r}")
    faults.inject_unit_fault(payload)
    return unit_kind(payload["kind"]).execute(payload)


def serialize_result(kind: str, result: Any) -> Any:
    """The JSON form of one unit result (for ``result_json`` / the wire)."""
    return unit_kind(kind).serialize(result)


def deserialize_result(kind: str, data: Any) -> Any:
    """Rebuild one unit result from its JSON form."""
    return unit_kind(kind).deserialize(data)


# ------------------------------------------------------- built-in kinds


def _execute_profile(payload: Dict[str, Any]) -> Any:
    """Run one (app, dataset) cell, served from / stored to the profile cache."""
    app = payload["app"]
    dataset = payload["dataset"]
    context = context_from_dict(payload.get("context"))
    cache: Optional[ProfileCache] = None
    key: Optional[str] = None
    if payload.get("cache", True) and cache_enabled():
        root = payload.get("cache_root")
        cache = ProfileCache(root=Path(root)) if root else ProfileCache()
        key = cache.key(app, dataset, context)
        hit = cache.load(key)
        if hit is not None:
            return hit
    profile = registry.execute(app, dataset, context)
    if cache is not None and key is not None:
        cache.store(key, profile)
    return profile


def throughput_variant(payload: Dict[str, Any]) -> SpMUVariant:
    """The validated SpMU variant a ``throughput`` unit payload measures.

    Serve's ``/throughput`` builds its store key from this too, so the
    point it looks up is exactly the point the unit simulates. Raises
    :class:`ValueError` for an unknown ordering and
    :class:`~repro.errors.ConfigurationError` for any other illegal field.
    """
    variant = SpMUVariant(
        ordering=OrderingMode(payload.get("ordering", "unordered")),
        bank_mapping=payload.get("bank_mapping", "hash"),
        allocator_kind=payload.get("allocator", "separable"),
        config=SpMUConfig(**payload.get("config", {})),
        lanes=int(payload.get("lanes", 16)),
    )
    variant.validate()
    return variant


def _execute_throughput(payload: Dict[str, Any]) -> float:
    """Run one SpMU calibration microbenchmark (persists to its store)."""
    [throughput] = effective_bank_throughput_batch([throughput_variant(payload)])
    return float(throughput)


def _execute_dse_chunk(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Cost one contiguous slice of a sweep cross-product.

    Profiles come through the cached :class:`ExperimentRunner` (serial --
    the parallelism axis of a DSE job is its units, not nested workers), so
    every chunk of the same job reuses the same cached profile set.
    """
    from .dse import cost_variants
    from .runner import ExperimentRunner
    from .sweep import sweep

    axes = {
        axis: [parse_axis_value(axis, value) for value in values]
        for axis, values in payload["axes"].items()
    }
    variants = sweep(**axes)
    chunk_names = list(variants)[payload["start"] : payload["stop"]]
    context = context_from_dict(payload.get("context"))
    runner = ExperimentRunner(context=context, workers=1, cache=payload.get("cache", True))
    profiles = runner.run(apps=payload.get("apps")).profiles()
    costs = cost_variants(profiles, [variants[name] for name in chunk_names])
    return {
        "names": chunk_names,
        "gmean_cycles": costs.gmean_cycles.tolist(),
        "area_mm2": costs.area_mm2.tolist(),
    }


def _execute_table(payload: Dict[str, Any]) -> Any:
    """Run one harness of :data:`repro.eval.HARNESSES`, in its canonical JSON form."""
    from ..eval import EVAL_SCALE, canonical, run_harnesses

    [result] = run_harnesses([payload["table"]], payload.get("scale", EVAL_SCALE)).values()
    return canonical(result)


def _execute_probe(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Synthetic unit for conformance tests and executor smoke runs.

    Payload fields: ``value`` (echoed back doubled), ``sleep_s`` (work
    stand-in, exercises timeouts), ``fail_times`` + ``scratch`` (raise
    until the scratch directory shows that many prior attempts, exercising
    retries across process boundaries -- each execution drops one marker
    file), ``boom`` (always raise).
    """
    attempt = 0
    scratch = payload.get("scratch")
    if scratch:
        root = Path(scratch)
        root.mkdir(parents=True, exist_ok=True)
        marker = root / f"attempt-{os.getpid()}-{time.monotonic_ns()}"
        marker.write_text("")
        attempt = len(list(root.glob("attempt-*")))
    sleep_s = float(payload.get("sleep_s", 0.0))
    if sleep_s > 0:
        time.sleep(sleep_s)
    if payload.get("boom"):
        raise JobError(str(payload.get("boom")))
    fail_times = int(payload.get("fail_times", 0))
    if fail_times and attempt <= fail_times:
        raise JobError(f"probe failing on attempt {attempt} of {fail_times}")
    value = payload.get("value")
    return {
        "value": None if value is None else value * 2,
        "attempt": attempt,
        "pid": os.getpid(),
    }


register_unit_kind(
    "profile",
    _execute_profile,
    serialize=profile_to_dict,
    deserialize=profile_from_dict,
)
register_unit_kind("throughput", _execute_throughput)
register_unit_kind("dse_chunk", _execute_dse_chunk)
register_unit_kind("table", _execute_table)
register_unit_kind("probe", _execute_probe)


# ------------------------------------------------------------- job specs


def _unit_key(material: Dict[str, Any]) -> str:
    """Content address of one unit: its material plus the code fingerprint."""
    material = dict(material)
    material["code"] = code_fingerprint()
    return content_key(material)


@dataclasses.dataclass(frozen=True)
class WorkUnit:
    """One shard of a job: a content-addressed, executable payload."""

    key: str
    kind: str
    payload: Dict[str, Any]


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """A named, ordered collection of work units.

    The spec ``key`` hashes the name and every unit key, so the same grid
    at the same code version resolves to the same job row -- submitting it
    twice resumes rather than duplicates.
    """

    name: str
    units: Tuple[WorkUnit, ...]

    @property
    def key(self) -> str:
        return content_key({"name": self.name, "units": [unit.key for unit in self.units]})

    @staticmethod
    def profile_grid(
        apps: Optional[Sequence[str]] = None,
        context: Optional[RunContext] = None,
        *,
        cache_root: Optional[Union[str, Path]] = None,
        name: str = "profile-grid",
    ) -> "JobSpec":
        """Shard the (application x dataset) grid, one cell per unit.

        Workers write straight into the content-addressed profile cache
        (``cache_root`` overrides its location), so a completed job's
        output is exactly the warm cache a single-process run would leave.
        """
        context = context or RunContext()
        names = list(apps) if apps is not None else list(registry.app_order())
        context_dict = context_to_dict(context)
        keyer = ProfileCache(root=Path(cache_root)) if cache_root else ProfileCache()
        units: List[WorkUnit] = []
        for app in names:
            spec = registry.get_spec(app)
            for dataset in spec.datasets:
                payload: Dict[str, Any] = {
                    "kind": "profile",
                    "app": app,
                    "dataset": dataset,
                    "context": context_dict,
                }
                if cache_root:
                    payload["cache_root"] = str(cache_root)
                # The profile-cache key *is* the unit's content address:
                # done unit <=> its output exists in the cache.
                key = keyer.key(app, dataset, context)
                units.append(WorkUnit(key=key, kind="profile", payload=payload))
        if not units:
            raise JobError("profile grid resolved to zero units")
        return JobSpec(name=name, units=tuple(units))

    @staticmethod
    def dse_grid(
        axes: Dict[str, Sequence[Any]],
        *,
        apps: Optional[Sequence[str]] = None,
        context: Optional[RunContext] = None,
        max_chunk: int = DEFAULT_DSE_CHUNK,
        name: str = "dse-grid",
    ) -> "JobSpec":
        """Shard a sweep cross-product into budget-planned variant chunks.

        The chunk size comes from the memory-budget planner: one chunk's
        (profile x variant) costing working set fits ``REPRO_MEMORY_BUDGET``,
        capped at ``max_chunk`` variants so even unbudgeted jobs stay
        resumable at useful granularity.
        """
        from .._budget import plan_chunks, resolve_memory_budget
        from ..apps.timing import COSTING_BYTES_PER_CELL
        from .sweep import sweep

        parsed = {
            axis: [parse_axis_value(axis, value) for value in values]
            for axis, values in axes.items()
        }
        variants = sweep(**parsed)
        context = context or RunContext()
        app_names = list(apps) if apps is not None else list(registry.app_order())
        cells = sum(len(registry.get_spec(app).datasets) for app in app_names)
        plan = plan_chunks(
            len(variants),
            cells * COSTING_BYTES_PER_CELL,
            resolve_memory_budget(),
            max_items=max_chunk,
        )
        axes_json = {
            axis: [axis_value_to_json(value) for value in values]
            for axis, values in parsed.items()
        }
        context_dict = context_to_dict(context)
        units: List[WorkUnit] = []
        for start, stop in plan.bounds():
            payload = {
                "kind": "dse_chunk",
                "axes": axes_json,
                "start": int(start),
                "stop": int(stop),
                "apps": None if apps is None else list(apps),
                "context": context_dict,
            }
            key = _unit_key(payload)
            units.append(WorkUnit(key=key, kind="dse_chunk", payload=payload))
        if not units:
            raise JobError("DSE grid resolved to zero units")
        return JobSpec(name=name, units=tuple(units))

    @staticmethod
    def table_suite(
        tables: Optional[Sequence[str]] = None,
        *,
        scale: Optional[float] = None,
        name: str = "table-suite",
    ) -> "JobSpec":
        """Shard the paper reproduction, one harness of :data:`repro.eval.HARNESSES` per unit."""
        from ..eval import HARNESSES

        known = [harness.name for harness in HARNESSES]
        chosen = list(tables) if tables is not None else known
        unknown = set(chosen) - set(known)
        if unknown:
            raise JobError(f"unknown tables: {', '.join(sorted(unknown))}")
        units = []
        for table in chosen:
            payload: Dict[str, Any] = {"kind": "table", "table": table}
            if scale is not None:
                payload["scale"] = float(scale)
            units.append(WorkUnit(key=_unit_key(payload), kind="table", payload=payload))
        return JobSpec(name=name, units=tuple(units))

    @staticmethod
    def probes(
        count: int,
        *,
        sleep_s: float = 0.0,
        scratch: Optional[Union[str, Path]] = None,
        name: str = "probe",
    ) -> "JobSpec":
        """A synthetic job of ``count`` probe units (smoke tests, demos)."""
        units = []
        for i in range(count):
            payload: Dict[str, Any] = {"kind": "probe", "value": i}
            if sleep_s:
                payload["sleep_s"] = sleep_s
            if scratch:
                payload["scratch"] = str(Path(scratch) / f"unit-{i}")
            units.append(WorkUnit(key=_unit_key(payload), kind="probe", payload=payload))
        return JobSpec(name=name, units=tuple(units))


# -------------------------------------------------------------- job store


@dataclasses.dataclass(frozen=True)
class JobRecord:
    """One persisted job row."""

    id: int
    key: str
    name: str
    created_at: str
    updated_at: str
    state: str
    executor: Optional[str]
    workers: Optional[int]

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class UnitRecord:
    """One persisted work-unit row."""

    job_id: int
    seq: int
    key: str
    kind: str
    payload: Dict[str, Any]
    state: str
    attempts: int
    duration_s: Optional[float]
    error: Optional[str]
    result_json: Optional[str]
    lease_owner: Optional[str] = None
    lease_expires_at: Optional[float] = None

    def result(self) -> Any:
        """The deserialized unit result (``None`` unless done)."""
        if self.result_json is None:
            return None
        return deserialize_result(self.kind, json.loads(self.result_json))


@dataclasses.dataclass(frozen=True)
class JobRunSummary:
    """What one :meth:`JobStore.run_job` call did."""

    job_id: int
    state: str
    executed: int
    completed: int
    failed: int
    cancelled: int
    remaining: int
    counts: Dict[str, int]
    wall_time_s: float
    dead: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def default_claim_owner() -> str:
    """A lease-owner id for this process: ``hostname:pid:token``.

    The host and pid let a resuming process on the same machine detect
    that an owner died (pid no longer alive) without waiting out the
    lease; the random token distinguishes successive runs in one pid.
    """
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


def _owner_alive(owner: str) -> Optional[bool]:
    """Whether the lease owner's process is alive; ``None`` if unknowable.

    Only decidable for owners on this host; remote owners return ``None``
    and their leases are trusted until expiry.
    """
    host, _, rest = owner.partition(":")
    pid_text = rest.partition(":")[0]
    if host != socket.gethostname() or not pid_text.isdigit():
        return None
    try:
        os.kill(int(pid_text), 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


class _LeaseHeartbeat(threading.Thread):
    """Daemon refreshing the current wave's leases while units execute.

    Runs on its own connection (SQLite connections are not thread-safe)
    against the same database file; refresh failures (e.g. a busy writer)
    are skipped -- the next beat retries, and a missed lease merely makes
    the unit reclaimable a little sooner.
    """

    def __init__(self, path: Path, job_id: int, owner: str, lease_s: float):
        super().__init__(daemon=True, name="repro-lease-heartbeat")
        self._path = path
        self._job_id = job_id
        self._owner = owner
        self._lease_s = lease_s
        self._interval = max(0.05, lease_s / 3.0)
        self._seqs: List[int] = []
        self._lock = threading.Lock()
        # Not ``_stop``: that would shadow the ``threading.Thread._stop``
        # method a forked child calls on every inherited thread.
        self._halt = threading.Event()

    def watch(self, seqs: List[int]) -> None:
        with self._lock:
            self._seqs = list(seqs)

    def stop(self) -> None:
        self._halt.set()

    def run(self) -> None:
        store = RunStore(self._path)
        try:
            while not self._halt.wait(self._interval):
                with self._lock:
                    seqs = list(self._seqs)
                if not seqs:
                    continue
                expires = time.time() + self._lease_s
                try:
                    with store.connection:
                        store.connection.executemany(
                            "UPDATE work_units SET lease_expires_at=?"
                            " WHERE job_id=? AND seq=? AND lease_owner=? AND state=?",
                            [
                                (expires, self._job_id, seq, self._owner, UNIT_RUNNING)
                                for seq in seqs
                            ],
                        )
                except Exception:  # noqa: BLE001 - next beat retries
                    continue
        finally:
            store.close()


class JobStore:
    """Job and work-unit persistence over the run-store database.

    Shares the :class:`~repro.runtime.runstore.RunStore` connection (WAL,
    versioned schema); pass an existing store to compose, or a path to own
    one. All unit selections are ordered by ``seq``, so execution and
    reporting follow deterministic grid order.
    """

    def __init__(self, path: Optional[Path] = None, *, store: Optional[RunStore] = None):
        if store is not None:
            self._store = store
            self._owns_store = False
        else:
            self._store = RunStore(path)
            self._owns_store = True
        self._connection = self._store.connection

    @property
    def path(self) -> Path:
        return self._store.path

    def close(self) -> None:
        if self._owns_store:
            self._store.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------ writes

    def submit(self, spec: JobSpec) -> JobRecord:
        """Insert a job for ``spec``, or return the existing one (resume)."""
        existing = self.job_by_key(spec.key)
        if existing is not None:
            return existing
        now = _utc_now()
        with self._connection:
            cursor = self._connection.execute(
                "INSERT INTO jobs (key, name, created_at, updated_at, state)"
                " VALUES (?,?,?,?,?)",
                (spec.key, spec.name, now, now, JOB_PENDING),
            )
            job_id = int(cursor.lastrowid)
            self._connection.executemany(
                "INSERT INTO work_units (job_id, seq, key, kind, payload_json, state)"
                " VALUES (?,?,?,?,?,?)",
                [
                    (
                        job_id,
                        seq,
                        unit.key,
                        unit.kind,
                        json.dumps(unit.payload, sort_keys=True),
                        UNIT_PENDING,
                    )
                    for seq, unit in enumerate(spec.units)
                ],
            )
        job = self.job(job_id)
        assert job is not None
        return job

    def reset_stale_running(self, job_id: int) -> int:
        """Reset *stale* ``running`` units to ``pending`` (kill recovery).

        A ``running`` unit is stale -- an orphan of a dead sweep -- when it
        has no lease (pre-lease rows, or a claimant that died inside the
        claim transaction), its lease has expired, or its owner is a
        process on this host that no longer exists (so a SIGKILLed sweep
        is reclaimable immediately, without waiting out the lease).
        Units validly leased by a *live* concurrent claimant are left
        alone -- that is what makes two concurrent ``run_job`` calls safe.
        """
        now = time.time()
        rows = self._connection.execute(
            "SELECT seq, lease_owner, lease_expires_at FROM work_units"
            " WHERE job_id=? AND state=?",
            (job_id, UNIT_RUNNING),
        ).fetchall()
        stale: List[int] = []
        for row in rows:
            owner = row["lease_owner"]
            expires = row["lease_expires_at"]
            if owner is None or expires is None or expires < now:
                stale.append(row["seq"])
            elif _owner_alive(owner) is False:
                stale.append(row["seq"])
        if stale:
            with self._connection:
                self._connection.executemany(
                    "UPDATE work_units SET state=?, lease_owner=NULL,"
                    " lease_expires_at=NULL WHERE job_id=? AND seq=? AND state=?",
                    [(UNIT_PENDING, job_id, seq, UNIT_RUNNING) for seq in stale],
                )
        return len(stale)

    def claim_units(
        self,
        job_id: int,
        seqs: Sequence[int],
        *,
        owner: str,
        lease_s: float = DEFAULT_LEASE_S,
    ) -> List[UnitRecord]:
        """Atomically claim the subset of ``seqs`` still claimable.

        The select-and-mark runs inside one ``BEGIN IMMEDIATE``
        transaction, so two concurrent claimants racing on the same job
        serialize at the database and can never claim (hence double-run)
        the same unit -- a candidate another claimant already holds or
        finished simply drops out of the returned wave.
        """
        if not seqs:
            return []
        expires = time.time() + lease_s
        placeholders = ",".join("?" for _ in seqs)
        self._connection.commit()  # close any open implicit transaction
        self._connection.execute("BEGIN IMMEDIATE")
        try:
            rows = self._connection.execute(
                f"SELECT * FROM work_units WHERE job_id=? AND state IN (?,?)"
                f" AND seq IN ({placeholders}) ORDER BY seq",
                (job_id, UNIT_PENDING, UNIT_FAILED, *seqs),
            ).fetchall()
            units = [self._unit_from_row(row) for row in rows]
            self._connection.executemany(
                "UPDATE work_units SET state=?, lease_owner=?, lease_expires_at=?"
                " WHERE job_id=? AND seq=?",
                [(UNIT_RUNNING, owner, expires, job_id, unit.seq) for unit in units],
            )
            self._connection.execute("COMMIT")
        except BaseException:
            self._connection.execute("ROLLBACK")
            raise
        return [
            dataclasses.replace(
                unit, state=UNIT_RUNNING, lease_owner=owner, lease_expires_at=expires
            )
            for unit in units
        ]

    def run_job(
        self,
        job_id: int,
        executor: Any,
        *,
        max_units: Optional[int] = None,
        stop_on_error: bool = False,
        max_attempts: Optional[int] = None,
        lease_s: float = DEFAULT_LEASE_S,
        owner: Optional[str] = None,
    ) -> JobRunSummary:
        """Execute the job's claimable units (pending or failed) in order.

        Args:
            job_id: The job to advance.
            executor: Any :class:`~repro.runtime.executors.base.Executor`.
            max_units: Process at most this many units, then return with
                the job still resumable (deterministic partial progress --
                also the seam the kill/resume tests and smoke sweep use).
            stop_on_error: Forwarded to the executor: cancel outstanding
                units after the first failure instead of finishing the
                batch.
            max_attempts: Dead-letter ceiling: a unit whose *cumulative*
                attempts reach this (or whose failure is classified
                permanent) moves to ``dead`` instead of ``failed`` and is
                never re-claimed on resume. ``None`` (default) keeps the
                retry-forever-on-resume behavior.
            lease_s: Lease length for claimed units; a heartbeat refreshes
                it at a third of this while the wave executes.
            owner: Lease-owner id; defaults to
                :func:`default_claim_owner` for this process.

        Returns:
            A :class:`JobRunSummary`; ``remaining`` counts units still
            claimable afterwards (a resumed call picks exactly those up).

        Units are claimed one wave (of ``executor.workers``) at a time
        inside a ``BEGIN IMMEDIATE`` transaction, executed, and committed
        before the next wave is claimed -- so a killed run can only ever
        lose in-flight work, and two concurrent ``run_job`` processes on
        the same job interleave wave-by-wave without ever double-running
        a unit.
        """
        started = time.perf_counter()
        job = self.job(job_id)
        if job is None:
            raise JobError(f"no job {job_id} in {self.path}")
        owner = owner or default_claim_owner()
        self.reset_stale_running(job_id)
        with self._connection:
            self._connection.execute(
                "UPDATE jobs SET state=?, executor=?, workers=?, updated_at=?"
                " WHERE id=?",
                (
                    JOB_RUNNING,
                    getattr(executor, "name", type(executor).__name__),
                    getattr(executor, "workers", None),
                    _utc_now(),
                    job_id,
                ),
            )
        wave_size = max(1, int(getattr(executor, "workers", 1) or 1))
        completed = failed = cancelled = dead = 0
        processed = 0
        # Snapshot the claimable set once: a unit that fails during *this*
        # call is retried on the next run_job, not re-claimed immediately
        # (its executor-level retries already ran), and concurrent
        # claimants working the same snapshot simply see stolen candidates
        # drop out of their waves at claim time.
        candidates = [unit.seq for unit in self.claimable_units(job_id)]
        heartbeat = _LeaseHeartbeat(self.path, job_id, owner, lease_s)
        heartbeat.start()
        try:
            halt = False
            while not halt and candidates:
                budget = None if max_units is None else max(0, max_units - processed)
                if budget == 0:
                    break
                limit = wave_size if budget is None else min(wave_size, budget)
                batch, candidates = candidates[:limit], candidates[limit:]
                wave = self.claim_units(job_id, batch, owner=owner, lease_s=lease_s)
                if not wave:
                    continue
                heartbeat.watch([unit.seq for unit in wave])
                outcomes = executor.run_units(
                    [unit.payload for unit in wave], stop_on_error=stop_on_error
                )
                heartbeat.watch([])
                with self._connection:
                    for unit, outcome in zip(wave, outcomes):
                        if outcome.status == "ok":
                            completed += 1
                            state: str = UNIT_DONE
                            error = None
                            result_json = json.dumps(
                                serialize_result(unit.kind, outcome.result), sort_keys=True
                            )
                        elif outcome.status == "cancelled":
                            cancelled += 1
                            state, error, result_json = UNIT_PENDING, None, None
                        else:
                            error = outcome.error or outcome.status
                            result_json = None
                            permanent = (
                                getattr(outcome, "classification", None) == PERMANENT
                            )
                            exhausted = (
                                max_attempts is not None
                                and unit.attempts + outcome.attempts >= max_attempts
                            )
                            if max_attempts is not None and (permanent or exhausted):
                                dead += 1
                                state = UNIT_DEAD
                            else:
                                failed += 1
                                state = UNIT_FAILED
                        # The lease-owner guard makes the commit idempotent
                        # against theft: if this lease expired mid-wave and
                        # another claimant took the unit, its row is theirs
                        # now and this outcome is dropped.
                        self._connection.execute(
                            "UPDATE work_units SET state=?, attempts=attempts+?,"
                            " duration_s=?, error=?, result_json=?,"
                            " lease_owner=NULL, lease_expires_at=NULL"
                            " WHERE job_id=? AND seq=? AND state=? AND lease_owner=?",
                            (
                                state,
                                outcome.attempts,
                                outcome.duration_s,
                                error,
                                result_json,
                                job_id,
                                unit.seq,
                                UNIT_RUNNING,
                                owner,
                            ),
                        )
                processed += len(wave)
                if any(outcome.status == "cancelled" for outcome in outcomes):
                    halt = True  # executor was cancelled; leave the rest pending
                elif getattr(executor, "cancelled", lambda: False)():
                    # A cancel that landed after the wave's last check
                    # produced no cancelled outcome, and the next wave's
                    # _begin_run would silently erase it -- honor it here.
                    halt = True
                if stop_on_error and any(
                    outcome.status not in ("ok", "cancelled") for outcome in outcomes
                ):
                    halt = True
        finally:
            heartbeat.stop()
        # Read the unit states and write the job state in one write
        # transaction: otherwise a concurrent claimant that commits its
        # last unit and marks the job done in between would have that
        # overwritten by this claimant's stale "running".
        self._connection.commit()  # close any open implicit transaction
        self._connection.execute("BEGIN IMMEDIATE")
        try:
            counts = self.unit_states(job_id)
            if counts.get(UNIT_RUNNING, 0):
                # Another live claimant still holds leases; the job is
                # theirs to finish.
                state = JOB_RUNNING
            elif counts.get(UNIT_DONE, 0) == sum(counts.values()):
                state = JOB_DONE
            elif (
                counts.get(UNIT_FAILED, 0) or counts.get(UNIT_DEAD, 0)
            ) and not counts.get(UNIT_PENDING, 0):
                state = JOB_FAILED
            else:
                state = JOB_PENDING
            self._connection.execute(
                "UPDATE jobs SET state=?, updated_at=? WHERE id=?",
                (state, _utc_now(), job_id),
            )
            self._connection.execute("COMMIT")
        except BaseException:
            self._connection.execute("ROLLBACK")
            raise
        remaining = counts.get(UNIT_PENDING, 0) + counts.get(UNIT_FAILED, 0)
        return JobRunSummary(
            job_id=job_id,
            state=state,
            executed=processed,
            completed=completed,
            failed=failed,
            cancelled=cancelled,
            remaining=remaining,
            counts=counts,
            wall_time_s=time.perf_counter() - started,
            dead=dead,
        )

    # ------------------------------------------------------------- reads

    @staticmethod
    def _job_from_row(row) -> JobRecord:
        return JobRecord(
            id=row["id"],
            key=row["key"],
            name=row["name"],
            created_at=row["created_at"],
            updated_at=row["updated_at"],
            state=row["state"],
            executor=row["executor"],
            workers=row["workers"],
        )

    @staticmethod
    def _unit_from_row(row) -> UnitRecord:
        return UnitRecord(
            job_id=row["job_id"],
            seq=row["seq"],
            key=row["key"],
            kind=row["kind"],
            payload=json.loads(row["payload_json"]),
            state=row["state"],
            attempts=row["attempts"],
            duration_s=row["duration_s"],
            error=row["error"],
            result_json=row["result_json"],
            lease_owner=row["lease_owner"],
            lease_expires_at=row["lease_expires_at"],
        )

    def job(self, job_id: int) -> Optional[JobRecord]:
        row = self._connection.execute(
            "SELECT * FROM jobs WHERE id=?", (job_id,)
        ).fetchone()
        return None if row is None else self._job_from_row(row)

    def job_by_key(self, key: str) -> Optional[JobRecord]:
        row = self._connection.execute(
            "SELECT * FROM jobs WHERE key=?", (key,)
        ).fetchone()
        return None if row is None else self._job_from_row(row)

    def jobs(self, limit: Optional[int] = None) -> List[JobRecord]:
        """All jobs, newest first."""
        query = "SELECT * FROM jobs ORDER BY id DESC"
        parameters: List[Any] = []
        if limit is not None:
            query += " LIMIT ?"
            parameters.append(limit)
        rows = self._connection.execute(query, parameters).fetchall()
        return [self._job_from_row(row) for row in rows]

    def units(self, job_id: int, state: Optional[str] = None) -> List[UnitRecord]:
        """The job's units in grid (``seq``) order, optionally one state."""
        query = "SELECT * FROM work_units WHERE job_id=?"
        parameters: List[Any] = [job_id]
        if state is not None:
            query += " AND state=?"
            parameters.append(state)
        query += " ORDER BY seq"
        rows = self._connection.execute(query, parameters).fetchall()
        return [self._unit_from_row(row) for row in rows]

    def claimable_units(self, job_id: int) -> List[UnitRecord]:
        """Units still needing execution: pending, plus failed (retried).

        Dead-lettered units are *not* claimable; they stay visible via
        :meth:`units` / :meth:`unit_states` until operator intervention.
        """
        rows = self._connection.execute(
            "SELECT * FROM work_units WHERE job_id=? AND state IN (?,?) ORDER BY seq",
            (job_id, UNIT_PENDING, UNIT_FAILED),
        ).fetchall()
        return [self._unit_from_row(row) for row in rows]

    def unit_states(self, job_id: int) -> Dict[str, int]:
        """Unit counts by state, e.g. ``{"done": 30, "pending": 3}``."""
        rows = self._connection.execute(
            "SELECT state, COUNT(*) AS n FROM work_units WHERE job_id=? GROUP BY state",
            (job_id,),
        ).fetchall()
        return {row["state"]: row["n"] for row in rows}

    def results(self, job_id: int) -> List[Tuple[UnitRecord, Any]]:
        """(unit, deserialized result) for every done unit, in grid order."""
        return [
            (unit, unit.result()) for unit in self.units(job_id, state=UNIT_DONE)
        ]
