"""SQLite-backed experiment store for benchmark run history.

``BENCH_runner.json`` is one snapshot; this store is the trajectory. Every
bench run -- the profile-collection timings plus the costing / spmu /
formats / chunked sections -- is recorded as structured rows in a single
SQLite database:

* ``runs`` holds one row per run: timestamp, the code fingerprint (the
  profile cache's :func:`~repro.runtime.cache.code_fingerprint`, so a run
  is attributable to the exact source tree that produced it), scale,
  workers, and the full record verbatim as JSON;
* ``sections`` breaks each record section out with its identity flag and
  traced ``peak_mb``;
* ``section_metrics`` flattens every numeric metric into one indexed row
  per (run, section, metric) so history and trend queries never decode
  JSON;
* ``baselines`` freezes named snapshots of recorded runs for the
  regression analytics in :mod:`repro.eval.regression` to compare against.

The schema ships as a versioned ``schema.sql`` next to this module and is
applied on first open; ``PRAGMA user_version`` guards against opening a
database written by a newer layout. Connections run in WAL mode so a
reader (``repro-eval bench-history``) never blocks a writer (the bench
runner appending a run). Set ``REPRO_RUN_DB`` to relocate the database
(default ``~/.cache/repro/runs.sqlite``).
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import os
import sqlite3
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..errors import CapstanError
from .cache import code_fingerprint

#: Bump when schema.sql changes incompatibly; mirrored into user_version.
#: Version 2 added the job layer (``jobs`` / ``work_units``) additively, so
#: version-1 databases upgrade in place on first open. Version 3 adds the
#: lease columns (``lease_owner`` / ``lease_expires_at``) to ``work_units``;
#: v2 databases gain them via ALTER TABLE on first open.
SCHEMA_VERSION = 3

#: How long a writer waits on a locked database before erroring. Claim
#: transactions from concurrent ``run_job`` processes serialize on the
#: write lock; five seconds comfortably covers a claim + wave commit.
BUSY_TIMEOUT_MS = 5000

#: Environment override for the database location.
ENV_RUN_DB = "REPRO_RUN_DB"

#: Section name the top-level scalar timings of a record are filed under.
RUNNER_SECTION = "runner"


class RunStoreError(CapstanError):
    """Raised when the run database is unusable (e.g. newer schema)."""


def default_run_db() -> Path:
    """The database path: ``$REPRO_RUN_DB`` or ``~/.cache/repro/runs.sqlite``."""
    override = os.environ.get(ENV_RUN_DB)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "runs.sqlite"


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def flatten_metrics(section: Dict[str, Any]) -> Dict[str, float]:
    """Numeric metrics of one section dict, nested dicts dotted one level.

    Booleans are flags, not metrics, and are excluded; ``None`` values are
    dropped -- absence in ``section_metrics`` is how a metric reads as
    unrecorded.
    """
    flat: Dict[str, float] = {}
    for key, value in section.items():
        if _is_number(value):
            flat[key] = float(value)
        elif isinstance(value, dict):
            for inner, nested in value.items():
                if _is_number(nested):
                    flat[f"{key}.{inner}"] = float(nested)
    return flat


def record_sections(record: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Split one bench record into named sections.

    Every top-level dict value is a section; the remaining top-level
    scalars (cold/warm timings, speedups, worker counts) form the
    implicit :data:`RUNNER_SECTION`.
    """
    sections: Dict[str, Dict[str, Any]] = {}
    runner: Dict[str, Any] = {}
    for key, value in record.items():
        if isinstance(value, dict):
            sections[key] = value
        else:
            runner[key] = value
    sections[RUNNER_SECTION] = runner
    return sections


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One recorded bench run."""

    id: int
    created_at: str
    benchmark: str
    fingerprint: str
    scale: Optional[float]
    workers: Optional[int]
    cpu_count: Optional[int]
    label: Optional[str]
    record: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class BaselineRecord:
    """A named, frozen snapshot of one recorded run."""

    name: str
    run_id: int
    created_at: str
    scale: Optional[float]
    fingerprint: str
    record: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class RunStore:
    """SQLite experiment store; see the module docstring for the layout.

    Attributes:
        path: Database file location.
    """

    def __init__(self, path: Optional[Path] = None):
        self.path = Path(path) if path is not None else default_run_db()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._connection = sqlite3.connect(str(self.path))
        self._connection.row_factory = sqlite3.Row
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute("PRAGMA foreign_keys=ON")
        self._connection.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        self._apply_schema()

    def _apply_schema(self) -> None:
        version = self._connection.execute("PRAGMA user_version").fetchone()[0]
        if version > SCHEMA_VERSION:
            raise RunStoreError(
                f"run database {self.path} uses schema version {version}, newer "
                f"than this code's {SCHEMA_VERSION}; refusing to touch it"
            )
        schema = (Path(__file__).resolve().parent / "schema.sql").read_text()
        with self._connection:
            self._connection.executescript(schema)
            if 0 < version < 3:
                # v2 -> v3: the lease columns. executescript above only
                # creates missing tables; existing work_units rows need
                # the explicit ALTERs (idempotent via the version gate).
                for column, kind in (
                    ("lease_owner", "TEXT"),
                    ("lease_expires_at", "REAL"),
                ):
                    try:
                        self._connection.execute(
                            f"ALTER TABLE work_units ADD COLUMN {column} {kind}"
                        )
                    except sqlite3.OperationalError as exc:
                        if "duplicate column" not in str(exc).lower():
                            raise
            self._connection.execute(f"PRAGMA user_version={SCHEMA_VERSION}")

    @property
    def connection(self) -> sqlite3.Connection:
        """The live connection (shared with :class:`~repro.runtime.jobs.JobStore`)."""
        return self._connection

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------- writes

    def record_run(
        self,
        record: Dict[str, Any],
        *,
        label: Optional[str] = None,
        fingerprint: Optional[str] = None,
        created_at: Optional[str] = None,
    ) -> int:
        """Append one bench record; returns the new run id.

        Args:
            record: A ``BENCH_runner.json``-shaped dict.
            label: Free-form tag (e.g. a branch or CI run id).
            fingerprint: Code-fingerprint override (testing); defaults to
                the live :func:`~repro.runtime.cache.code_fingerprint`.
            created_at: Timestamp override (testing); defaults to now.
        """
        code = fingerprint if fingerprint is not None else code_fingerprint()
        sections = record_sections(record)
        with self._connection:
            cursor = self._connection.execute(
                "INSERT INTO runs (created_at, benchmark, code_fingerprint, scale,"
                " workers, cpu_count, label, record_json) VALUES (?,?,?,?,?,?,?,?)",
                (
                    created_at if created_at is not None else _utc_now(),
                    str(record.get("benchmark", "")),
                    code,
                    record.get("scale"),
                    record.get("workers"),
                    record.get("cpu_count"),
                    label,
                    json.dumps(record, sort_keys=True),
                ),
            )
            run_id = int(cursor.lastrowid)
            for name, section in sections.items():
                identical = section.get("identical")
                self._connection.execute(
                    "INSERT INTO sections (run_id, name, identical, peak_mb,"
                    " metrics_json) VALUES (?,?,?,?,?)",
                    (
                        run_id,
                        name,
                        None if identical is None else int(bool(identical)),
                        section.get("peak_mb"),
                        json.dumps(section, sort_keys=True),
                    ),
                )
                self._connection.executemany(
                    "INSERT INTO section_metrics (run_id, section, metric, value)"
                    " VALUES (?,?,?,?)",
                    [
                        (run_id, name, metric, value)
                        for metric, value in flatten_metrics(section).items()
                    ],
                )
        return run_id

    def snapshot_baseline(
        self, name: str, run_id: Optional[int] = None
    ) -> BaselineRecord:
        """Freeze one recorded run (default: the latest) as a named baseline.

        Re-snapshotting an existing name replaces it -- a baseline is "the
        blessed run", not history (the runs table is the history).
        """
        run = self.latest_run() if run_id is None else self.load_run(run_id)
        if run is None:
            raise RunStoreError(
                f"cannot snapshot baseline {name!r}: "
                + ("the store has no runs" if run_id is None else f"no run {run_id}")
            )
        created = _utc_now()
        with self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO baselines (name, run_id, created_at, scale,"
                " code_fingerprint, snapshot_json) VALUES (?,?,?,?,?,?)",
                (
                    name,
                    run.id,
                    created,
                    run.scale,
                    run.fingerprint,
                    json.dumps(run.record, sort_keys=True),
                ),
            )
        return BaselineRecord(
            name=name,
            run_id=run.id,
            created_at=created,
            scale=run.scale,
            fingerprint=run.fingerprint,
            record=run.record,
        )

    # -------------------------------------------------------------- reads

    @staticmethod
    def _run_from_row(row: sqlite3.Row) -> RunRecord:
        return RunRecord(
            id=row["id"],
            created_at=row["created_at"],
            benchmark=row["benchmark"],
            fingerprint=row["code_fingerprint"],
            scale=row["scale"],
            workers=row["workers"],
            cpu_count=row["cpu_count"],
            label=row["label"],
            record=json.loads(row["record_json"]),
        )

    def load_run(self, run_id: int) -> Optional[RunRecord]:
        row = self._connection.execute(
            "SELECT * FROM runs WHERE id=?", (run_id,)
        ).fetchone()
        return None if row is None else self._run_from_row(row)

    def latest_run(self) -> Optional[RunRecord]:
        row = self._connection.execute(
            "SELECT * FROM runs ORDER BY id DESC LIMIT 1"
        ).fetchone()
        return None if row is None else self._run_from_row(row)

    def runs(
        self, limit: Optional[int] = None, fingerprint: Optional[str] = None
    ) -> List[RunRecord]:
        """Recorded runs, newest first, optionally keyed to one fingerprint."""
        query = "SELECT * FROM runs"
        parameters: List[Any] = []
        if fingerprint is not None:
            query += " WHERE code_fingerprint=?"
            parameters.append(fingerprint)
        query += " ORDER BY id DESC"
        if limit is not None:
            query += " LIMIT ?"
            parameters.append(limit)
        rows = self._connection.execute(query, parameters).fetchall()
        return [self._run_from_row(row) for row in rows]

    def sections(self, run_id: int) -> Dict[str, Dict[str, Any]]:
        """The stored sections of one run, name -> section dict."""
        rows = self._connection.execute(
            "SELECT name, metrics_json FROM sections WHERE run_id=?", (run_id,)
        ).fetchall()
        return {row["name"]: json.loads(row["metrics_json"]) for row in rows}

    def metric_history(
        self, section: str, metric: str, limit: int = 20
    ) -> List[Tuple[int, float]]:
        """The last ``limit`` recorded values of one metric, oldest first.

        Returns ``(run_id, value)`` pairs; runs that did not record the
        metric simply do not appear.
        """
        rows = self._connection.execute(
            "SELECT run_id, value FROM section_metrics"
            " WHERE section=? AND metric=? AND value IS NOT NULL"
            " ORDER BY run_id DESC LIMIT ?",
            (section, metric, limit),
        ).fetchall()
        return [(row["run_id"], row["value"]) for row in reversed(rows)]

    def baseline(self, name: str) -> Optional[BaselineRecord]:
        row = self._connection.execute(
            "SELECT * FROM baselines WHERE name=?", (name,)
        ).fetchone()
        if row is None:
            return None
        return BaselineRecord(
            name=row["name"],
            run_id=row["run_id"],
            created_at=row["created_at"],
            scale=row["scale"],
            fingerprint=row["code_fingerprint"],
            record=json.loads(row["snapshot_json"]),
        )

    def baselines(self) -> List[BaselineRecord]:
        rows = self._connection.execute(
            "SELECT name FROM baselines ORDER BY name"
        ).fetchall()
        found = [self.baseline(row["name"]) for row in rows]
        return [baseline for baseline in found if baseline is not None]

    def __len__(self) -> int:
        return int(self._connection.execute("SELECT COUNT(*) FROM runs").fetchone()[0])
