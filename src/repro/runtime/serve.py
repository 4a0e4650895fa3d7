"""``repro-serve``: a cache-front HTTP API over the experiment stores.

The ROADMAP's north star is serving the paper's evaluation grid to
multi-user traffic. This module is the serving seam: a small stdlib-only
(asyncio) HTTP/1.1 server that answers **warm** queries straight from the
content-addressed stores -- the profile cache, the SpMU throughput store,
and the SQLite run/job store -- without executing any workload, and turns
**cold** queries into persisted jobs (:mod:`repro.runtime.jobs`) that any
executor can drain, including a ``--drain`` worker inside the server
process.

Endpoints (all JSON):

* ``GET /health`` -- liveness and store locations.
* ``GET /healthz`` -- readiness: uptime, request counters, and whether
  the run/job store is usable (``degraded`` when it is not; store-backed
  routes answer ``503`` in that state while warm cache reads keep
  working).
* ``GET /profile?app=bfs&dataset=wikipedia&scale=1/64`` -- ``200`` with
  the cached profile on a warm key; ``202`` with an enqueued job id on a
  cold one (``enqueue=0`` turns that into a plain ``404`` miss).
* ``GET /throughput?ordering=unordered&lanes=16&banks=16`` -- same
  contract over the SpMU throughput store.
* ``GET /runs?limit=10`` -- recorded bench-run history.
* ``GET /frontier`` -- the Pareto frontier of the latest persisted
  adaptive DSE search (``404`` until a search has completed;
  ``key=<search-key>`` pins a specific one).
* ``GET /jobs`` / ``GET /jobs/<id>`` -- job states and unit counts.
* ``POST /jobs`` -- submit a job spec, e.g. ``{"type": "profile_grid",
  "apps": ["bfs"], "context": {"scale": 0.015625}}``.

The protocol subset is deliberately tiny (request line + headers + JSON
bodies, one request per connection) so the whole layer stays dependency-
free and trivially testable. It is hardened against the failure modes a
shared endpoint actually sees: slow/stuck clients are cut off by a
per-request timeout (``408``), oversized bodies are refused (``413``),
an unusable run store degrades store-backed routes to ``503`` instead of
crashing the process, and shutdown drains in-flight requests before
closing.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sqlite3
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from ..apps.common import BACKENDS
from ..errors import CapstanError
from . import registry
from .cache import (
    ProfileCache,
    ThroughputStore,
    _json_default,
    profile_to_dict,
)
from .jobs import (
    JOB_PENDING,
    JobSpec,
    JobStore,
    WorkUnit,
    context_from_dict,
    context_to_dict,
    throughput_variant,
)
from .registry import RunContext, parse_scale
from .runstore import RunStore, RunStoreError, default_run_db

_STATUS_PHRASES = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Default per-request wall-clock budget (read + dispatch + write).
DEFAULT_REQUEST_TIMEOUT_S = 30.0

#: Default request-body cap; every legitimate body here is a small JSON
#: job spec, so 1 MiB is already generous.
DEFAULT_MAX_BODY_BYTES = 1 << 20

#: How long shutdown waits for in-flight requests before cancelling them.
DEFAULT_DRAIN_TIMEOUT_S = 5.0


class _BadRequest(CapstanError):
    """Client error -> HTTP 400."""


class _StoreUnavailable(CapstanError):
    """The run/job store cannot serve this route -> HTTP 503."""


def _context_from_query(query: Dict[str, str]) -> RunContext:
    """Build the run context named by query parameters (defaults apply)."""
    kwargs: Dict[str, Any] = {}
    try:
        if "scale" in query:
            kwargs["scale"] = parse_scale(query["scale"])
        if "pagerank_iterations" in query:
            kwargs["pagerank_iterations"] = int(query["pagerank_iterations"])
        if "conv_scale" in query:
            kwargs["conv_scale"] = parse_scale(query["conv_scale"])
        if "backend" in query:
            if query["backend"] not in BACKENDS:
                raise _BadRequest(
                    f"unknown backend {query['backend']!r}; expected one of {BACKENDS}"
                )
            kwargs["backend"] = query["backend"]
    except ValueError as exc:
        raise _BadRequest(f"bad context parameter: {exc}") from None
    return RunContext(**kwargs)


def _wants_enqueue(query: Dict[str, str]) -> bool:
    return query.get("enqueue", "1").strip().lower() not in ("0", "false", "no")


class CacheServer:
    """The request handler: store lookups in, JSON responses out.

    Synchronous on purpose -- every lookup is a file read or an indexed
    SQLite query, and running them inline on the event loop keeps the
    single store connection on one thread. Construct it on the thread
    that runs the loop.
    """

    def __init__(
        self,
        *,
        db: Optional[Path] = None,
        cache_root: Optional[Path] = None,
        request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ):
        self.profile_cache = (
            ProfileCache(root=Path(cache_root)) if cache_root else ProfileCache()
        )
        self.throughput_store = ThroughputStore()
        self.request_timeout_s = float(request_timeout_s)
        self.max_body_bytes = int(max_body_bytes)
        self.started_at = time.monotonic()
        self.requests_total = 0
        self.inflight = 0
        #: Live ``serve_client`` tasks; shutdown drains these.
        self.client_tasks: Set["asyncio.Task[None]"] = set()
        # An unusable store (corrupt file, newer schema) degrades the
        # store-backed routes to 503 instead of killing the server: warm
        # cache reads are most of the traffic and need none of it.
        self.run_store: Optional[RunStore] = None
        self.jobs: Optional[JobStore] = None
        self.store_error: Optional[str] = None
        try:
            self.run_store = RunStore(db)
            self.jobs = JobStore(store=self.run_store)
        except (RunStoreError, sqlite3.Error, OSError) as exc:
            self.store_error = f"{type(exc).__name__}: {exc}"

    def close(self) -> None:
        if self.run_store is not None:
            self.run_store.close()

    def _job_store(self) -> JobStore:
        if self.jobs is None:
            raise _StoreUnavailable(f"run/job store unavailable: {self.store_error}")
        return self.jobs

    def _run_store(self) -> RunStore:
        if self.run_store is None:
            raise _StoreUnavailable(f"run/job store unavailable: {self.store_error}")
        return self.run_store

    # ------------------------------------------------------------ routes

    def handle(
        self, method: str, path: str, query: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        """Dispatch one request; returns ``(status, payload)``."""
        self.requests_total += 1
        try:
            if path == "/health" and method == "GET":
                return 200, {
                    "status": "ok",
                    "profile_cache": str(self.profile_cache.root),
                    "db": str(self.run_store.path) if self.run_store else None,
                }
            if path == "/healthz" and method == "GET":
                return self._healthz()
            if path == "/profile" and method == "GET":
                return self._profile(query)
            if path == "/throughput" and method == "GET":
                return self._throughput(query)
            if path == "/runs" and method == "GET":
                return self._runs(query)
            if path == "/frontier" and method == "GET":
                return self._frontier(query)
            if path == "/jobs" and method == "GET":
                return self._jobs()
            if path == "/jobs" and method == "POST":
                return self._submit(body)
            if path.startswith("/jobs/") and method == "GET":
                return self._job(path[len("/jobs/") :])
            if path in (
                "/health",
                "/healthz",
                "/profile",
                "/throughput",
                "/runs",
                "/frontier",
                "/jobs",
            ):
                return 405, {"error": f"method {method} not allowed on {path}"}
            return 404, {"error": f"no route {path}"}
        except _StoreUnavailable as exc:
            return 503, {"error": str(exc), "status": "degraded"}
        except sqlite3.Error as exc:
            # The store broke *after* open (disk full, file clobbered);
            # answer degraded instead of 500-ing on route internals.
            return 503, {
                "error": f"run/job store error: {type(exc).__name__}: {exc}",
                "status": "degraded",
            }
        except _BadRequest as exc:
            return 400, {"error": str(exc)}
        except (CapstanError, registry.RegistryError) as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - server must answer
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    def _healthz(self) -> Tuple[int, Dict[str, Any]]:
        """Readiness: degraded (but alive) when the store is unusable."""
        degraded = self.jobs is None
        payload: Dict[str, Any] = {
            "status": "degraded" if degraded else "ok",
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "requests_total": self.requests_total,
            "inflight": self.inflight,
            "profile_cache": str(self.profile_cache.root),
        }
        if degraded:
            payload["store_error"] = self.store_error
        else:
            # One cheap store probe so /healthz notices a store that
            # broke after open, not just one that failed to open.
            assert self.run_store is not None
            try:
                self.run_store.connection.execute("SELECT 1").fetchone()
                payload["db"] = str(self.run_store.path)
            except sqlite3.Error as exc:
                payload["status"] = "degraded"
                payload["store_error"] = f"{type(exc).__name__}: {exc}"
        return 200, payload

    def _profile(self, query: Dict[str, str]) -> Tuple[int, Dict[str, Any]]:
        app = query.get("app")
        dataset = query.get("dataset")
        if not app or not dataset:
            raise _BadRequest("profile queries need app= and dataset=")
        spec = registry.get_spec(app)
        if dataset not in spec.datasets:
            raise _BadRequest(
                f"unknown dataset {dataset!r} for {app}; known: {', '.join(spec.datasets)}"
            )
        context = _context_from_query(query)
        key = self.profile_cache.key(app, dataset, context)
        profile = self.profile_cache.load(key)
        if profile is not None:
            return 200, {
                "status": "cached",
                "key": key,
                "profile": profile_to_dict(profile),
            }
        if not _wants_enqueue(query):
            return 404, {"status": "miss", "key": key}
        unit = WorkUnit(
            key=key,
            kind="profile",
            payload={
                "kind": "profile",
                "app": app,
                "dataset": dataset,
                "context": context_to_dict(context),
                "cache_root": str(self.profile_cache.root),
            },
        )
        job = self._job_store().submit(
            JobSpec(name=f"serve:profile:{app}/{dataset}", units=(unit,))
        )
        return 202, {"status": "enqueued", "key": key, "job": job.id, "job_state": job.state}

    def _throughput(self, query: Dict[str, str]) -> Tuple[int, Dict[str, Any]]:
        payload: Dict[str, Any] = {
            "kind": "throughput",
            "ordering": query.get("ordering", "unordered"),
            "bank_mapping": query.get("bank_mapping", "hash"),
            "allocator": query.get("allocator", "separable"),
        }
        try:
            payload["lanes"] = int(query.get("lanes", 16))
            payload["config"] = {
                field: int(query[field])
                for field in ("banks", "queue_depth", "crossbar_inputs")
                if field in query
            }
            variant = throughput_variant(payload)
        except (ValueError, CapstanError) as exc:
            raise _BadRequest(f"bad throughput parameter: {exc}") from None
        key = self.throughput_store.key(variant)
        throughput = self.throughput_store.load(key)
        if throughput is not None:
            return 200, {"status": "cached", "key": key, "throughput": throughput}
        if not _wants_enqueue(query):
            return 404, {"status": "miss", "key": key}
        unit = WorkUnit(key=key, kind="throughput", payload=payload)
        job = self._job_store().submit(
            JobSpec(name=f"serve:throughput:{key[:12]}", units=(unit,))
        )
        return 202, {"status": "enqueued", "key": key, "job": job.id, "job_state": job.state}

    def _runs(self, query: Dict[str, str]) -> Tuple[int, Dict[str, Any]]:
        try:
            limit = int(query.get("limit", 10))
        except ValueError as exc:
            raise _BadRequest(f"bad limit: {exc}") from None
        runs = self._run_store().runs(limit=limit)
        return 200, {
            "runs": [
                {
                    "id": run.id,
                    "created_at": run.created_at,
                    "benchmark": run.benchmark,
                    "scale": run.scale,
                    "workers": run.workers,
                    "label": run.label,
                    "executor": run.record.get("executor"),
                }
                for run in runs
            ]
        }

    def _frontier(self, query: Dict[str, str]) -> Tuple[int, Dict[str, Any]]:
        """Answer from the search store: the latest persisted DSE result."""
        from .search import SearchStore

        store = SearchStore()
        key = query.get("key")
        result = store.load_result(key) if key else store.load_latest_result()
        if result is None:
            return 404, {
                "status": "miss",
                "error": (
                    f"no persisted search result for key {key!r}"
                    if key
                    else "no search has completed yet; run repro-eval dse --search"
                ),
                "store": str(store.root),
            }
        frontier = [
            point
            for point in result.get("points", [])
            if point.get("name") in set(result.get("frontier", ()))
        ]
        return 200, {
            "status": "ok",
            "search_key": result.get("search_key"),
            "strategy": result.get("strategy"),
            "seed": result.get("seed"),
            "objectives": result.get("objectives"),
            "space_size": result.get("space_size"),
            "explored": len(result.get("points", [])),
            "evaluations": result.get("evaluations"),
            "generations": result.get("generations"),
            "frontier": frontier,
        }

    def _jobs(self) -> Tuple[int, Dict[str, Any]]:
        store = self._job_store()
        jobs = []
        for job in store.jobs(limit=50):
            entry = job.to_dict()
            entry["units"] = store.unit_states(job.id)
            jobs.append(entry)
        return 200, {"jobs": jobs}

    def _job(self, raw_id: str) -> Tuple[int, Dict[str, Any]]:
        try:
            job_id = int(raw_id)
        except ValueError:
            raise _BadRequest(f"bad job id {raw_id!r}") from None
        store = self._job_store()
        job = store.job(job_id)
        if job is None:
            return 404, {"error": f"no job {job_id}"}
        payload = job.to_dict()
        payload["units"] = store.unit_states(job_id)
        payload["failed_units"] = [
            {"seq": unit.seq, "kind": unit.kind, "error": unit.error}
            for unit in store.units(job_id, state="failed")
        ]
        payload["dead_units"] = [
            {
                "seq": unit.seq,
                "kind": unit.kind,
                "attempts": unit.attempts,
                "error": unit.error,
            }
            for unit in store.units(job_id, state="dead")
        ]
        return 200, payload

    def _submit(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        try:
            request = json.loads(body.decode() or "{}")
        except ValueError as exc:
            raise _BadRequest(f"bad JSON body: {exc}") from None
        kind = request.get("type")
        apps = request.get("apps")
        context = context_from_dict(request.get("context"))
        if kind == "profile_grid":
            spec = JobSpec.profile_grid(
                apps, context, cache_root=self.profile_cache.root
            )
        elif kind == "dse_grid":
            axes = request.get("axes")
            if not axes:
                raise _BadRequest("dse_grid jobs need a non-empty 'axes' mapping")
            spec = JobSpec.dse_grid(axes, apps=apps, context=context)
        elif kind == "table_suite":
            spec = JobSpec.table_suite(request.get("tables"), scale=request.get("scale"))
        else:
            raise _BadRequest(
                f"unknown job type {kind!r}; known: profile_grid, dse_grid, table_suite"
            )
        store = self._job_store()
        existing = store.job_by_key(spec.key)
        job = store.submit(spec)
        status = 200 if existing is not None else 201
        payload = job.to_dict()
        payload["units"] = store.unit_states(job.id)
        payload["resumed"] = existing is not None
        return status, payload

    # -------------------------------------------------------- HTTP layer

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, int]]:
        """Read the request line + headers; returns (method, target, length)."""
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0], parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = 0
        return method, target, content_length

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter, status: int, payload: Dict[str, Any]
    ) -> None:
        data = json.dumps(payload, default=_json_default).encode()
        phrase = _STATUS_PHRASES.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {phrase}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()

    async def serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One request per connection; minimal HTTP/1.1, JSON responses.

        The whole exchange runs under ``request_timeout_s`` so a stuck or
        malicious client cannot pin a connection open forever, and bodies
        beyond ``max_body_bytes`` are refused without being read.
        """
        task = asyncio.current_task()
        if task is not None:
            self.client_tasks.add(task)
        self.inflight += 1
        try:
            try:
                head = await asyncio.wait_for(
                    self._read_request(reader), self.request_timeout_s
                )
            except asyncio.TimeoutError:
                await self._respond(writer, 408, {"error": "request read timed out"})
                return
            if head is None:
                return
            method, target, content_length = head
            if content_length > self.max_body_bytes:
                await self._respond(
                    writer,
                    413,
                    {
                        "error": (
                            f"body of {content_length} bytes exceeds the"
                            f" {self.max_body_bytes}-byte limit"
                        )
                    },
                )
                return
            if content_length:
                try:
                    body = await asyncio.wait_for(
                        reader.readexactly(content_length), self.request_timeout_s
                    )
                except asyncio.TimeoutError:
                    await self._respond(writer, 408, {"error": "body read timed out"})
                    return
            else:
                body = b""
            split = urlsplit(target)
            query = {
                name: values[-1] for name, values in parse_qs(split.query).items()
            }
            status, payload = self.handle(method.upper(), split.path, query, body)
            await self._respond(writer, status, payload)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            self.inflight -= 1
            if task is not None:
                self.client_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def drain_clients(self, timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S) -> None:
        """Graceful shutdown: wait for in-flight requests, then cancel.

        Call after the listening server is closed -- no new connections
        arrive, existing ones get up to ``timeout_s`` to finish.
        """
        current = asyncio.current_task()
        pending = {task for task in self.client_tasks if task is not current}
        if not pending:
            return
        _, unfinished = await asyncio.wait(pending, timeout=timeout_s)
        for task in unfinished:
            task.cancel()


def drain_pending_jobs(
    db: Optional[Path],
    *,
    stop: threading.Event,
    poll_s: float = 0.25,
    workers: int = 1,
) -> None:
    """Run pending jobs with a local executor until ``stop`` is set.

    Runs on its own thread with its own store connection; this is the
    in-process stand-in for an external worker fleet draining the same
    queue through ``repro-eval sweep --resume``.
    """
    from .executors import LocalExecutor

    executor = LocalExecutor(workers)
    with JobStore(db) as store:
        while not stop.is_set():
            pending = [job for job in store.jobs() if job.state == JOB_PENDING]
            if not pending:
                stop.wait(poll_s)
                continue
            # jobs() is newest-first; drain oldest first.
            store.run_job(pending[-1].id, executor)


def start_drain_thread(db: Optional[Path], stop: threading.Event) -> threading.Thread:
    """Start :func:`drain_pending_jobs` on a daemon thread.

    Call it only once the server's own store is open: two connections
    initializing one fresh database at once can fail the WAL pragma with
    ``database is locked``, which would kill the drain thread silently.
    """
    thread = threading.Thread(
        target=drain_pending_jobs,
        args=(db,),
        kwargs={"stop": stop},
        daemon=True,
        name="repro-serve-drain",
    )
    thread.start()
    return thread


class BackgroundServer:
    """Run a :class:`CacheServer` on a daemon thread (tests, embedding).

    Usage::

        with BackgroundServer(db=db_path, cache_root=cache_dir) as server:
            urlopen(server.url + "/health")
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        db: Optional[Path] = None,
        cache_root: Optional[Path] = None,
        drain: bool = False,
        request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ):
        self.host = host
        self.port = port
        self._db = db
        self._cache_root = cache_root
        self._drain = drain
        self._request_timeout_s = request_timeout_s
        self._max_body_bytes = max_body_bytes
        self._started = threading.Event()
        self._stop = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_async: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, daemon=True, name="repro-serve")
        self._drain_thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "BackgroundServer":
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("serve thread failed to start in time")
        if self._error is not None:
            raise RuntimeError(f"serve thread failed: {self._error}")
        if self._drain:
            self._drain_thread = start_drain_thread(self._db, self._stop)
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._loop is not None and self._stop_async is not None:
            self._loop.call_soon_threadsafe(self._stop_async.set)
        self._thread.join(timeout=10)
        if self._drain_thread is not None:
            self._drain_thread.join(timeout=10)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._error = exc
            self._started.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_async = asyncio.Event()
        handler = CacheServer(
            db=self._db,
            cache_root=self._cache_root,
            request_timeout_s=self._request_timeout_s,
            max_body_bytes=self._max_body_bytes,
        )
        server = await asyncio.start_server(handler.serve_client, self.host, self.port)
        try:
            self.port = server.sockets[0].getsockname()[1]
            self._started.set()
            await self._stop_async.wait()
        finally:
            server.close()
            await server.wait_closed()
            await handler.drain_clients()
            handler.close()


async def _serve_forever(args: argparse.Namespace, stop: threading.Event) -> None:
    db = Path(args.db) if args.db else None
    handler = CacheServer(
        db=db,
        cache_root=Path(args.cache_dir) if args.cache_dir else None,
    )
    if args.drain:
        start_drain_thread(db, stop)
    server = await asyncio.start_server(handler.serve_client, args.host, args.port)
    address = server.sockets[0].getsockname()
    print(f"repro-serve listening on http://{address[0]}:{address[1]}")
    print(f"  profile cache: {handler.profile_cache.root}")
    if handler.run_store is not None:
        print(f"  run/job store: {handler.run_store.path}")
    else:
        print(f"  run/job store: DEGRADED ({handler.store_error})")
    try:
        async with server:
            await server.serve_forever()
    finally:
        server.close()
        await server.wait_closed()
        await handler.drain_clients()
        handler.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve warm profile/throughput/run-history queries from the "
            "content-addressed stores; enqueue jobs for cold ones."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: loopback)")
    parser.add_argument(
        "--port", type=int, default=8642, help="port (default: 8642; 0 = ephemeral)"
    )
    parser.add_argument(
        "--db", default=None, help=f"run/job store (default: $REPRO_RUN_DB or {default_run_db()})"
    )
    parser.add_argument(
        "--cache-dir", default=None, help="profile cache directory (default: the shared cache)"
    )
    parser.add_argument(
        "--drain",
        action="store_true",
        help="also drain enqueued jobs in-process with a local executor",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    stop = threading.Event()
    try:
        asyncio.run(_serve_forever(args, stop))
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
