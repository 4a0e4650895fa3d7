"""Subprocess executor: persistent ``repro-eval worker`` children.

Each of the ``workers`` slots keeps one worker process from its first unit
until ``close()``, across ``run_units`` calls (the job store's claim
waves), so start-up is paid once per executor, not once per call. The
slot's driver speaks a JSON-lines protocol over the worker's stdin/stdout::

    -> {"id": 1, "warmup": true}
    <- {"id": 1, "ok": true}
    -> {"id": 7, "payload": {"kind": "profile", ...}}
    <- {"id": 7, "ok": true, "result": {...}, "duration_s": 0.42}
    <- {"id": 8, "ok": false, "error": "...", "traceback": "...", ...}

The ``warmup`` handshake opens every fresh worker's conversation. It runs
no unit, under its own ``WARMUP_TIMEOUT_S`` cap, so interpreter startup
never counts against a unit's ``timeout_s`` and no unit fault fires on it.
A worker that overruns the cap is retired and its attempt reports an
``error`` naming the handshake, not a unit timeout: no unit ran.

The worker command is an arbitrary prefix (default: this interpreter
running ``repro.runtime.cli``) with ``worker`` appended -- the SSH-shaped
seam: point ``command`` at ``["ssh", "host", "repro-eval"]`` and the same
executor drives remote workers, because everything a unit needs travels
in its payload and results come back as JSON.

A timed-out unit is *actually* killed (the worker process is terminated
and respawned), so ``timeout_s`` is a hard cap and no attempt outlives its
run.
Results are deserialized per unit kind, so callers see the same native
objects the in-process executor returns.

Any conversation failure -- the worker died, overran its deadline, or
emitted a malformed or truncated protocol line -- retires that worker, and
the slot's next attempt spawns a fresh one: one corrupted line must not
fail every unit subsequently routed to that worker. ``cancel()`` kills
every worker too; nothing else replaces one, so a worker keeps what it
inherited at spawn (a fault plan's ``REPRO_FAULT_PLAN``, say).

``close()`` lets a worker exit normally: EOF on its stdin ends the
worker's request loop, so its interpreter shuts down and runs its exit
hooks. Only a worker still alive after ``CLOSE_GRACE_S`` is killed.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from ...errors import CapstanError
from ..jobs import deserialize_result
from .base import (
    OUTCOME_CANCELLED,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    Executor,
    UnitOutcome,
    WorkerError,
)


def default_worker_command() -> List[str]:
    """The local worker command: this interpreter running the CLI module."""
    return [sys.executable, "-m", "repro.runtime.cli"]


#: Generous cap on worker startup (interpreter + imports), separate from the
#: per-unit ``timeout_s`` so slow spawns never masquerade as unit timeouts.
WARMUP_TIMEOUT_S = 120.0

#: Longest a blocked read sleeps before re-checking for an interrupt.
INTERRUPT_POLL_S = 0.1

#: How long ``close()`` waits for workers to exit on EOF before it kills
#: the ones still running.
CLOSE_GRACE_S = 2.0


def _worker_env() -> Dict[str, str]:
    """Child environment with this package importable.

    Tests (and editable checkouts) run via ``PYTHONPATH=src`` without an
    installed distribution; prepending the package parent keeps
    ``python -m repro.runtime.cli`` resolvable in the child regardless.
    """
    import repro

    env = dict(os.environ)
    package_parent = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    if existing:
        if package_parent not in existing.split(os.pathsep):
            env["PYTHONPATH"] = package_parent + os.pathsep + existing
    else:
        env["PYTHONPATH"] = package_parent
    return env


class _WorkerDied(CapstanError):
    """The worker process exited (or its pipe closed) mid-conversation, or
    never finished its start-up handshake."""


class _ProtocolError(CapstanError):
    """The worker corrupted the JSON-lines protocol (malformed line).

    A worker that garbles its protocol channel cannot be trusted with the
    next unit either -- the caller kills and respawns it.
    """


class _Worker:
    """One persistent worker process and its line-framed conversation."""

    def __init__(self, command: List[str]):
        self.proc = subprocess.Popen(
            list(command) + ["worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=_worker_env(),
        )
        self._buffer = bytearray()
        self._next_id = 0
        self.interrupted = False
        stdout = self.proc.stdout
        assert stdout is not None
        os.set_blocking(stdout.fileno(), False)

    def interrupt(self) -> None:
        """Kill the process on behalf of another thread (``cancel()``).

        The pipes stay open: closing them under the thread blocked in
        :meth:`_read_line` would drop the fd from its selector, which then
        sleeps out the whole deadline. That thread sees the flag (or EOF),
        raises :class:`_WorkerDied`, and retires the worker itself.
        """
        self.interrupted = True
        self.proc.kill()

    def finish(self) -> None:
        """Ask the worker to exit: EOF on stdin ends its request loop."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        # Reap and close pipes; idempotent.
        try:
            self.proc.wait(timeout=5)
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass

    def request(self, payload: Dict[str, Any], timeout_s: Optional[float]) -> Dict[str, Any]:
        """Send one unit, block for its response line.

        Raises :class:`TimeoutError` past ``timeout_s`` (caller kills the
        worker) and :class:`_WorkerDied` if the process goes away.
        """
        return self._converse({"payload": payload}, timeout_s)

    def warm_up(self) -> None:
        """Block until the worker answers the spawn handshake.

        The handshake executes no unit, so an armed unit fault cannot turn
        it into a stall that only ``WARMUP_TIMEOUT_S`` would cut. A worker
        that overruns the cap raises :class:`_WorkerDied`, not a unit
        :class:`TimeoutError`.
        """
        try:
            self._converse({"warmup": True}, WARMUP_TIMEOUT_S)
        except TimeoutError:
            raise _WorkerDied(
                f"worker start-up handshake exceeded its {WARMUP_TIMEOUT_S:g}s cap"
            ) from None

    def _converse(self, message: Dict[str, Any], timeout_s: Optional[float]) -> Dict[str, Any]:
        self._next_id += 1
        request_id = self._next_id
        line = json.dumps({"id": request_id, **message}) + "\n"
        stdin = self.proc.stdin
        assert stdin is not None
        try:
            stdin.write(line.encode())
            stdin.flush()
        except (OSError, ValueError) as exc:
            # ValueError: close() shut the pipe under this request.
            raise _WorkerDied(f"worker stdin closed: {exc}") from None
        deadline = None if timeout_s is None else time.perf_counter() + timeout_s
        while True:
            raw = self._read_line(deadline)
            try:
                response = json.loads(raw)
            except ValueError:
                # A corrupted protocol channel means lost responses and
                # misattributed results; surface it so the caller replaces
                # the worker (skipping the line would silently poison
                # every later unit routed here).
                snippet = raw[:80].decode("utf-8", errors="replace")
                raise _ProtocolError(
                    f"worker emitted a malformed protocol line: {snippet!r}"
                ) from None
            if not isinstance(response, dict):
                raise _ProtocolError(
                    f"worker emitted a non-object protocol line: {raw[:80]!r}"
                )
            if response.get("id") == request_id:
                return response

    def _read_line(self, deadline: Optional[float]) -> bytes:
        stdout = self.proc.stdout
        assert stdout is not None
        fd = stdout.fileno()
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while True:
                newline = self._buffer.find(b"\n")
                if newline >= 0:
                    line = bytes(self._buffer[:newline])
                    del self._buffer[: newline + 1]
                    return line
                if self.interrupted:
                    raise _WorkerDied("worker killed by cancel")
                wait = INTERRUPT_POLL_S
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        raise TimeoutError("worker response deadline exceeded")
                    wait = min(wait, remaining)
                if not selector.select(wait):
                    continue  # timed out or spurious wakeup; re-check deadline
                try:
                    chunk = os.read(fd, 65536)
                except BlockingIOError:
                    continue
                except OSError as exc:
                    raise _WorkerDied(f"worker stdout error: {exc}") from None
                if not chunk:
                    raise _WorkerDied(
                        f"worker exited (code {self.proc.poll()}) before responding"
                    )
                self._buffer.extend(chunk)


class SubprocessExecutor(Executor):
    """Executor fanning units out over persistent worker subprocesses.

    Args:
        workers: Worker process count (one slot each).
        timeout_s: Per-unit attempt cap in seconds (``None`` = unlimited);
            an overrunning unit's worker is killed, so the cap is hard.
        command: Worker command prefix; ``worker`` is appended. Defaults
            to :func:`default_worker_command`.
        (plus the shared ``retries``/``backoff_s``/``seed``.)
    """

    name = "subprocess"

    def __init__(
        self,
        workers: int = 1,
        *,
        timeout_s: Optional[float] = None,
        retries: int = 0,
        backoff_s: float = 0.05,
        seed: Optional[int] = None,
        command: Optional[List[str]] = None,
    ):
        super().__init__(retries=retries, backoff_s=backoff_s, seed=seed)
        self.workers = max(1, int(workers))
        self.timeout_s = timeout_s
        self.command = list(command) if command is not None else default_worker_command()
        self._slots: List[Optional[_Worker]] = [None] * self.workers
        self._slots_lock = threading.Lock()

    def cancel(self) -> None:
        """Cancel the run and kill live workers (interrupts blocked reads)."""
        super().cancel()
        with self._slots_lock:
            workers = [worker for worker in self._slots if worker is not None]
        for worker in workers:
            worker.interrupt()

    def close(self) -> None:
        """Cancel any run still in flight and retire every worker.

        Every worker gets EOF and ``CLOSE_GRACE_S`` to exit on its own;
        :meth:`cancel` then kills whatever is still alive.
        """
        Executor.cancel(self)  # no further attempt starts meanwhile
        with self._slots_lock:
            workers = [worker for worker in self._slots if worker is not None]
        for worker in workers:
            worker.finish()
        deadline = time.perf_counter() + CLOSE_GRACE_S
        for worker in workers:
            try:
                worker.proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                pass
        self.cancel()
        for slot in range(self.workers):
            self._retire(slot)

    def __del__(self) -> None:
        # An executor dropped without close() must not strand its workers.
        if hasattr(self, "_slots"):
            self.close()

    # ------------------------------------------------------ worker mgmt

    def _obtain(self, slot: int) -> _Worker:
        """The slot's live worker, spawning and warming one if it has none."""
        worker = self._slots[slot]
        if worker is not None and not worker.interrupted and worker.proc.poll() is None:
            return worker
        self._retire(slot)
        worker = _Worker(self.command)
        with self._slots_lock:
            self._slots[slot] = worker
        if self.cancelled():
            # cancel() may have listed the live workers before this one
            # joined them, and would then never kill it.
            raise _WorkerDied("run cancelled while the worker spawned")
        # Warm the fresh worker with a handshake so its startup cost
        # (interpreter + imports) is paid here, not inside the first
        # real unit's timeout window.
        worker.warm_up()
        return worker

    def _retire(self, slot: int) -> None:
        with self._slots_lock:
            worker, self._slots[slot] = self._slots[slot], None
        if worker is not None:
            worker.kill()

    def _attempt(self, slot: int, payload: Dict[str, Any]) -> UnitOutcome:
        start = time.perf_counter()
        try:
            worker = self._obtain(slot)
            response = worker.request(payload, self.timeout_s)
        except TimeoutError:
            self._retire(slot)  # the overrunning unit dies with its worker
            return UnitOutcome(
                status=OUTCOME_TIMEOUT,
                error=f"unit exceeded {self.timeout_s:g}s timeout",
                duration_s=time.perf_counter() - start,
            )
        except (_ProtocolError, _WorkerDied, OSError) as exc:
            # A dead, stalled or garbling worker is retired; the next attempt
            # on this slot spawns a fresh one instead of reusing it.
            self._retire(slot)
            if self.cancelled():
                return UnitOutcome(status=OUTCOME_CANCELLED)
            return UnitOutcome(
                status=OUTCOME_ERROR,
                error=str(exc),
                duration_s=time.perf_counter() - start,
            )
        duration = float(response.get("duration_s", time.perf_counter() - start))
        if response.get("ok"):
            result = deserialize_result(payload["kind"], response.get("result"))
            return UnitOutcome(status=OUTCOME_OK, result=result, duration_s=duration)
        error = response.get("error") or "worker reported failure"
        traceback_text = response.get("traceback")
        return UnitOutcome(
            status=OUTCOME_ERROR,
            error=error,
            traceback=traceback_text,
            exception=WorkerError(error, traceback_text),
            duration_s=duration,
        )
