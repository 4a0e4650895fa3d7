"""Executor conformance suite: one contract, two backends.

Every test in ``TestExecutorConformance`` runs identically against the
local and subprocess executors -- same assertions for ordering,
error propagation, retry accounting, stop-on-error, cancellation, and
threads left behind. Timeouts run against the executors that take a
deadline: only a worker process can be killed. The probe unit kind
(``repro.runtime.jobs``) makes attempt counts observable across process
boundaries by dropping one marker file per execution into a scratch
directory.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.runtime.executors import (
    EXECUTORS,
    LocalExecutor,
    SubprocessExecutor,
)
from repro.runtime.executors import subprocess as subprocess_module
from repro.runtime.executors.base import (
    OUTCOME_CANCELLED,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
)


def _probe(value, **extra):
    payload = {"kind": "probe", "value": value}
    payload.update(extra)
    return payload


def _attempt_markers(scratch) -> int:
    return len(list(scratch.glob("attempt-*"))) if scratch.is_dir() else 0


#: The executors that take a per-unit ``timeout_s``.
DEADLINE_EXECUTORS = sorted(
    name for name, cls in EXECUTORS.items() if "timeout_s" in inspect.signature(cls).parameters
)


def _build(name, workers=1, **policy):
    """The named executor; ``workers`` sizes the subprocess backend only,
    since the local executor is serial and takes no process options."""
    if name == LocalExecutor.name:
        return LocalExecutor(**policy)
    return SubprocessExecutor(workers, **policy)


def _new_threads(before):
    """Threads alive now that were not alive in ``before``."""
    return [thread for thread in threading.enumerate() if thread not in before]


@pytest.fixture(params=["local", "subprocess"])
def executor_name(request):
    return request.param


class TestExecutorConformance:
    def test_results_in_input_order(self, executor_name):
        # Staggered sleeps make completion order differ from input order
        # on the parallel backends; the outcome list must not.
        payloads = [
            _probe(0, sleep_s=0.3),
            _probe(1, sleep_s=0.0),
            _probe(2, sleep_s=0.15),
            _probe(3, sleep_s=0.0),
        ]
        executor = _build(executor_name, workers=4)
        outcomes = executor.run_units(payloads)
        assert [o.status for o in outcomes] == [OUTCOME_OK] * 4
        assert [o.result["value"] for o in outcomes] == [0, 2, 4, 6]
        assert all(o.attempts == 1 for o in outcomes)
        assert all(o.duration_s > 0 for o in outcomes)

    def test_error_propagates_with_summary(self, executor_name):
        executor = _build(executor_name, workers=2)
        outcomes = executor.run_units([_probe(1), _probe(2, boom="exploded")])
        assert outcomes[0].status == OUTCOME_OK
        assert outcomes[1].status == OUTCOME_ERROR
        assert "exploded" in outcomes[1].error
        # The failure site travels too: an exception object in process,
        # a formatted traceback across process boundaries.
        assert outcomes[1].exception is not None or outcomes[1].traceback

    def test_retries_are_bounded_and_counted(self, executor_name, tmp_path):
        scratch = tmp_path / "retry"
        executor = _build(executor_name, retries=2, backoff_s=0.01)
        outcomes = executor.run_units(
            [_probe(5, fail_times=2, scratch=str(scratch))]
        )
        assert outcomes[0].status == OUTCOME_OK
        assert outcomes[0].attempts == 3
        assert _attempt_markers(scratch) == 3

    def test_retries_exhausted_reports_error(self, executor_name, tmp_path):
        scratch = tmp_path / "exhaust"
        executor = _build(executor_name, retries=1, backoff_s=0.01)
        outcomes = executor.run_units(
            [_probe(5, fail_times=10, scratch=str(scratch))]
        )
        assert outcomes[0].status == OUTCOME_ERROR
        assert outcomes[0].attempts == 2
        assert _attempt_markers(scratch) == 2

    @pytest.mark.parametrize("executor_name", DEADLINE_EXECUTORS)
    def test_timeout_reported(self, executor_name):
        executor = _build(executor_name, timeout_s=0.3)
        outcomes = executor.run_units([_probe(1, sleep_s=2.0), _probe(2)])
        assert outcomes[0].status == OUTCOME_TIMEOUT
        assert "timeout" in outcomes[0].error
        # The well-behaved unit still completes.
        assert outcomes[1].status == OUTCOME_OK
        assert outcomes[1].result["value"] == 4

    def test_stop_on_error_cancels_outstanding(self, executor_name):
        executor = _build(executor_name)
        payloads = [_probe(1), _probe(2, boom="first failure"), _probe(3), _probe(4)]
        outcomes = executor.run_units(payloads, stop_on_error=True)
        assert outcomes[0].status == OUTCOME_OK
        assert outcomes[1].status == OUTCOME_ERROR
        assert {o.status for o in outcomes[2:]} == {OUTCOME_CANCELLED}
        assert all(o.attempts == 0 for o in outcomes[2:])

    def test_cancel_mid_run(self, executor_name, tmp_path):
        scratch = tmp_path / "cancel"
        executor = _build(executor_name)
        payloads = [_probe(i, sleep_s=0.4, scratch=str(scratch)) for i in range(8)]

        # Cancel once the second unit has *started* (its attempt marker
        # appears); with one worker that means the first unit finished.
        # A wall-clock timer would race worker startup cost.
        def cancel_after_second_start() -> None:
            deadline = time.perf_counter() + 30.0
            while time.perf_counter() < deadline:
                if _attempt_markers(scratch) >= 2:
                    executor.cancel()
                    return
                time.sleep(0.02)

        watcher = threading.Thread(target=cancel_after_second_start, daemon=True)
        watcher.start()
        started = time.perf_counter()
        outcomes = executor.run_units(payloads)
        elapsed = time.perf_counter() - started
        watcher.join(timeout=5)
        # Serial 8 x 0.4s would take >3.2s of sleep alone; cancellation
        # after ~2 units must cut that short even with startup overhead.
        assert elapsed < 3.0
        statuses = [o.status for o in outcomes]
        assert OUTCOME_CANCELLED in statuses
        assert statuses[0] == OUTCOME_OK  # work before the cancel stands
        assert len(outcomes) == len(payloads)

    def test_executes_real_profile_unit(self, executor_name, tmp_path):
        # The same payload a sharded sweep persists: one registry cell,
        # cached under an explicit root.
        from repro.apps.profile import WorkloadProfile
        from repro.runtime.jobs import context_to_dict
        from repro.runtime.registry import RunContext

        payload = {
            "kind": "profile",
            "app": "spmv-csr",
            "dataset": "ckt11752_dc_1",
            "context": context_to_dict(RunContext(scale=1 / 512)),
            "cache_root": str(tmp_path / "cache"),
        }
        executor = _build(executor_name)
        outcomes = executor.run_units([payload])
        assert outcomes[0].status == OUTCOME_OK
        assert isinstance(outcomes[0].result, WorkloadProfile)
        assert len(list((tmp_path / "cache").glob("*.json"))) == 1

    def test_no_thread_outlives_the_run(self, executor_name):
        before = threading.enumerate()
        executor = _build(executor_name, workers=2)
        outcomes = executor.run_units(
            [_probe(1, sleep_s=0.1), _probe(2, boom="exploded"), _probe(3)]
        )
        assert [o.status for o in outcomes] == [OUTCOME_OK, OUTCOME_ERROR, OUTCOME_OK]
        assert not _new_threads(before)

    @pytest.mark.parametrize("executor_name", DEADLINE_EXECUTORS)
    def test_no_thread_outlives_a_timed_out_unit(self, executor_name, tmp_path):
        # Every attempt of a unit that keeps overrunning is stopped, not
        # left running beside the next one.
        scratch = tmp_path / "markers"
        before = threading.enumerate()
        executor = _build(executor_name, timeout_s=0.3, retries=2, backoff_s=0.0)
        outcome, = executor.run_units([_probe(1, sleep_s=1.5, scratch=str(scratch))])
        assert outcome.status == OUTCOME_TIMEOUT
        assert outcome.attempts == 3
        assert _attempt_markers(scratch) == 3
        assert not _new_threads(before)


class TestExecutorRegistry:
    def test_names(self):
        assert EXECUTORS == {"local": LocalExecutor, "subprocess": SubprocessExecutor}
        assert DEADLINE_EXECUTORS == ["subprocess"]

    def test_unknown_name_rejected(self):
        from repro.errors import ConfigurationError
        from repro.runtime.runner import ExperimentRunner

        runner = ExperimentRunner(cache=False, executor="ssh-someday")
        with pytest.raises(ConfigurationError, match="unknown executor 'ssh-someday'"):
            runner.run(apps=["spmv-csr"])

    def test_local_takes_no_process_options(self):
        # An in-process unit can be neither stopped nor spread over
        # processes, so the local executor refuses both options.
        with pytest.raises(TypeError, match="timeout_s"):
            LocalExecutor(timeout_s=1.0)
        with pytest.raises(TypeError, match="workers"):
            LocalExecutor(workers=2)
        with pytest.raises(TypeError):
            LocalExecutor(2)
        assert LocalExecutor.workers == 1

    def test_options_forwarded(self):
        command = [sys.executable, "-m", "repro.runtime.cli"]
        executor = SubprocessExecutor(7, timeout_s=1.5, retries=2, command=command)
        assert executor.workers == 7
        assert executor.timeout_s == 1.5
        assert executor.retries == 2
        assert executor.command == command

    def test_subprocess_worker_crash_surfaces_as_error(self):
        # A worker whose process dies mid-unit must not hang the run.
        executor = SubprocessExecutor(workers=1, command=["false"])
        outcomes = executor.run_units([_probe(1)])
        assert outcomes[0].status == OUTCOME_ERROR


#: Runs one 30 s probe unit under a 0.5 s timeout on the named executor, then
#: exits; the unit drops a marker naming the process that ran it.
_HARD_CAP_SCRIPT = """
import sys
from repro.runtime.executors import EXECUTORS
executor = EXECUTORS[sys.argv[1]](timeout_s=0.5)
outcome, = executor.run_units(
    [{"kind": "probe", "value": 1, "sleep_s": 30.0, "scratch": sys.argv[2]}]
)
print(outcome.status)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie awaiting its reaper is not)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    stat = Path(f"/proc/{pid}/stat")
    return not stat.exists() or stat.read_text().rsplit(")", 1)[1].split()[0] != "Z"


class TestHardTimeout:
    @pytest.mark.parametrize("name", DEADLINE_EXECUTORS)
    def test_timed_out_unit_does_not_outlive_its_run(self, name, tmp_path):
        # timeout_s is a hard cap: once run_units reports the timeout, the
        # driver exits at once and no process is still running the unit.
        scratch = tmp_path / "markers"
        started = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-c", _HARD_CAP_SCRIPT, name, str(scratch)],
            env=subprocess_module._worker_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        elapsed = time.perf_counter() - started
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["timeout"]
        assert elapsed < 10.0
        pids = [int(marker.name.split("-")[1]) for marker in scratch.glob("attempt-*")]
        assert pids  # the unit did start
        assert not [pid for pid in pids if _running(pid)]


def _marker_pids(scratch: Path) -> set:
    """The pids of the processes that ran probe units (from marker names)."""
    return {int(marker.name.split("-")[1]) for marker in scratch.rglob("attempt-*")}


#: Runs two waves of two probe units in a ``with SubprocessExecutor(2)``
#: block (raising KeyboardInterrupt after the first wave when asked), then
#: reports that the block closed and waits for stdin to close.
_WITH_BLOCK_SCRIPT = """
import sys
from repro.runtime.executors import SubprocessExecutor
try:
    with SubprocessExecutor(2) as executor:
        for wave in range(2):
            executor.run_units(
                [{"kind": "probe", "value": i, "scratch": sys.argv[1]} for i in range(2)]
            )
            if sys.argv[2] == "interrupt":
                raise KeyboardInterrupt
except KeyboardInterrupt:
    pass
print("closed", flush=True)
sys.stdin.read()
"""


class TestWorkerLifetime:
    """Subprocess workers live as long as their executor, not one run."""

    def test_one_worker_per_slot_serves_every_wave_of_a_job(self, tmp_path):
        from repro.runtime.jobs import JOB_DONE, JobSpec, JobStore

        scratch = tmp_path / "markers"
        with JobStore(tmp_path / "runs.sqlite") as store, SubprocessExecutor(2) as executor:
            job = store.submit(JobSpec.probes(6, scratch=scratch))
            summary = store.run_job(job.id, executor)  # three waves of two
        assert summary.state == JOB_DONE
        assert len(list(scratch.rglob("attempt-*"))) == 6
        assert 1 <= len(_marker_pids(scratch)) <= 2

    @pytest.mark.parametrize("body", ["clean", "interrupt"])
    def test_no_worker_outlives_the_with_block(self, body, tmp_path):
        # The check runs while the driver is still alive: its exit would
        # close the workers' stdin and end them whether or not it closed.
        scratch = tmp_path / "markers"
        child = subprocess.Popen(
            [sys.executable, "-c", _WITH_BLOCK_SCRIPT, str(scratch), body],
            env=subprocess_module._worker_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert child.stdout.readline().split() == ["closed"]
            pids = _marker_pids(scratch)
            assert pids  # the units did run
            assert not [pid for pid in pids if _running(pid)]
        finally:
            child.communicate(timeout=60)
        assert child.returncode == 0


    def test_close_lets_idle_workers_exit_normally(self):
        # EOF on stdin ends an idle worker's loop: it exits 0 and runs its
        # exit hooks, where a kill would leave -SIGKILL.
        executor = SubprocessExecutor(2)
        outcomes = executor.run_units([_probe(i) for i in range(2)])
        assert [outcome.status for outcome in outcomes] == [OUTCOME_OK] * 2
        procs = [worker.proc for worker in executor._slots if worker is not None]
        assert procs
        executor.close()
        assert [proc.returncode for proc in procs] == [0] * len(procs)


class TestSubprocessStartup:
    def test_startup_stall_is_an_error_not_a_unit_timeout(self, monkeypatch):
        # A worker that never answers its handshake ran no unit: the
        # attempt is an error naming the handshake, and the retry spawns
        # a fresh worker (which stalls too) instead of reusing the first.
        monkeypatch.setattr(subprocess_module, "WARMUP_TIMEOUT_S", 0.5)
        spawned = []
        spawn = subprocess_module._Worker.__init__

        def counting_spawn(worker, command):
            spawn(worker, command)
            spawned.append(worker.proc.pid)

        monkeypatch.setattr(subprocess_module._Worker, "__init__", counting_spawn)
        executor = SubprocessExecutor(
            workers=1,
            timeout_s=5.0,
            retries=1,
            command=[sys.executable, "-c", "import time; time.sleep(60)"],
        )
        started = time.perf_counter()
        outcome, = executor.run_units([_probe(1)])
        assert time.perf_counter() - started < 10.0
        assert outcome.status == OUTCOME_ERROR
        assert "start-up handshake" in outcome.error and "0.5s" in outcome.error
        assert outcome.attempts == 2
        assert len(set(spawned)) == 2
        assert not [pid for pid in spawned if _running(pid)]


class TestBackoffJitter:
    def test_seeded_jitter_is_deterministic(self):
        first = LocalExecutor(backoff_s=0.1, seed=42)
        second = LocalExecutor(backoff_s=0.1, seed=42)
        other = LocalExecutor(backoff_s=0.1, seed=43)
        attempts = list(range(1, 8))
        schedule = [first._backoff_delay(n) for n in attempts]
        assert schedule == [second._backoff_delay(n) for n in attempts]
        assert schedule != [other._backoff_delay(n) for n in attempts]

    def test_full_jitter_stays_under_the_exponential_cap(self):
        executor = LocalExecutor(backoff_s=0.1, seed=7)
        for attempt in range(1, 10):
            cap = 0.1 * 2 ** (attempt - 1)
            assert 0.0 <= executor._backoff_delay(attempt) <= cap

    def test_cap_doubles_with_each_attempt(self):
        # Each attempt's draws reach past the previous attempt's cap, so
        # the spread really grows rather than staying at the base.
        executor = LocalExecutor(backoff_s=0.1, seed=1)
        for attempt in range(1, 5):
            cap = 0.1 * 2 ** (attempt - 1)
            widest = max(executor._backoff_delay(attempt) for _ in range(200))
            assert cap / 2 < widest <= cap

    def test_zero_backoff_never_sleeps(self):
        executor = LocalExecutor(backoff_s=0.0, seed=5)
        assert [executor._backoff_delay(n) for n in range(1, 6)] == [0.0] * 5

    def test_negative_backoff_clamps_to_zero(self):
        executor = LocalExecutor(backoff_s=-1.0, seed=5)
        assert executor.backoff_s == 0.0
        assert executor._backoff_delay(3) == 0.0

    def test_every_backend_takes_the_shared_backoff(self, executor_name):
        # The subprocess constructor forwards backoff_s and seed to the
        # base class like the others: same seed, same retry schedule.
        executor = _build(executor_name, backoff_s=0.2, seed=11)
        twin = LocalExecutor(backoff_s=0.2, seed=11)
        attempts = list(range(1, 6))
        assert executor.backoff_s == 0.2
        assert [executor._backoff_delay(n) for n in attempts] == [
            twin._backoff_delay(n) for n in attempts
        ]


class TestErrorClassification:
    def test_permanent_error_skips_retries(self, executor_name):
        # An unknown unit kind raises UnitSpecError on every worker in
        # existence; the retry budget must not be spent on it.
        executor = _build(executor_name, retries=3, backoff_s=0.01)
        outcomes = executor.run_units([{"kind": "no_such_kind"}])
        assert outcomes[0].status == OUTCOME_ERROR
        assert outcomes[0].attempts == 1
        assert outcomes[0].classification == "permanent"
        assert "unknown work-unit kind" in outcomes[0].error

    def test_transient_failures_keep_their_retries(self, executor_name, tmp_path):
        scratch = tmp_path / "transient"
        executor = _build(executor_name, retries=1, backoff_s=0.01)
        outcomes = executor.run_units(
            [_probe(1, fail_times=10, scratch=str(scratch))]
        )
        assert outcomes[0].status == OUTCOME_ERROR
        assert outcomes[0].attempts == 2
        assert outcomes[0].classification == "transient"

    def test_ok_outcomes_carry_no_classification(self, executor_name):
        executor = _build(executor_name)
        outcomes = executor.run_units([_probe(1)])
        assert outcomes[0].status == OUTCOME_OK
        assert outcomes[0].classification is None


class TestCancellationRaces:
    def test_cancel_during_backoff_sleep(self):
        # Seed 2 draws a first backoff of ~28.7s (a same-seed twin shows
        # it); the cancel must wake the sleeper instead of letting it doze.
        assert LocalExecutor(backoff_s=30.0, seed=2)._backoff_delay(1) > 20.0
        executor = LocalExecutor(retries=5, backoff_s=30.0, seed=2)
        timer = threading.Timer(0.3, executor.cancel)
        timer.start()
        started = time.perf_counter()
        outcomes = executor.run_units([_probe(1, boom="always")])
        elapsed = time.perf_counter() - started
        timer.cancel()
        assert elapsed < 5.0
        assert outcomes[0].status == OUTCOME_CANCELLED
        assert outcomes[0].attempts == 1  # the pre-cancel attempt stands

    def test_cancel_mid_subprocess_handshake(self):
        # A worker command that never answers the warmup probe: cancel
        # must kill it and return promptly, not wait out the warmup cap.
        import sys as _sys

        executor = SubprocessExecutor(
            workers=1, command=[_sys.executable, "-c", "import time; time.sleep(600)"]
        )
        timer = threading.Timer(0.5, executor.cancel)
        timer.start()
        started = time.perf_counter()
        outcomes = executor.run_units([_probe(1), _probe(2)])
        elapsed = time.perf_counter() - started
        timer.cancel()
        assert elapsed < 30.0
        assert {o.status for o in outcomes} == {OUTCOME_CANCELLED}

    def test_cancel_while_a_grandchild_holds_the_pipe(self):
        # The silent worker's own child inherits its stdout, so killing the
        # worker brings no EOF for 15s: the blocked read must notice the
        # cancel itself rather than wait for the pipe or the warmup cap.
        import sys as _sys

        code = (
            "import subprocess, sys, time; "
            "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(15)']); "
            "time.sleep(600)"
        )
        executor = SubprocessExecutor(workers=1, command=[_sys.executable, "-c", code])
        timer = threading.Timer(0.5, executor.cancel)
        timer.start()
        started = time.perf_counter()
        outcomes = executor.run_units([_probe(1)])
        elapsed = time.perf_counter() - started
        timer.cancel()
        assert elapsed < 10.0
        assert [o.status for o in outcomes] == [OUTCOME_CANCELLED]

    def test_cancel_while_the_worker_spawns(self, monkeypatch):
        # cancel() lands after the drain loop's check but before the new
        # worker is registered, so cancel's kill list misses it: the
        # spawn itself must notice, not wait out the warmup cap.
        import sys as _sys

        from repro.runtime.executors import subprocess as subprocess_module

        executor = SubprocessExecutor(
            workers=1, command=[_sys.executable, "-c", "import time; time.sleep(600)"]
        )
        spawn = subprocess_module._Worker.__init__

        def cancel_then_spawn(worker, command):
            executor.cancel()
            spawn(worker, command)

        monkeypatch.setattr(subprocess_module, "WARMUP_TIMEOUT_S", 20.0)
        monkeypatch.setattr(subprocess_module._Worker, "__init__", cancel_then_spawn)
        started = time.perf_counter()
        outcomes = executor.run_units([_probe(1), _probe(2)])
        assert time.perf_counter() - started < 10.0
        assert {o.status for o in outcomes} == {OUTCOME_CANCELLED}
