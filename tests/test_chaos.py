"""Chaos suite: the hardening invariants under injected faults.

Every test drives a real store/executor stack with a seeded
:class:`~repro.runtime.faults.FaultPlan` and asserts the invariants the
robustness work claims: no lost or double-committed units (attempt
markers prove exactly-once execution), byte-identical cache output
versus a fault-free run, dead-lettering after ``max_attempts``, and two
concurrent ``run_job`` claimants never double-running a unit.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.runtime.executors import LocalExecutor, SubprocessExecutor
from repro.runtime.executors.subprocess import WARMUP_TIMEOUT_S, _worker_env
from repro.runtime.faults import (
    PROTOCOL_FAULT_KINDS,
    UNIT_FAULT_KINDS,
    Fault,
    FaultPlan,
    FaultyExecutor,
)
from repro.runtime.jobs import (
    JOB_DONE,
    JOB_FAILED,
    UNIT_DEAD,
    UNIT_DONE,
    JobSpec,
    JobStore,
    WorkUnit,
)


def _markers(scratch: Path, unit: int) -> int:
    root = scratch / f"unit-{unit}"
    return len(list(root.glob("attempt-*"))) if root.is_dir() else 0


def _probe(value, **extra):
    payload = {"kind": "probe", "value": value}
    payload.update(extra)
    return payload


class TestWorkerFaults:
    """Process-level faults against the subprocess backend."""

    def test_crash_mid_unit_respawns_and_retries(self, tmp_path):
        # The worker os._exit()s inside the unit; the executor must see a
        # dead worker, respawn, and complete the unit on the retry.
        plan = FaultPlan(
            [Fault(kind="crash", times=1)], state_dir=str(tmp_path / "faults")
        )
        executor = SubprocessExecutor(workers=1, retries=1, backoff_s=0.01)
        with plan.installed():
            outcomes = executor.run_units([_probe(3)])
        assert outcomes[0].status == "ok"
        assert outcomes[0].result["value"] == 6
        assert outcomes[0].attempts == 2

    def test_consecutive_worker_failures_respawn_at_once(self, tmp_path):
        # Three worker failures in a row on one slot (a crash, then a
        # garbage line, then a torn line): every retry gets a fresh worker
        # straight away, and the slot keeps serving the next unit.
        plan = FaultPlan(
            [
                Fault(kind="crash", times=1),
                Fault(kind="malformed_line", times=1),
                Fault(kind="truncated_line", times=1),
            ],
            state_dir=str(tmp_path / "faults"),
        )
        executor = SubprocessExecutor(workers=1, retries=3, backoff_s=0.0)
        started = time.perf_counter()
        with plan.installed():
            outcomes = executor.run_units([_probe(3), _probe(4)])
        elapsed = time.perf_counter() - started
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert [o.result["value"] for o in outcomes] == [6, 8]
        assert [o.attempts for o in outcomes] == [4, 1]
        assert elapsed < WARMUP_TIMEOUT_S / 4

    def test_hang_is_cut_by_timeout_and_retried(self, tmp_path):
        plan = FaultPlan(
            [Fault(kind="hang", times=1)], state_dir=str(tmp_path / "faults")
        )
        executor = SubprocessExecutor(workers=1, timeout_s=1.0, retries=1, backoff_s=0.01)
        started = time.perf_counter()
        with plan.installed():
            outcomes = executor.run_units([_probe(3)])
        elapsed = time.perf_counter() - started
        assert outcomes[0].status == "ok"
        assert outcomes[0].attempts == 2
        # The hang fires on the unit, not the spawn handshake, so the 1s
        # unit cap cuts it -- not the much longer warmup cap.
        assert elapsed < WARMUP_TIMEOUT_S / 4

    @pytest.mark.parametrize("kind", UNIT_FAULT_KINDS + PROTOCOL_FAULT_KINDS)
    def test_first_unit_takes_the_fault_not_the_warmup(self, tmp_path, kind):
        # unit_index=0 arms on the first unit a worker process executes. The
        # spawn handshake is not a unit, so the real unit pays the fault and
        # one retry; the fault is never fired (or spent) on the warmup.
        plan = FaultPlan(
            [Fault(kind=kind, unit_index=0, times=1, delay_s=5.0 if kind == "slow" else 0.0)],
            state_dir=str(tmp_path / "faults"),
        )
        executor = SubprocessExecutor(workers=1, timeout_s=1.0, retries=1, backoff_s=0.01)
        started = time.perf_counter()
        with plan.installed():
            outcomes = executor.run_units([_probe(3)])
        elapsed = time.perf_counter() - started
        assert outcomes[0].status == "ok"
        assert outcomes[0].result["value"] == 6
        assert outcomes[0].attempts == 2
        assert elapsed < WARMUP_TIMEOUT_S / 4

    def test_slow_start_is_absorbed_by_the_warmup(self, tmp_path):
        # A worker that stalls before answering anything costs the spawn
        # handshake time, not the unit's timeout or an attempt.
        plan = FaultPlan(
            [Fault(kind="slow_start", delay_s=2.0, times=1)],
            state_dir=str(tmp_path / "faults"),
        )
        executor = SubprocessExecutor(workers=1, timeout_s=1.0, retries=0)
        with plan.installed():
            outcomes = executor.run_units([_probe(3)])
        assert outcomes[0].status == "ok"
        assert outcomes[0].attempts == 1

    def test_malformed_line_kills_worker_not_the_run(self, tmp_path):
        # A garbage protocol line must cost one attempt on a fresh worker,
        # not poison every later unit on the same connection.
        plan = FaultPlan(
            [Fault(kind="malformed_line", times=1)],
            state_dir=str(tmp_path / "faults"),
        )
        executor = SubprocessExecutor(workers=1, retries=1, backoff_s=0.01)
        with plan.installed():
            outcomes = executor.run_units([_probe(1), _probe(2)])
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert outcomes[0].attempts == 2
        assert outcomes[1].attempts == 1

    def test_truncated_line_surfaces_as_dead_worker(self, tmp_path):
        plan = FaultPlan(
            [Fault(kind="truncated_line", times=1)],
            state_dir=str(tmp_path / "faults"),
        )
        executor = SubprocessExecutor(workers=1, retries=1, backoff_s=0.01)
        with plan.installed():
            outcomes = executor.run_units([_probe(7)])
        assert outcomes[0].status == "ok"
        assert outcomes[0].attempts == 2


class TestExactlyOnce:
    @pytest.mark.parametrize("claimants", [1, 2])
    def test_byte_identical_cache_vs_fault_free_run(self, tmp_path, claimants):
        # The headline invariant: a sweep that crashed, retried, and
        # resumed must leave exactly the bytes a clean serial run leaves --
        # also when two claimants, each with its own faulty executor, drain
        # the same job at once.
        from repro.runtime.registry import RunContext

        context = RunContext(scale=1 / 512)
        clean_root = tmp_path / "cache-clean"
        faulty_root = tmp_path / "cache-faulty"

        with JobStore(tmp_path / "clean.sqlite") as store:
            spec = JobSpec.profile_grid(["spmv-csr"], context, cache_root=clean_root)
            job = store.submit(spec)
            assert store.run_job(job.id, LocalExecutor()).state == JOB_DONE

        db = tmp_path / "faulty.sqlite"
        with JobStore(db) as store:
            spec = JobSpec.profile_grid(["spmv-csr"], context, cache_root=faulty_root)
            job_id = store.submit(spec).id
        plan = FaultPlan([Fault(kind="error", times=2)], seed=11)
        errors = []

        def drain():
            executor = FaultyExecutor(LocalExecutor(retries=2, backoff_s=0.0), plan)
            try:
                with JobStore(db) as store:
                    store.run_job(job_id, executor)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        # Each claimant installs the plan around its waves; holding it
        # installed across both keeps one claimant's exit from uninstalling
        # it under the other.
        with plan.installed():
            threads = [threading.Thread(target=drain) for _ in range(claimants)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert plan._fired == {0: 2}  # both faults fired
        with JobStore(db) as store:
            assert store.job(job_id).state == JOB_DONE
            assert all(unit.state == UNIT_DONE for unit in store.units(job_id))

        clean = {path.name: path.read_bytes() for path in sorted(clean_root.iterdir())}
        faulty = {path.name: path.read_bytes() for path in sorted(faulty_root.iterdir())}
        assert clean and clean == faulty

    def test_exit_mid_wave_loses_only_the_uncommitted_wave(self, tmp_path):
        # The driver dies after a wave executed but before it committed;
        # the resume may re-execute that wave (work is lost, never
        # double-committed) and must not touch committed units.
        db = tmp_path / "runs.sqlite"
        scratch = tmp_path / "scratch"
        spec = JobSpec.probes(6, scratch=scratch)
        with JobStore(db) as store:
            job_id = store.submit(spec).id

        child_code = (
            "import sys\n"
            "from pathlib import Path\n"
            "from repro.runtime.executors import LocalExecutor\n"
            "from repro.runtime.faults import Fault, FaultPlan, FaultyExecutor\n"
            "from repro.runtime.jobs import JobStore\n"
            "class PairWaves(LocalExecutor):\n"
            "    workers = 2  # the job store claims two units per wave\n"
            "plan = FaultPlan(\n"
            "    [Fault(kind='exit_mid_wave', unit_index=1, exit_code=17)],\n"
            "    state_dir=sys.argv[3],\n"
            ")\n"
            "executor = FaultyExecutor(PairWaves(), plan)\n"
            "with JobStore(Path(sys.argv[1])) as store:\n"
            "    store.run_job(int(sys.argv[2]), executor)\n"
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                child_code,
                str(db),
                str(job_id),
                str(tmp_path / "faults"),
            ],
            env=_worker_env(),
            timeout=120,
        )
        assert proc.returncode == 17  # died exactly where the plan said

        # Wave 1 (units 0-1) committed; wave 2 (units 2-3) executed but
        # died before commit.
        marks_after_crash = [_markers(scratch, i) for i in range(6)]
        assert marks_after_crash[:4] == [1, 1, 1, 1]
        assert marks_after_crash[4:] == [0, 0]
        with JobStore(db) as store:
            counts = store.unit_states(job_id)
            assert counts.get(UNIT_DONE, 0) == 2

            summary = store.run_job(job_id, LocalExecutor())
            assert summary.state == JOB_DONE
            units = store.units(job_id)
            assert all(unit.state == UNIT_DONE for unit in units)
            assert all(unit.result()["value"] == unit.seq * 2 for unit in units)
        # Committed units never re-ran; the lost wave re-ran exactly once.
        assert [_markers(scratch, i) for i in range(6)] == [1, 1, 2, 2, 1, 1]

    def test_concurrent_run_jobs_never_double_execute(self, tmp_path):
        # Two claimants drain the same job concurrently; the lease claims
        # must partition the units -- every unit done, every unit executed
        # exactly once (one attempt marker), no unit lost.
        db = tmp_path / "runs.sqlite"
        scratch = tmp_path / "scratch"
        spec = JobSpec.probes(8, sleep_s=0.05, scratch=scratch)
        with JobStore(db) as store:
            job_id = store.submit(spec).id

        errors = []

        def drain():
            try:
                with JobStore(db) as store:
                    store.run_job(job_id, LocalExecutor())
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=drain) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        with JobStore(db) as store:
            units = store.units(job_id)
            assert all(unit.state == UNIT_DONE for unit in units)
            assert store.job(job_id).state == JOB_DONE
        assert [_markers(scratch, i) for i in range(8)] == [1] * 8


class TestDeadLetter:
    def test_dead_letter_after_max_attempts(self, tmp_path):
        scratch = tmp_path / "scratch"
        units = (
            # Unit 0 fails forever (fail_times far beyond any budget).
            WorkUnit(
                key="u0",
                kind="probe",
                payload={
                    "kind": "probe",
                    "fail_times": 99,
                    "scratch": str(scratch / "unit-0"),
                },
            ),
            WorkUnit(key="u1", kind="probe", payload={"kind": "probe", "value": 1}),
        )
        spec = JobSpec(name="dead-letter", units=units)
        with JobStore(tmp_path / "runs.sqlite") as store:
            job_id = store.submit(spec).id
            executor = LocalExecutor(retries=1, backoff_s=0.0)
            summary = store.run_job(job_id, executor, max_attempts=2)
            assert summary.dead == 1
            assert summary.completed == 1
            assert summary.state == JOB_FAILED
            unit = store.units(job_id, state=UNIT_DEAD)[0]
            assert unit.seq == 0
            assert unit.attempts >= 2
            # Dead units are not claimable: a resume executes nothing.
            resumed = store.run_job(job_id, LocalExecutor())
            assert resumed.executed == 0
            assert _markers(scratch, 0) == 2

    def test_permanent_failure_dead_letters_without_retries(self, tmp_path):
        # An unregistered kind raises UnitSpecError (permanent): one
        # attempt, straight to the dead letter, retry budget untouched.
        unit = WorkUnit(key="bogus", kind="no_such_kind", payload={"kind": "no_such_kind"})
        spec = JobSpec(name="bogus", units=(unit,))
        with JobStore(tmp_path / "runs.sqlite") as store:
            job_id = store.submit(spec).id
            executor = LocalExecutor(retries=3, backoff_s=0.0)
            summary = store.run_job(job_id, executor, max_attempts=10)
            assert summary.dead == 1
            dead = store.units(job_id, state=UNIT_DEAD)[0]
            assert dead.attempts == 1
            assert "unknown work-unit kind" in dead.error

    def test_without_max_attempts_failures_stay_claimable(self, tmp_path):
        # The pre-dead-letter contract is the default: failed units retry
        # forever across resumes.
        unit = WorkUnit(
            key="boom", kind="probe", payload={"kind": "probe", "boom": "always"}
        )
        spec = JobSpec(name="boom", units=(unit,))
        with JobStore(tmp_path / "runs.sqlite") as store:
            job_id = store.submit(spec).id
            store.run_job(job_id, LocalExecutor())
            store.run_job(job_id, LocalExecutor())
            failed = store.units(job_id)[0]
            assert failed.state == "failed"
            assert failed.attempts == 2
            assert not store.units(job_id, state=UNIT_DEAD)


class TestSeededPlansAreDeterministic:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_same_seed_same_firing_schedule(self, seed):
        def schedule(s):
            plan = FaultPlan([Fault(kind="error", probability=0.4, times=50)], seed=s)
            wrapped = FaultyExecutor(LocalExecutor(retries=5, backoff_s=0.0), plan)
            outcomes = wrapped.run_units([_probe(i) for i in range(12)])
            return [(o.status, o.attempts) for o in outcomes]

        # Whatever a seed makes the run do -- including exhausting a
        # unit's retries -- it must make it do identically every time.
        assert schedule(seed) == schedule(seed)
