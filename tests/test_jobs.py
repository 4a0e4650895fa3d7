"""Job model tests: specs, persistence, resume, and kill durability.

The centerpiece is ``test_sigkill_mid_job_then_resume``: a real child
process runs a job, gets SIGKILL'd mid-unit, and the in-process resume
must re-execute nothing that completed -- the probe kind's attempt
markers make re-execution observable across process boundaries.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime.executors import LocalExecutor
from repro.runtime.executors.subprocess import _worker_env
from repro.runtime.jobs import (
    JOB_DONE,
    JOB_FAILED,
    JOB_PENDING,
    UNIT_DONE,
    UNIT_FAILED,
    UNIT_PENDING,
    UNIT_RUNNING,
    JobError,
    JobSpec,
    JobStore,
    context_from_dict,
    context_to_dict,
)
from repro.runtime.registry import RunContext, app_datasets


def _markers(scratch: Path, unit: int) -> int:
    root = scratch / f"unit-{unit}"
    return len(list(root.glob("attempt-*"))) if root.is_dir() else 0


class TestContextRoundTrip:
    def test_plain_context(self):
        context = RunContext(scale=1 / 64, pagerank_iterations=3, backend="numpy")
        assert context_from_dict(context_to_dict(context)) == context

    def test_scanner_is_not_a_context_field(self):
        # Scanner sweeps cost a run under record_scans; a payload that
        # names a scanner is a malformed unit, not a silently plain run.
        assert "scanner" not in context_to_dict(RunContext(scale=1 / 8))
        with pytest.raises(JobError, match="unknown RunContext fields"):
            context_from_dict({"scale": 1 / 8, "scanner": {"bit_width": 128}})

    def test_every_context_field_is_serialized(self):
        # A RunContext field left out of the payload would silently take
        # its default in a subprocess worker.
        fields = {f.name for f in dataclasses.fields(RunContext)}
        assert set(context_to_dict(RunContext())) == fields

    def test_unknown_field_rejected(self):
        with pytest.raises(JobError, match="unknown RunContext fields"):
            context_from_dict({"scale": 1.0, "warp_drive": True})


class TestJobSpecBuilders:
    def test_profile_grid_one_unit_per_cell(self):
        spec = JobSpec.profile_grid(apps=["spmv-csr"], context=RunContext(scale=1 / 512))
        datasets = app_datasets()["spmv-csr"]
        assert len(spec.units) == len(datasets)
        assert {unit.payload["dataset"] for unit in spec.units} == set(datasets)
        assert all(unit.kind == "profile" for unit in spec.units)
        # The spec key is a pure function of its content: rebuilt == same.
        again = JobSpec.profile_grid(apps=["spmv-csr"], context=RunContext(scale=1 / 512))
        assert again.key == spec.key
        other = JobSpec.profile_grid(apps=["spmv-csr"], context=RunContext(scale=1 / 256))
        assert other.key != spec.key

    def test_dse_grid_chunks_respect_max_chunk(self):
        spec = JobSpec.dse_grid(
            {
                "allocator": ["separable", "greedy", "arbitrated"],
                "bank_mapping": ["hash", "linear"],
            },
            apps=["spmv-csr"],
            max_chunk=2,
        )
        # 6 variants at <=2 per chunk -> 3 chunks, covering [0, 6) exactly.
        assert len(spec.units) == 3
        bounds = [(u.payload["start"], u.payload["stop"]) for u in spec.units]
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 6
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert start == stop
        assert all(stop - start <= 2 for start, stop in bounds)

    def test_dse_grid_chunks_follow_the_memory_budget_env(self, monkeypatch):
        # The budget reaches the planner only through REPRO_MEMORY_BUDGET
        # (`sweep --memory-budget` exports it): 3 spmv-csr cells cost
        # 3 * COSTING_BYTES_PER_CELL bytes per variant, so this budget fits 2.
        from repro.apps.timing import COSTING_BYTES_PER_CELL

        axes = {"allocator": ["separable", "greedy", "arbitrated"], "lanes": [8, 16]}
        assert len(JobSpec.dse_grid(axes, apps=["spmv-csr"]).units) == 1
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", str(2 * 3 * COSTING_BYTES_PER_CELL))
        spec = JobSpec.dse_grid(axes, apps=["spmv-csr"])
        bounds = [(u.payload["start"], u.payload["stop"]) for u in spec.units]
        assert bounds == [(0, 2), (2, 4), (4, 6)]

    def test_table_suite_rejects_unknown_table(self):
        with pytest.raises(JobError, match="unknown tables"):
            JobSpec.table_suite(tables=["table99"])

    def test_probe_spec_units_are_distinct(self):
        spec = JobSpec.probes(4)
        assert len({unit.key for unit in spec.units}) == 4


class TestJobStore:
    def test_submit_is_idempotent(self, tmp_path):
        spec = JobSpec.probes(3)
        with JobStore(tmp_path / "runs.sqlite") as store:
            first = store.submit(spec)
            second = store.submit(spec)
            assert first.id == second.id
            assert first.state == JOB_PENDING
            assert len(store.units(first.id)) == 3

    def test_partial_run_then_resume_skips_done_units(self, tmp_path):
        scratch = tmp_path / "scratch"
        spec = JobSpec.probes(4, scratch=scratch)
        with JobStore(tmp_path / "runs.sqlite") as store:
            job = store.submit(spec)
            summary = store.run_job(job.id, LocalExecutor(), max_units=2)
            assert summary.executed == 2
            assert summary.completed == 2
            assert summary.remaining == 2
            assert summary.state == JOB_PENDING
            assert [_markers(scratch, i) for i in range(4)] == [1, 1, 0, 0]

            summary = store.run_job(job.id, LocalExecutor())
            assert summary.executed == 2
            assert summary.state == JOB_DONE
            # Zero re-execution: the first two units still ran exactly once.
            assert [_markers(scratch, i) for i in range(4)] == [1, 1, 1, 1]

            done = store.units(job.id, state=UNIT_DONE)
            assert [unit.seq for unit in done] == [0, 1, 2, 3]
            assert [unit.result()["value"] for unit in done] == [0, 2, 4, 6]
            assert all(unit.attempts == 1 for unit in done)

    def test_stale_running_units_are_reclaimed(self, tmp_path):
        spec = JobSpec.probes(2)
        with JobStore(tmp_path / "runs.sqlite") as store:
            job = store.submit(spec)
            # Orphan of a dead sweep: a unit stuck in `running`.
            with store._connection:
                store._connection.execute(
                    "UPDATE work_units SET state=? WHERE job_id=? AND seq=0",
                    (UNIT_RUNNING, job.id),
                )
            summary = store.run_job(job.id, LocalExecutor())
            assert summary.state == JOB_DONE
            assert store.unit_states(job.id) == {UNIT_DONE: 2}

    def test_failed_unit_retried_on_next_run(self, tmp_path):
        scratch = tmp_path / "scratch"
        spec = JobSpec.probes(1, scratch=scratch)
        # fail_times=1: the first execution raises, the second succeeds.
        unit = spec.units[0]
        payload = dict(unit.payload)
        payload["fail_times"] = 1
        spec = JobSpec(name=spec.name, units=(type(unit)(unit.key, unit.kind, payload),))
        with JobStore(tmp_path / "runs.sqlite") as store:
            job = store.submit(spec)
            summary = store.run_job(job.id, LocalExecutor())
            assert summary.failed == 1
            assert summary.state == JOB_FAILED
            [unit_row] = store.units(job.id)
            assert unit_row.state == UNIT_FAILED
            assert unit_row.attempts == 1
            assert "probe failing" in unit_row.error

            summary = store.run_job(job.id, LocalExecutor())
            assert summary.completed == 1
            assert summary.state == JOB_DONE
            [unit_row] = store.units(job.id)
            assert unit_row.state == UNIT_DONE
            assert unit_row.attempts == 2

    def test_wave_persistence_bounds_loss_to_in_flight_work(self, tmp_path):
        # stop_on_error halts between waves too: with workers=1 the unit
        # after a failure is never marked running-then-lost, it stays
        # pending with zero attempts.
        scratch = tmp_path / "scratch"
        spec = JobSpec.probes(3, scratch=scratch)
        units = list(spec.units)
        payload = dict(units[1].payload)
        payload["boom"] = "wave fail"
        units[1] = type(units[1])(units[1].key, units[1].kind, payload)
        spec = JobSpec(name=spec.name, units=tuple(units))
        with JobStore(tmp_path / "runs.sqlite") as store:
            job = store.submit(spec)
            summary = store.run_job(job.id, LocalExecutor(), stop_on_error=True)
            assert summary.completed == 1
            assert summary.failed == 1
            # Lease-based claims never touch the unit after the failing
            # wave: it is not claimed at all (rather than claimed and
            # released), so nothing is reported cancelled.
            assert summary.cancelled == 0
            assert summary.executed == 2
            states = [unit.state for unit in store.units(job.id)]
            assert states == [UNIT_DONE, UNIT_FAILED, UNIT_PENDING]
            assert _markers(scratch, 2) == 0


class TestKillDurability:
    def test_sigkill_mid_job_then_resume(self, tmp_path):
        """A killed sweep resumes with zero re-execution of done units."""
        db = tmp_path / "runs.sqlite"
        scratch = tmp_path / "scratch"
        spec = JobSpec.probes(6, sleep_s=0.4, scratch=scratch)
        with JobStore(db) as store:
            job_id = store.submit(spec).id

        child_code = (
            "import sys\n"
            "from pathlib import Path\n"
            "from repro.runtime.executors import LocalExecutor\n"
            "from repro.runtime.jobs import JobStore\n"
            "with JobStore(Path(sys.argv[1])) as store:\n"
            "    store.run_job(int(sys.argv[2]), LocalExecutor())\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", child_code, str(db), str(job_id)],
            env=_worker_env(),
        )
        try:
            # Unit 2 starting (its marker appearing) means units 0 and 1
            # finished and -- with wave persistence -- were committed.
            deadline = time.perf_counter() + 60.0
            while time.perf_counter() < deadline:
                if _markers(scratch, 2) >= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("child never reached unit 2")
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=10)

        markers_after_kill = [_markers(scratch, i) for i in range(6)]
        with JobStore(db) as store:
            counts = store.unit_states(job_id)
            assert counts.get(UNIT_DONE, 0) >= 2  # completed units survived
            summary = store.run_job(job_id, LocalExecutor())
            assert summary.state == JOB_DONE
            assert store.unit_states(job_id) == {UNIT_DONE: 6}
            done = store.units(job_id, state=UNIT_DONE)
            assert [unit.result()["value"] for unit in done] == [0, 2, 4, 6, 8, 10]

        markers_final = [_markers(scratch, i) for i in range(6)]
        # Every unit that finished before the kill ran exactly once, before
        # AND after the resume. A unit's successor having started implies
        # its wave was committed, so dropping the last-started unit leaves
        # exactly the provably-durable set.
        done_before = [i for i in range(6) if markers_after_kill[i] == 1][:-1]
        for unit in done_before:
            assert markers_final[unit] == 1, f"unit {unit} re-executed on resume"
        # The in-flight unit re-ran at most once more.
        assert all(count <= 2 for count in markers_final)


class TestShardedEqualsUnsharded:
    def test_sharded_profile_job_matches_unsharded_cache(self, tmp_path):
        """Sharded + interrupted-and-resumed output == one serial run, byte for byte."""
        from repro.runtime.cache import ProfileCache
        from repro.runtime.runner import ExperimentRunner

        context = RunContext(scale=1 / 512)

        # Unsharded reference: one serial runner into cache A.
        cache_a = tmp_path / "cache-a"
        runner = ExperimentRunner(context=context, cache=ProfileCache(root=cache_a), workers=1)
        runner.run(apps=["spmv-csr"])

        # Sharded: the same grid as a job into cache B, split across two
        # partial run_job calls (the resume path).
        cache_b = tmp_path / "cache-b"
        spec = JobSpec.profile_grid(apps=["spmv-csr"], context=context, cache_root=cache_b)
        with JobStore(tmp_path / "runs.sqlite") as store:
            job = store.submit(spec)
            store.run_job(job.id, LocalExecutor(), max_units=1)
            summary = store.run_job(job.id, LocalExecutor())
            assert summary.state == JOB_DONE

        names_a = sorted(path.name for path in cache_a.glob("*.json"))
        names_b = sorted(path.name for path in cache_b.glob("*.json"))
        assert names_a == names_b and names_a
        for name in names_a:
            assert (cache_a / name).read_bytes() == (cache_b / name).read_bytes(), name


class TestUnitKindRegistry:
    def test_import_registers_exactly_the_documented_kinds(self):
        # DESIGN.md "Jobs" lists these; a fresh interpreter sees only the
        # kinds the module registers, not ones a test added at run time.
        code = "from repro.runtime import jobs; print(' '.join(jobs._KINDS))"
        out = subprocess.run(
            [sys.executable, "-c", code], env=_worker_env(), capture_output=True,
            text=True, check=True,
        ).stdout
        assert out.split() == ["profile", "throughput", "dse_chunk", "table", "probe"]

    def test_unknown_kind_rejected(self):
        from repro.runtime.jobs import execute_unit

        with pytest.raises(JobError, match="unknown work-unit kind"):
            execute_unit({"kind": "antigravity"})

    def test_payload_without_kind_rejected(self):
        from repro.runtime.jobs import execute_unit

        with pytest.raises(JobError, match="needs a 'kind' field"):
            execute_unit({"app": "spmv-csr"})

    def test_result_json_round_trips_profiles(self, tmp_path):
        from repro.apps.profile import WorkloadProfile

        spec = JobSpec.profile_grid(
            apps=["spmv-csr"], context=RunContext(scale=1 / 512), cache_root=tmp_path / "c"
        )
        with JobStore(tmp_path / "runs.sqlite") as store:
            job = store.submit(spec)
            store.run_job(job.id, LocalExecutor(), max_units=1)
            done = store.units(job.id, state=UNIT_DONE)
            assert len(done) == 1
            profile = done[0].result()
            assert isinstance(profile, WorkloadProfile)
            # The stored JSON is canonical: sorted keys, no volatile fields.
            stored = json.loads(done[0].result_json)
            assert list(stored) == sorted(stored)


class TestLeases:
    """Lease-based claims: partitioning, staleness, heartbeats, cancel."""

    def _submitted(self, tmp_path, count=3, **kwargs):
        store = JobStore(tmp_path / "runs.sqlite")
        job_id = store.submit(JobSpec.probes(count, **kwargs)).id
        return store, job_id

    def test_claims_partition_concurrent_claimants(self, tmp_path):
        store_a, job_id = self._submitted(tmp_path)
        with JobStore(tmp_path / "runs.sqlite") as store_b:
            wave_a = store_a.claim_units(job_id, [0, 1], owner="claimant-a")
            assert [unit.seq for unit in wave_a] == [0, 1]
            # A second claimant asking for an overlapping set gets only
            # what is still free -- never a unit another claimant holds.
            wave_b = store_b.claim_units(job_id, [0, 1, 2], owner="claimant-b")
            assert [unit.seq for unit in wave_b] == [2]
            assert all(unit.lease_owner == "claimant-b" for unit in wave_b)
        store_a.close()

    def test_done_units_are_never_claimable(self, tmp_path):
        store, job_id = self._submitted(tmp_path)
        store.run_job(job_id, LocalExecutor())
        assert store.claim_units(job_id, [0, 1, 2], owner="late") == []

    def test_live_lease_not_reclaimed(self, tmp_path):
        from repro.runtime.jobs import default_claim_owner

        store, job_id = self._submitted(tmp_path)
        # This process is alive and the lease is fresh: nothing is stale.
        store.claim_units(job_id, [0], owner=default_claim_owner(), lease_s=3600.0)
        assert store.reset_stale_running(job_id) == 0
        assert [unit.seq for unit in store.claimable_units(job_id)] == [1, 2]
        store.close()

    def test_expired_lease_reclaimed(self, tmp_path):
        store, job_id = self._submitted(tmp_path)
        # A remote owner (liveness unknowable) whose lease already lapsed.
        store.claim_units(job_id, [0], owner="elsewhere:123:aa", lease_s=-1.0)
        assert store.reset_stale_running(job_id) == 1
        assert [unit.seq for unit in store.claimable_units(job_id)] == [0, 1, 2]
        store.close()

    def test_remote_lease_trusted_until_expiry(self, tmp_path):
        store, job_id = self._submitted(tmp_path)
        store.claim_units(job_id, [0], owner="elsewhere:123:aa", lease_s=3600.0)
        assert store.reset_stale_running(job_id) == 0
        store.close()

    def test_dead_local_pid_reclaimed_before_expiry(self, tmp_path):
        import socket

        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait(timeout=30)
        store, job_id = self._submitted(tmp_path)
        # Same host, pid provably dead, lease nominally good for an hour:
        # a SIGKILLed sweep must be reclaimable immediately.
        owner = f"{socket.gethostname()}:{proc.pid}:deadbeef"
        store.claim_units(job_id, [0], owner=owner, lease_s=3600.0)
        assert store.reset_stale_running(job_id) == 1
        store.close()

    def test_heartbeat_extends_leases_past_their_first_expiry(self, tmp_path):
        import threading

        db = tmp_path / "runs.sqlite"
        scratch = tmp_path / "scratch"
        with JobStore(db) as store:
            job_id = store.submit(JobSpec.probes(1, sleep_s=1.2, scratch=scratch)).id

        def run():
            with JobStore(db) as worker_store:
                worker_store.run_job(job_id, LocalExecutor(), lease_s=0.4)

        thread = threading.Thread(target=run)
        thread.start()
        try:
            # 0.8s in, the initial 0.4s lease has lapsed on the wall clock;
            # only the heartbeat can have pushed the expiry forward.
            time.sleep(0.8)
            with JobStore(db) as observer:
                unit = observer.units(job_id)[0]
                assert unit.state == UNIT_RUNNING
                assert unit.lease_expires_at is not None
                assert unit.lease_expires_at > time.time()
                # And a rival resume must not steal the live claim.
                assert observer.reset_stale_running(job_id) == 0
        finally:
            thread.join(timeout=60)
        with JobStore(db) as store:
            assert store.job(job_id).state == JOB_DONE

    def test_child_forked_under_a_heartbeat_keeps_one_thread(self, tmp_path):
        import threading

        from repro.runtime.jobs import _LeaseHeartbeat

        heartbeat = _LeaseHeartbeat(tmp_path / "runs.sqlite", 1, "owner", lease_s=60.0)
        heartbeat.start()
        read, write = os.pipe()
        try:
            pid = os.fork()
            if pid == 0:
                # The fork hook stops every inherited thread; a heartbeat
                # whose attribute shadowed Thread._stop made it raise and
                # left the parent's threads in the child's bookkeeping.
                try:
                    os.write(write, str(threading.active_count()).encode())
                finally:
                    os._exit(0)
            os.close(write)
            child_threads = os.read(read, 64)
            os.close(read)
            os.waitpid(pid, 0)
        finally:
            heartbeat.stop()
            heartbeat.join(timeout=30)
        assert child_threads == b"1"

    def test_cancel_mid_wave_leaves_units_claimable(self, tmp_path):
        import threading

        scratch = tmp_path / "scratch"
        store, job_id = self._submitted(tmp_path, count=4, sleep_s=0.3, scratch=scratch)
        executor = LocalExecutor()
        timer = threading.Timer(0.15, executor.cancel)
        timer.start()
        summary = store.run_job(job_id, executor)
        timer.cancel()
        # The cancel stopped the sweep early, whether it surfaced as
        # cancelled outcomes or landed between a wave's last check and
        # the next claim.
        assert summary.executed < 4
        units = store.units(job_id)
        # No unit is stranded: everything is done or back to pending with
        # its lease cleared, and a clean resume finishes the job.
        assert {unit.state for unit in units} <= {UNIT_DONE, UNIT_PENDING}
        assert all(unit.lease_owner is None for unit in units)
        resumed = store.run_job(job_id, LocalExecutor())
        assert resumed.state == JOB_DONE
        store.close()
