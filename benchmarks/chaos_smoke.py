"""Chaos smoke: a sweep survives injected worker faults byte-for-byte.

The end-to-end fault-injection check the robustness work promises, run
as one script (CI's ``chaos-smoke`` job):

1. An **unsharded** serial :class:`ExperimentRunner` fills profile cache A.
2. The same grid is submitted as a sharded job and driven by a *child*
   process through the **subprocess executor** into cache B with a
   seeded :class:`FaultPlan` installed: a worker crash, a hang cut by
   the unit timeout, and a malformed protocol line. Mid-sweep the child
   itself exits via an ``exit_mid_wave`` fault, simulating a dying
   driver.
3. The job is resumed in-process with a clean executor. Units committed
   before the driver died must keep their attempt counts (zero
   re-execution), no unit may be dead or lost, and cache B must end up
   **byte-identical** to cache A.
4. Every worker fault kind must have fired at least once (its firing
   markers under the plan's ``state_dir``), or the run proved nothing
   about surviving it.

Exit code 0 means every check held.

Usage::

    PYTHONPATH=src python benchmarks/chaos_smoke.py [--scale 1/512] [--apps spmv-csr ...]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.runtime.cache import ProfileCache  # noqa: E402
from repro.runtime.faults import Fault, FaultPlan  # noqa: E402
from repro.runtime.jobs import UNIT_DONE, JobSpec, JobStore  # noqa: E402
from repro.runtime.registry import RunContext  # noqa: E402
from repro.runtime.runner import ExperimentRunner  # noqa: E402

DRIVER_EXIT_CODE = 23

#: The worker fault kinds the smoke injects; each must fire.
WORKER_FAULT_KINDS = ("crash", "hang", "malformed_line")

# The child wraps the subprocess executor in a FaultyExecutor under one
# plan. The driver-level exit_mid_wave fault fires in the child; the
# FaultyExecutor exports the same plan as REPRO_FAULT_PLAN around each
# wave, so the workers it spawns inherit the worker-level faults
# (crash/hang/malformed_line). A separate worker plan in the child's
# environment would be overridden by that export and never reach them.
_CHILD_CODE = """
import sys
from pathlib import Path
from repro.runtime.executors import SubprocessExecutor
from repro.runtime.faults import FaultPlan, FaultyExecutor
from repro.runtime.jobs import JobStore

executor = FaultyExecutor(
    SubprocessExecutor(workers=1, timeout_s=10.0, retries=2),
    FaultPlan.from_json(sys.argv[3]),
)
with JobStore(Path(sys.argv[1])) as store, executor:
    store.run_job(int(sys.argv[2]), executor)
"""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


def _firings(plan: FaultPlan) -> dict:
    """Recorded firings per fault kind, read from the plan's markers."""
    counts: dict = {}
    for index, fault in enumerate(plan.faults):
        markers = Path(plan.state_dir) / f"fault-{index}"
        fired = len(list(markers.glob("fired-*"))) if markers.is_dir() else 0
        counts[fault.kind] = counts.get(fault.kind, 0) + fired
    return counts


def _fail(message: str) -> int:
    print(f"FAIL: {message}")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="1/512", help="dataset scale (default 1/512)")
    parser.add_argument(
        "--apps",
        nargs="+",
        default=["spmv-csr", "spmv-coo"],
        help="applications to sweep (default: two SpMV variants, six units)",
    )
    args = parser.parse_args(argv)
    numerator, _, denominator = args.scale.partition("/")
    scale = float(numerator) / float(denominator) if denominator else float(numerator)
    context = RunContext(scale=scale)

    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        root = Path(tmp)
        cache_a, cache_b, db = root / "cache-a", root / "cache-b", root / "runs.sqlite"

        print(f"[1/4] unsharded serial reference run ({len(args.apps)} apps) ...")
        runner = ExperimentRunner(context=context, cache=ProfileCache(root=cache_a), workers=1)
        runner.run(apps=args.apps)

        spec = JobSpec.profile_grid(args.apps, context, cache_root=cache_b)
        with JobStore(db) as store:
            job_id = store.submit(spec).id

        # Worker-level faults, bounded across respawns by the state_dir,
        # and the driver's death on its third wave.
        plan = FaultPlan(
            [Fault(kind=kind, times=1) for kind in WORKER_FAULT_KINDS]
            + [Fault(kind="exit_mid_wave", unit_index=2, exit_code=DRIVER_EXIT_CODE)],
            seed=7,
            state_dir=str(root / "faults"),
        )
        print(
            f"[2/4] sharded job {job_id} ({len(spec.units)} units) via a child "
            "driver under crash+hang+malformed faults ..."
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                _CHILD_CODE,
                str(db),
                str(job_id),
                plan.to_json(),
            ],
            env=_child_env(),
            timeout=300,
        )
        if proc.returncode != DRIVER_EXIT_CODE:
            return _fail(
                f"child driver exited {proc.returncode}, expected the injected "
                f"exit_mid_wave code {DRIVER_EXIT_CODE}"
            )
        print(f"       child driver died with injected exit code {DRIVER_EXIT_CODE}")

        with JobStore(db) as store:
            done_before = {
                unit.seq: unit.attempts for unit in store.units(job_id, state=UNIT_DONE)
            }
            print(f"[3/4] resume: {len(done_before)} units survived the dead driver as done")
            from repro.runtime.executors import SubprocessExecutor

            with SubprocessExecutor(workers=2) as executor:
                summary = store.run_job(job_id, executor)
            if summary.state != "done":
                return _fail(f"resumed job ended {summary.state!r}: {summary.to_dict()}")
            if summary.dead:
                return _fail(f"{summary.dead} unit(s) dead-lettered during the smoke")
            for seq, attempts in done_before.items():
                unit = store.units(job_id)[seq]
                if unit.attempts != attempts:
                    return _fail(
                        f"unit {seq} re-executed on resume "
                        f"(attempts {attempts} -> {unit.attempts})"
                    )

        firings = _firings(plan)
        print(
            "       fault firings: "
            + ", ".join(f"{kind} {count}" for kind, count in firings.items())
        )
        silent = [kind for kind in WORKER_FAULT_KINDS if not firings.get(kind)]
        if silent:
            return _fail(f"worker fault(s) never fired: {', '.join(silent)}")

        print("[4/4] comparing caches byte-for-byte ...")
        names_a = sorted(path.name for path in cache_a.glob("*.json"))
        names_b = sorted(path.name for path in cache_b.glob("*.json"))
        if not names_a or names_a != names_b:
            return _fail(f"cache key sets differ: {len(names_a)} vs {len(names_b)} entries")
        for name in names_a:
            if (cache_a / name).read_bytes() != (cache_b / name).read_bytes():
                return _fail(f"cache entry {name} differs between runs")

        print(
            f"PASS: {len(names_a)} profiles byte-identical under injected faults; "
            f"{len(done_before)} pre-crash units untouched on resume"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
