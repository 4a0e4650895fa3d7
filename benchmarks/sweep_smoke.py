"""Sweep smoke: a killed sharded sweep resumes to the unsharded result.

The end-to-end durability check the job subsystem promises, run as one
script (CI's ``sweep-smoke`` job):

1. An **unsharded** serial :class:`ExperimentRunner` fills profile cache A.
2. The same grid is submitted as a sharded job and driven by a *child*
   process through the **subprocess executor** into cache B; the child is
   SIGKILL'd as soon as the first units land.
3. The job is resumed in-process. Units completed before the kill must
   keep ``attempts == 1`` (zero re-execution), and cache B must end up
   **byte-identical** to cache A.

Exit code 0 means every check held.

Usage::

    PYTHONPATH=src python benchmarks/sweep_smoke.py [--scale 1/512] [--apps spmv-csr ...]
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.runtime.cache import ProfileCache  # noqa: E402
from repro.runtime.executors import SubprocessExecutor  # noqa: E402
from repro.runtime.jobs import UNIT_DONE, JobSpec, JobStore  # noqa: E402
from repro.runtime.registry import RunContext  # noqa: E402
from repro.runtime.runner import ExperimentRunner  # noqa: E402

_CHILD_CODE = """
import sys
from pathlib import Path
from repro.runtime.executors import SubprocessExecutor
from repro.runtime.jobs import JobStore

with JobStore(Path(sys.argv[1])) as store, SubprocessExecutor(workers=1) as executor:
    store.run_job(int(sys.argv[2]), executor)
"""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


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

    with tempfile.TemporaryDirectory(prefix="sweep-smoke-") as tmp:
        root = Path(tmp)
        cache_a, cache_b, db = root / "cache-a", root / "cache-b", root / "runs.sqlite"

        print(f"[1/4] unsharded serial reference run ({len(args.apps)} apps) ...")
        runner = ExperimentRunner(context=context, cache=ProfileCache(root=cache_a), workers=1)
        runner.run(apps=args.apps)

        spec = JobSpec.profile_grid(args.apps, context, cache_root=cache_b)
        with JobStore(db) as store:
            job_id = store.submit(spec).id
        print(f"[2/4] sharded job {job_id} ({len(spec.units)} units) via child process ...")
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD_CODE, str(db), str(job_id)],
            env=_child_env(),
        )
        deadline = time.perf_counter() + 120.0
        while time.perf_counter() < deadline:
            if child.poll() is not None or list(cache_b.glob("*.json")):
                break
            time.sleep(0.02)
        if child.poll() is None:
            os.kill(child.pid, signal.SIGKILL)
            print("       child SIGKILL'd mid-sweep")
        else:
            print("       child finished before the kill (fast machine); still checking")
        child.wait(timeout=10)

        with JobStore(db) as store:
            done_before = {
                unit.seq: unit.attempts for unit in store.units(job_id, state=UNIT_DONE)
            }
            print(f"[3/4] resume: {len(done_before)} units survived the kill as done")
            with SubprocessExecutor(workers=2) as executor:
                summary = store.run_job(job_id, executor)
            if summary.state != "done":
                return _fail(f"resumed job ended {summary.state!r}: {summary.to_dict()}")
            for seq, attempts in done_before.items():
                unit = store.units(job_id)[seq]
                if unit.attempts != attempts:
                    return _fail(
                        f"unit {seq} re-executed on resume "
                        f"(attempts {attempts} -> {unit.attempts})"
                    )

        print("[4/4] comparing caches byte-for-byte ...")
        names_a = sorted(path.name for path in cache_a.glob("*.json"))
        names_b = sorted(path.name for path in cache_b.glob("*.json"))
        if not names_a or names_a != names_b:
            return _fail(f"cache key sets differ: {len(names_a)} vs {len(names_b)} entries")
        for name in names_a:
            if (cache_a / name).read_bytes() != (cache_b / name).read_bytes():
                return _fail(f"cache entry {name} differs between runs")

        print(
            f"PASS: {len(names_a)} profiles byte-identical; "
            f"{len(done_before)} pre-kill units untouched on resume"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
