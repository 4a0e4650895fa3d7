"""Reachability sweep: run every entry point under a call tracer, then
list the function definitions in ``src/repro`` that none of them reached.

    python tools/reachability/run.py OUT_DIR [--source REPO]

The sweep works on a copy: the files ``git ls-files`` lists in ``REPO``
(default: the repository holding this script; untracked files that are
not ignored are included, so uncommitted changes are traced too) go to
``OUT_DIR/tree``, and ``sitecustomize.py`` from this directory goes into
its ``src``. Every step below then runs in that tree with ``TRACE_OUT``,
``HOME`` and the four stores (``REPRO_PROFILE_CACHE``,
``REPRO_THROUGHPUT_CACHE``, ``REPRO_SEARCH_STORE``, ``REPRO_RUN_DB``)
under ``OUT_DIR``, so the first step profiles cold and nothing outside
``OUT_DIR`` is written. Each step's output goes to ``OUT_DIR/logs``.
``join.py`` then writes ``OUT_DIR/unreached.txt``; the script prints each
step's exit code and the closing ``# U of N definitions unreached``
count. DESIGN.md "What stays in ``src/``" says what to do with the list.
The whole set takes about six minutes on a 2-core host.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from urllib.error import HTTPError
from urllib.request import Request, urlopen

HERE = Path(__file__).resolve().parent
PY = [sys.executable]
CLI = PY + ["-m", "repro.runtime.cli"]
SMALL = ["--apps", "spmv-csr,bfs", "--scale", "1/512"]


def steps(out: Path):
    """``(label, argv, accepted exit codes, stdin)`` for every traced command."""
    probe = json.dumps({"id": 1, "payload": {"kind": "probe", "value": 1}}) + "\n"
    listed = [
        ("harnesses", PY + ["-c", "from repro.eval import run_harnesses; "
                            "run_harnesses(scale=1/256)"], {0}, None),
        ("list", CLI + ["--list"], {0}, None),
        ("grid-local", CLI + ["--scale", "1/512", "--executor", "local",
                              "--json", str(out / "grid.json")], {0}, None),
        ("grid-subprocess", CLI + ["--apps", "spmv-csr,bfs,sssp", "--scale", "1/1024",
                                   "--executor", "subprocess", "-j", "2"], {0}, None),
        ("grid-reference", CLI + ["--apps", "spmv-csr", "--scale", "1/512", "--backend",
                                  "reference", "--memory-budget", "1M", "--no-cache"],
         {0}, None),
        ("prune-cache", CLI + ["--prune-cache"], {0}, None),
        ("dse-objectives", CLI + ["dse", *SMALL, "--objective", "cycles,area,energy",
                                  "--seed", "3", "--json", str(out / "dse.json")], {0}, None),
        ("dse-prefill-pareto", CLI + ["dse", *SMALL, "--prefill", "--top", "3",
                                      "--pareto-only"], {0}, None),
        ("dse-top", CLI + ["dse", *SMALL, "--top", "3"], {0}, None),
        ("dse-budget", CLI + ["dse", *SMALL, "--memory-budget", "64K"], {0}, None),
    ]
    search = ["--population", "8", "--generations", "3", "--seed", "5"]
    for strategy in ("evolve", "halving"):
        listed.append((f"dse-{strategy}", CLI + ["dse", *SMALL, "--search", strategy, *search],
                       {0}, None))
    # The same search again resumes from the store's last commit.
    listed.append(("dse-evolve-resume", CLI + ["dse", *SMALL, "--search", "evolve", *search],
                   {0}, None))
    sweep = CLI + ["sweep"]
    listed += [
        # Job ids count from 1 in the fresh run store.
        ("sweep-local", sweep + ["--apps", "spmv-csr", "--scale", "1/2048"], {0}, None),
        ("sweep-subprocess", sweep + ["--apps", "spmv-csr,bfs", "--scale", "1/2048",
                                      "--executor", "subprocess", "-j", "2",
                                      "--max-units", "2"], {0}, None),
        ("sweep-resume", sweep + ["--resume", "2"], {0}, None),
        ("sweep-axis", sweep + ["--axis", "lanes=8,16", "--axis", "banks=16,32", *SMALL],
         {0}, None),
        # The deadline path, and -j alone picking workers (five waves of two).
        ("sweep-timeout", sweep + ["--apps", "spmv-csr,bfs", "--scale", "1/1024",
                                   "--timeout", "60"], {0}, None),
        ("sweep-workers", sweep + ["--apps", "spmv-csr,bfs,sssp", "--scale", "1/4096",
                                   "-j", "2"], {0}, None),
        ("sweep-status", sweep + ["--status", "2"], {0}, None),
        ("sweep-jobs", sweep + ["--jobs"], {0}, None),
        ("worker-once", CLI + ["worker", "--once"], {0}, probe),
        # A gate may fail on a loaded host; the trace is what counts here.
        ("bench-runner", PY + ["benchmarks/bench_runner.py", "--output",
                               str(out / "bench.json")], {0, 1}, None),
        ("bench-history", CLI + ["bench-history", "--trends"], {0, 1}, None),
        ("bench-compare", CLI + ["bench-compare"], {0, 1}, None),
        ("bench-compare-markdown", CLI + ["bench-compare", "--markdown"], {0, 1}, None),
        ("bench-baseline", CLI + ["bench-baseline", "main"], {0}, None),
        ("bench-compare-baseline", CLI + ["bench-compare", "--baseline", "main"], {0, 1},
         None),
        ("sweep-smoke", PY + ["benchmarks/sweep_smoke.py"], {0}, None),
        ("chaos-smoke", PY + ["benchmarks/chaos_smoke.py"], {0}, None),
        ("pytest-benchmarks", PY + ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                                    "benchmarks"], {0}, None),
    ]
    for example in sorted((out / "tree" / "examples").glob("*.py")):
        listed.append((f"example-{example.stem}", PY + [f"examples/{example.name}"], {0}, None))
    for workload in ("paper", "dse", "serve"):
        listed.append((f"perfbench-{workload}", PY + ["perfbench/run.py", "--workload",
                                                      workload, "--seed", "1", "--seconds",
                                                      "1", "--trace", "1"], {0}, None))
    return listed


def copy_tree(source: Path, tree: Path) -> None:
    files = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=source, check=True, capture_output=True,
    ).stdout.decode().split("\0")
    for name in filter(None, files):
        if (source / name).is_file():
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source / name, tree / name)
    shutil.copy2(HERE / "sitecustomize.py", tree / "src" / "sitecustomize.py")


def run_step(label, argv, stdin, env, tree: Path, logs: Path) -> int:
    with open(logs / f"{label}.log", "w") as log:
        return subprocess.run(
            argv, cwd=tree, env=env, input=stdin, text=True, stdout=log,
            stderr=subprocess.STDOUT,
        ).returncode


def request(url: str, body=None):
    data = None if body is None else json.dumps(body).encode()
    try:
        with urlopen(Request(url, data=data, method="POST" if data else "GET"), timeout=30) as r:
            return r.status, json.loads(r.read())
    except HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


def serve_step(env, tree: Path, out: Path, logs: Path) -> str:
    """Start ``repro-serve --drain``, GET every route, POST each job type."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    stores = out / "stores"
    argv = PY + ["-m", "repro.runtime.serve", "--port", str(port), "--db",
                 str(stores / "runs.sqlite"), "--cache-dir", str(stores / "profiles"), "--drain"]
    base = f"http://127.0.0.1:{port}"
    statuses = []
    with open(logs / "serve.log", "w") as log:
        server = subprocess.Popen(argv, cwd=tree, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            deadline = time.monotonic() + 60
            while True:
                try:
                    request(base + "/healthz")
                    break
                except OSError:
                    if time.monotonic() > deadline or server.poll() is not None:
                        return "did not start"
                    time.sleep(0.2)
            profile = "/profile?app=spmv-csr&dataset=bcsstk30&scale="
            for path in ["/health", "/healthz", profile + "1/512", profile + "1/4096",
                         profile + "1/8192&enqueue=0", "/profile?app=spmv-csr&dataset=mbeacxc",
                         "/throughput?ordering=unordered&lanes=16&banks=16",
                         "/throughput?ordering=address-ordered&lanes=8&banks=8",
                         "/runs?limit=5", "/jobs", "/jobs/1"]:
                statuses.append(f"GET {path} {request(base + path)[0]}")
            status, latest = request(base + "/frontier")
            statuses.append(f"GET /frontier {status}")
            path = f"/frontier?key={latest.get('search_key')}"
            statuses.append(f"GET {path} {request(base + path)[0]}")
            context = {"scale": 1 / 4096}
            for body in [{"type": "profile_grid", "apps": ["spmv-csr"], "context": context},
                         {"type": "dse_grid", "axes": {"lanes": [8, 16]}, "apps": ["spmv-csr"],
                          "context": context},
                         {"type": "table_suite", "tables": ["table4"], "scale": 1 / 1024}]:
                statuses.append(f"POST {body['type']} {request(base + '/jobs', body)[0]}")
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                jobs = request(base + "/jobs")[1].get("jobs", [])
                if all(job.get("state") in ("done", "failed") for job in jobs):
                    break
                time.sleep(0.5)
        finally:
            server.send_signal(signal.SIGTERM)
            server.wait(timeout=30)
    (logs / "serve-requests.log").write_text("\n".join(statuses) + "\n")
    return f"{len(statuses)} requests"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="empty or absent working directory")
    parser.add_argument("--source", type=Path, default=HERE.parents[1],
                        help="repository to trace (default: this one)")
    args = parser.parse_args(argv)
    out = args.out.resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    tree, trace, logs, stores = (out / name for name in ("tree", "trace", "logs", "stores"))
    for directory in (tree, trace, logs, stores, out / "home"):
        directory.mkdir(parents=True)
    copy_tree(args.source.resolve(), tree)

    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(tree / "src"),
        TRACE_OUT=str(trace),
        HOME=str(out / "home"),
        REPRO_PROFILE_CACHE=str(stores / "profiles"),
        REPRO_THROUGHPUT_CACHE=str(stores / "throughput"),
        REPRO_SEARCH_STORE=str(stores / "search"),
        REPRO_RUN_DB=str(stores / "runs.sqlite"),
    )
    failed = 0
    for label, command, accepted, stdin in steps(out):
        start = time.perf_counter()
        code = run_step(label, command, stdin, env, tree, logs)
        mark = "" if code in accepted else "  UNEXPECTED"
        failed += bool(mark)
        print(f"{label:<28} exit {code:>3}  {time.perf_counter() - start:6.1f}s{mark}", flush=True)
    print(f"{'serve':<28} {serve_step(env, tree, out, logs)}", flush=True)

    joined = subprocess.run(
        PY + [str(HERE / "join.py"), str(tree / "src" / "repro"), str(trace)],
        check=True, capture_output=True, text=True,
    ).stdout
    (out / "unreached.txt").write_text(joined)
    print(joined.splitlines()[-1])
    if failed:
        print(f"{failed} steps exited unexpectedly; see {logs}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
