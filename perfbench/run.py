"""Repo benchmark: paper reproduction, DSE search and warm serving.

Run from the root of a checkout (no build step; the package is imported
from ``src``)::

    python3 perfbench/run.py --workload paper|dse|serve --seed N \
        --seconds S --trace 0|1

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs it once untraced and once with the layer
wrappers of ``layertrace.py`` and prints the per-layer metrics. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
record (seed, nproc, versions, commit, sample counts, workload choice).
Every pass runs in a fresh interpreter over fresh store directories under
``.perfbench/`` in the checkout, which is removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Hard cap on any one child process (a run must end within 180 s).
CHILD_TIMEOUT_S = 150.0
#: Serve tail latency is the median over windows of this many seconds of
#: each window's p90, so one host hiccup does not decide the run.
SERVE_WINDOW_S = 2.0
#: Traffic before the measured window, checked but left out of latency:
#: the first seconds pay for lazy imports, the first SQLite writes and
#: the page-cache writeback of the set-up that just filled the stores.
SERVE_WARMUP_S = 2.0


class BenchError(Exception):
    """The benchmark could not run (not a failed operation of the program)."""


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


class Run:
    """One benchmark invocation: its work directory, children and tallies."""

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.work = root / ".perfbench" / f"run-{os.getpid()}-{time.time_ns()}"
        self.work.mkdir(parents=True)
        self.attempted = 0
        self.failures: List[str] = []
        self.peak_rss_mb = 0.0
        self._serial = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            (self.root / ".perfbench").rmdir()
        except OSError:
            pass  # another run still uses it

    def check(self, ok: bool, message: str) -> None:
        """Count one checked operation; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def dirs(self, profiles: Optional[Path] = None) -> Dict[str, Path]:
        """Fresh, empty store directories (optionally sharing a profile cache)."""
        self._serial += 1
        base = self.work / f"p{self._serial:03d}"
        paths = {
            "profiles": profiles or base / "profiles",
            "throughput": base / "throughput",
            "search": base / "search",
            "home": base / "home",
            "tmp": base / "tmp",
            "db": base / "runs.sqlite",
        }
        for key in ("profiles", "throughput", "search", "home", "tmp"):
            paths[key].mkdir(parents=True, exist_ok=True)
        return paths

    def env(self, paths: Dict[str, Path]) -> Dict[str, str]:
        # Drop every ambient REPRO_* knob (memory budget, workers, fault
        # plans, cache switches) so runs see only what the benchmark sets.
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        python_path = [str(self.root / "src")]
        if env.get("PYTHONPATH"):
            python_path.append(env["PYTHONPATH"])
        env.update(
            PYTHONPATH=os.pathsep.join(python_path),
            PYTHONUNBUFFERED="1",
            HOME=str(paths["home"]),
            TMPDIR=str(paths["tmp"]),
            REPRO_PROFILE_CACHE=str(paths["profiles"]),
            REPRO_THROUGHPUT_CACHE=str(paths["throughput"]),
            REPRO_SEARCH_STORE=str(paths["search"]),
            REPRO_RUN_DB=str(paths["db"]),
        )
        return env

    def child(
        self,
        mode: str,
        paths: Dict[str, Path],
        trace: int = 0,
        *extra: str,
        measured: bool = True,
    ) -> dict:
        """Run ``child.py MODE`` to completion and return its JSON result;
        ``measured`` children count towards ``peak_rss_mb``."""
        self._serial += 1
        out = self.work / f"out-{self._serial:03d}-{mode}.json"
        command = [
            sys.executable,
            str(HERE / "child.py"),
            mode,
            "--out",
            str(out),
            "--seed",
            str(self.seed),
            "--trace",
            str(trace),
            *extra,
        ]
        try:
            proc = subprocess.run(
                command,
                cwd=self.root,
                env=self.env(paths),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} exceeded {CHILD_TIMEOUT_S:.0f}s") from None
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
            raise BenchError(f"{mode} exited {proc.returncode}:\n{tail}")
        with open(out) as handle:
            payload = json.load(handle)
        payload["_path"] = str(out)
        if measured:
            self.peak_rss_mb = max(self.peak_rss_mb, payload["peak_rss_mb"])
        return payload


def timed_setups(make: Callable[[], object]) -> tuple:
    """Run a set-up ``SETUP_REPEATS`` times; returns (median s, last result)."""
    times, result = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def measured_rounds(seconds: float, one_round: Callable[[], dict]) -> List[dict]:
    """Repeat ``one_round`` while another round still fits in ``seconds``
    (at least one round)."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(one_round())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


def _span(report: Optional[dict], name: str, field: str) -> float:
    if not report:
        return 0.0
    return float(report["spans"].get(name, {}).get(field, 0.0))


def _counter(report: Optional[dict], name: str) -> float:
    if not report:
        return 0.0
    return float(report["counters"].get(name, 0.0))


# --------------------------------------------------------------------------- #
# paper
# --------------------------------------------------------------------------- #


def _paper_round(run: Run, trace: int) -> dict:
    paths = run.dirs()
    cold = run.child("paper-cold", paths, trace)
    warm = run.child("paper-warm", paths, trace)
    for label, result in (("cold", cold), ("warm", warm)):
        for name in ["collect", *result["harnesses"]]:
            failure = next((f for f in result["failures"] if f.startswith(name + ":")), None)
            run.check(failure is None, f"paper {label} {failure}")
        run.check(result["error_tasks"] == 0, f"paper {label}: {result['error_tasks']} error tasks")
        run.check(
            result["digest"] == W.PAPER_DIGEST,
            f"paper {label}: digest {result['digest']} != recorded {W.PAPER_DIGEST}",
        )
    run.check(cold["digest"] == warm["digest"], "paper: cold and warm results differ")
    return {"cold": cold, "warm": warm}


def paper(run: Run, seconds: float, trace: int) -> dict:
    setup_s, probe = timed_setups(lambda: run.child("probe", run.dirs(), measured=False))
    if not trace:
        rounds = measured_rounds(seconds, lambda: _paper_round(run, 0))
        return {
            "setup_s": setup_s,
            "probe": probe,
            "samples": {"rounds": len(rounds)},
            "waits_ms": [
                1000.0 * statistics.median(r["cold"]["wall_s"] for r in rounds),
                1000.0 * statistics.median(r["warm"]["wall_s"] for r in rounds),
                1000.0 * statistics.median(r["cold"]["timings"]["figure6"] for r in rounds),
            ],
        }
    plain = _paper_round(run, 0)
    traced = _paper_round(run, 1)
    cold, warm = traced["cold"], traced["warm"]
    report, warm_report = cold["trace"], warm["trace"]
    timings = cold["timings"]
    listed = {
        "table4": ["table4"],
        "table9": ["table9"],
        "table10": ["table10"],
        "table11": ["table11"],
        "table12": ["table12"],
        "table13": ["table13"],
        "figure4": ["figure4"],
        "figure5": ["figure5a", "figure5b", "figure5c"],
        "figure6": ["figure6"],
        "figure7": ["figure7"],
    }
    metrics = {
        "import_s": cold["import_s"],
        "profile.collect_cold_s": timings["collect"],
        "profile.collect_warm_s": warm["timings"]["collect"],
        "profile.executions": _span(report, "profile.execute", "calls"),
        "profile.execute_s": _span(report, "profile.execute", "self_s"),
        "cache.s": _span(report, "cache", "self_s") + _span(warm_report, "cache", "self_s"),
    }
    for name in ("cache.profile_hits", "cache.profile_misses", "cache.throughput_entries"):
        metrics[name] = _counter(report, name) + _counter(warm_report, name)
    for layer in ("spmu.scalar", "spmu.batch", "costing.scalar", "costing.batch"):
        metrics[f"{layer}_s"] = _span(report, layer, "self_s")
    metrics["spmu.scalar_calls"] = _span(report, "spmu.scalar", "calls")
    metrics["spmu.batch_variants"] = _counter(report, "spmu.batch_variants")
    metrics["costing.scalar_calls"] = _span(report, "costing.scalar", "calls")
    metrics["costing.batch_cells"] = _counter(report, "costing.batch_cells")
    for name, parts in listed.items():
        metrics[f"eval.{name}_s"] = sum(timings[p] for p in parts)
    metrics["eval.other_s"] = cold["wall_s"] - cold["import_s"] - timings["collect"] - sum(
        timings[p] for parts in listed.values() for p in parts
    )
    for name, value in cold["model"].items():
        metrics[f"model.{name}"] = value
    metrics.update(
        {
            "paper_cold_s": plain["cold"]["wall_s"],
            "paper_warm_s": plain["warm"]["wall_s"],
            "paper.figure6_share": timings["figure6"] / cold["wall_s"],
            "trace.overhead_s": (cold["wall_s"] + warm["wall_s"])
            - (plain["cold"]["wall_s"] + plain["warm"]["wall_s"]),
        }
    )
    return {"probe": probe, "samples": {"rounds": 1, "traced_rounds": 1}, "per_layer": metrics}


# --------------------------------------------------------------------------- #
# dse
# --------------------------------------------------------------------------- #


def _dse_round(run: Run, profiles: Path, trace: int, repeats: Dict[str, int]) -> dict:
    """Each phase ``repeats[phase]`` times, each time in a fresh child over
    fresh stores; returns every phase's results in order."""
    results: Dict[str, List[dict]] = {}
    for phase in W.DSE_PHASES:
        results[phase] = []
        for _ in range(repeats[phase]):
            extra = ("--against", results["exhaustive"][0]["_path"]) if phase == "search" else ()
            result = run.child(f"dse-{phase}", run.dirs(profiles=profiles), trace, *extra)
            run.attempted += 1 + result["checked"]
            run.failures += [f"dse {phase}: {f}" for f in result["failures"]]
            results[phase].append(result)
    first = results["exhaustive"][0]["rows"]
    for other in results["exhaustive"][1:]:
        run.check(other["rows"] == first, "dse exhaustive: repeated passes differ")
    return results


def dse(run: Run, seconds: float, trace: int) -> dict:
    probe = run.child("probe", run.dirs(), measured=False)

    def warm_profiles() -> Path:
        paths = run.dirs()
        run.child("dse-warm", paths, measured=False)
        return paths["profiles"]

    setup_s, profiles = timed_setups(warm_profiles)
    if not trace:
        rounds = measured_rounds(
            seconds, lambda: _dse_round(run, profiles, 0, W.DSE_PHASE_REPEATS)
        )
        walls = {
            phase: [p["wall_s"] for r in rounds for p in r[phase]] for phase in W.DSE_PHASES
        }
        return {
            "setup_s": setup_s,
            "probe": probe,
            "samples": {"rounds": len(rounds), **{p: len(w) for p, w in walls.items()}},
            "waits_ms": [1000.0 * statistics.median(walls[p]) for p in W.DSE_PHASES],
        }
    once = dict.fromkeys(W.DSE_PHASES, 1)
    plain = {p: r[0] for p, r in _dse_round(run, profiles, 0, once).items()}
    traced = {p: r[0] for p, r in _dse_round(run, profiles, 1, once).items()}
    metrics = {}
    for phase in W.DSE_PHASES:
        result = traced[phase]
        report = result["trace"]
        variants = _counter(report, "spmu.batch_variants")
        distinct = float(report["distinct_projections"])
        values = {
            "spmu.batch_s": _span(report, "spmu.batch", "self_s"),
            "spmu.batch_calls": _span(report, "spmu.batch", "calls"),
            "spmu.batch_variants": variants,
            "spmu.distinct_projections": distinct,
            "spmu.useful_ratio": distinct / variants if variants else 0.0,
            "costing.batch_s": _span(report, "costing.batch", "self_s"),
            "sweep.build_s": _span(report, "sweep.build", "self_s"),
            "gmean.s": _span(report, "gmean", "self_s"),
            "gmean.calls": _span(report, "gmean", "calls"),
            "pareto.ranks_s": _span(report, "pareto.ranks", "self_s"),
            "pareto.ranks_calls": _span(report, "pareto.ranks", "calls"),
            "pareto.frontier_s": _span(report, "pareto.frontier", "self_s"),
            "pareto.frontier_calls": _span(report, "pareto.frontier", "calls"),
            "area.s": _span(report, "area", "self_s"),
            "store.save_s": _span(report, "store.save", "self_s"),
            "store.bytes": _counter(report, "store.bytes"),
            "evaluations": float(result["evaluations"]),
            "generations": float(result["generations"]),
        }
        metrics.update({f"{phase}.{name}": value for name, value in values.items()})
    kilovariant = traced["kilovariant"]
    metrics.update(
        {
            "dse_exhaustive_s": plain["exhaustive"]["wall_s"],
            "dse_search_s": plain["search"]["wall_s"],
            "dse_kilovariant_s": plain["kilovariant"]["wall_s"],
            "search_hv_ratio": plain["search"]["hv_ratio"],
            "search_eval_fraction": plain["search"]["evaluations"]
            / plain["search"]["space_size"],
            "kilovariant.spmu_batch_share": metrics["kilovariant.spmu.batch_s"]
            / kilovariant["wall_s"],
            "trace.overhead_s": sum(traced[p]["wall_s"] - plain[p]["wall_s"] for p in W.DSE_PHASES),
        }
    )
    # Serving is too unsteady on a shared 2-core host to be a benchmark
    # workload of its own (see workloads.py); its layers are measured here,
    # from outside the server, so they still have a baseline.
    served = serve(run, W.SERVE_TRACE_SECONDS, trace=1)
    metrics.update(served["per_layer"])
    samples = {"rounds": 1, "traced_rounds": 1, "serve": served["samples"]}
    return {"probe": probe, "samples": samples, "per_layer": metrics}


# --------------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------------- #


class Server:
    """A ``repro-serve`` child on an ephemeral loopback port."""

    def __init__(self, run: Run, paths: Dict[str, Path]) -> None:
        self.log = open(paths["home"] / "serve.log", "w")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.runtime.serve",
                "--port",
                "0",
                "--db",
                str(paths["db"]),
                "--cache-dir",
                str(paths["profiles"]),
            ],
            cwd=run.root,
            env=run.env(paths),
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
        )
        try:
            self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, timeout_s: float = 30.0) -> int:
        deadline = time.monotonic() + timeout_s
        line = self._readline_before(deadline)
        if "listening on http://" not in line:
            raise BenchError(f"repro-serve did not start: {line!r}")
        port = int(line.rsplit(":", 1)[1].strip().strip("/"))
        while time.monotonic() < deadline:
            try:
                if request(port, "/healthz")[0] == 200:
                    return port
            except OSError:
                pass
            time.sleep(0.02)
        raise BenchError("repro-serve never became healthy")

    def _readline_before(self, deadline: float) -> str:
        box: List[str] = []
        reader = threading.Thread(target=lambda: box.append(self.proc.stdout.readline()))
        reader.daemon = True
        reader.start()
        reader.join(max(0.0, deadline - time.monotonic()))
        return box[0] if box else ""

    def proc_stats(self) -> tuple:
        """(CPU seconds used, peak RSS in MB) from /proc."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        cpu_s = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
        peak_kb = 0
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    peak_kb = int(line.split()[1])
        return cpu_s, peak_kb / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()


def request(port: int, path: str) -> tuple:
    """One GET over a fresh connection; returns (status, body bytes).

    The server answers one request per connection and closes it, so the
    response is everything up to EOF. A raw socket keeps the generator's
    own cost per request small next to the server's.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=W.SERVE_TIMEOUT_S) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode("latin-1"))
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


def _schedule(seed: int, count: int, expect: dict) -> List[tuple]:
    """The seeded request sequence: (kind, path, expected value or None)."""
    rng = random.Random(seed)
    kinds = [kind for kind, _ in W.SERVE_MIX]
    weights = [weight for _, weight in W.SERVE_MIX]
    profile_keys = sorted(expect["profiles"])
    denominator = rng.randrange(1000, 1_000_000)
    scale = f"1/{round(1 / W.PAPER_SCALE)}"
    out = []
    for kind in rng.choices(kinds, weights, k=count):
        if kind == "profile":
            key = rng.choice(profile_keys)
            app, dataset = key.split("|")
            out.append((kind, f"/profile?app={app}&dataset={dataset}&scale={scale}", key))
        elif kind == "throughput":
            query = rng.choice(expect["throughputs"])
            params = "&".join(f"{k}={v}" for k, v in query.items() if k != "expected")
            out.append((kind, f"/throughput?{params}", query["expected"]))
        elif kind == "frontier":
            out.append((kind, "/frontier", None))
        else:
            # A distinct scale per cold query, so each one is a new job.
            denominator += 1
            out.append(
                (
                    kind,
                    f"/profile?app={W.SERVE_COLD_APP}&dataset={W.SERVE_COLD_DATASET}"
                    f"&scale=1/{denominator}",
                    None,
                )
            )
    return out


def _traffic(
    port: int, schedule: List[tuple], senders: int, stop: threading.Event
) -> List[dict]:
    """Open loop: request i is due at start + i/rate whatever came before;
    latency is measured from when it was due."""
    results: List[Optional[dict]] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = [0]
    start = time.monotonic() + 0.05

    def sender() -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(schedule):
                return
            due = start + i / W.SERVE_RATE
            if stop.wait(max(0.0, due - time.monotonic())):
                return
            sent = time.monotonic()
            try:
                status, body = request(port, schedule[i][1])
            except OSError:  # includes socket timeouts
                status, body = None, b""
            done = time.monotonic()
            results[i] = {
                "status": status,
                "body": body,
                "latency_ms": (done - due) * 1000.0,
                "late_ms": (sent - due) * 1000.0,
            }

    threads = [threading.Thread(target=sender) for _ in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results  # type: ignore[return-value]


def _check_serve(run: Run, schedule: List[tuple], results: List[dict], expect: dict) -> int:
    """Check every response; returns the number of 202s."""
    accepted = 0
    spot = 0
    for (kind, path, expected), result in zip(schedule, results):
        status = result["status"]
        if kind == "enqueue":
            run.check(status == 202, f"serve {path}: status {status}, expected 202")
            accepted += status == 202
            continue
        ok = status == 200
        if ok and kind == "profile":
            spot += 1
            if spot % 20 == 1:  # spot-check bodies against the cache
                ok = json.loads(result["body"])["profile"] == expect["profiles"][expected]
        elif ok and kind == "throughput":
            ok = json.loads(result["body"])["throughput"] == expected
        elif ok and kind == "frontier":
            names = sorted(p["name"] for p in json.loads(result["body"])["frontier"])
            ok = names == expect["frontier"]
        run.check(ok, f"serve {path}: status {status} or body mismatch")
    return accepted


def serve(run: Run, seconds: float, trace: int) -> dict:
    probe = run.child("probe", run.dirs(), measured=False)
    servers: List[Server] = []
    stop = threading.Event()
    try:

        def start() -> tuple:
            paths = run.dirs()
            expect = run.child("serve-warm", paths, measured=False)
            servers.append(Server(run, paths))
            return paths, expect

        setup_s, (paths, expect) = timed_setups(start)
        for server in servers[:-1]:
            server.stop()
        server = servers[-1]
        senders = max(1, min(W.SERVE_MAX_SENDERS, os.cpu_count() or 1))
        warmup = int(W.SERVE_RATE * SERVE_WARMUP_S)
        schedule = _schedule(run.seed, warmup + int(W.SERVE_RATE * seconds), expect)
        cpu_before, _ = server.proc_stats()
        results = _traffic(server.port, schedule, senders, stop)
        cpu_after, peak_mb = server.proc_stats()
    finally:
        stop.set()
        for server in servers:
            server.stop()
    run.peak_rss_mb = max(run.peak_rss_mb, peak_mb)
    accepted = _check_serve(run, schedule, results, expect)
    rows = run.child("serve-jobs", paths, measured=False)["profile_jobs"]
    run.check(rows == accepted, f"serve: {accepted} enqueues answered 202 but {rows} job rows")

    timed = list(zip(schedule, results))[warmup:]
    latencies = [r["latency_ms"] for _, r in timed]
    # Warm reads and enqueues are timed apart: with ~10% slower enqueues
    # in the mix, an overall p90 sits on the boundary between the two.
    warm = [r["latency_ms"] for (kind, _, _), r in timed if kind != "enqueue"]
    per_window = max(1, int(W.SERVE_RATE * SERVE_WINDOW_S))
    warm_p90 = statistics.median(
        percentile(warm[i : i + per_window], 0.9) for i in range(0, len(warm), per_window)
    )
    by_kind: Dict[str, List[float]] = {}
    for (kind, _, _), result in timed:
        by_kind.setdefault(kind, []).append(result["latency_ms"])
    samples = {
        "requests": len(timed),
        "warmup_requests": warmup,
        **{k: len(v) for k, v in by_kind.items()},
        "warm_p90_windows": -(-len(warm) // per_window),
    }
    if not trace:
        return {
            "setup_s": setup_s,
            "probe": probe,
            "samples": samples,
            "waits_ms": [percentile(warm, 0.5), warm_p90, percentile(by_kind["enqueue"], 0.5)],
        }
    statuses = [r["status"] for r in results]
    errors = sum(1 for f in run.failures if f.startswith("serve "))
    cpu_s = cpu_after - cpu_before
    metrics = {
        "serve.profile_p50_ms": percentile(by_kind["profile"], 0.5),
        "serve.profile_p90_ms": percentile(by_kind["profile"], 0.9),
        "serve.throughput_p50_ms": percentile(by_kind["throughput"], 0.5),
        "serve.frontier_p50_ms": percentile(by_kind["frontier"], 0.5),
        "serve.enqueue_p50_ms": percentile(by_kind["enqueue"], 0.5),
        "serve.enqueue_p90_ms": percentile(by_kind["enqueue"], 0.9),
        "serve.p99_ms": percentile(latencies, 0.99),
        "serve.late_p50_ms": percentile([r["late_ms"] for _, r in timed], 0.5),
        "serve.late_max_ms": max(r["late_ms"] for _, r in timed),
        "serve.sent": float(len(results)),
        "serve.status_200": float(statuses.count(200)),
        "serve.status_202": float(statuses.count(202)),
        "serve.status_other": float(sum(1 for s in statuses if s not in (200, 202, None))),
        "serve.timeouts": float(statuses.count(None)),
        "jobs.enqueued_rows": float(rows),
        "serve.server_cpu_s": cpu_s,
        "serve.cpu_ms_per_req": cpu_s * 1000.0 / len(results),
        "serve.warm_p50_ms": percentile(warm, 0.5),
        "serve.warm_p90_ms": warm_p90,
        "serve_p50_ms": percentile(latencies, 0.5),
        "serve_p90_ms": percentile(latencies, 0.9),
        "serve_error_frac": errors / len(results),
    }
    return {"probe": probe, "samples": samples, "per_layer": metrics}


# --------------------------------------------------------------------------- #
# command line
# --------------------------------------------------------------------------- #

RUNNERS = {"paper": paper, "dse": dse, "serve": serve}


def _commit(root: Path) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # A terminated run still unwinds: children are killed and waited for,
    # the server is stopped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no repro source tree (src/repro)", file=sys.stderr)
        return 2
    run = Run(root, args.seed)
    try:
        outcome = RUNNERS[args.workload](run, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()

    names = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if args.trace:
        values = outcome["per_layer"]
        spec = names["per_layer"]
    else:
        values = {
            "setup_s": outcome["setup_s"],
            "peak_rss_mb": run.peak_rss_mb,
            **{f"wait{i}_ms": ms for i, ms in enumerate(outcome["waits_ms"], 1)},
        }
        spec = names["end_to_end"]
    unknown = set(values) - {m["name"] for m in spec}
    if unknown:
        print(f"error: metrics missing from BENCHMARK.json: {sorted(unknown)}", file=sys.stderr)
        return 1
    # A layer this workload never reaches reads 0.
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in spec
    }
    record = {
        "workload": args.workload,
        "why": W.WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": outcome["probe"]["python"],
        "numpy": outcome["probe"]["numpy"],
        "commit": _commit(root),
        "code_fingerprint": outcome["probe"]["code_fingerprint"],
        "samples": outcome["samples"],
        "failures": run.failures[:20],
    }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
