"""Workload definitions: what each workload runs, why, and what it reports.

Each workload is one task a user of the system waits for, chosen so that
it loads a different set of layers. A change to one layer should move the
metrics of the workload that exercises it and leave the others flat.

Every run reports the same end-to-end metrics (``BENCHMARK.json``), so the
three headline waits of each workload share the slots ``wait1_ms`` /
``wait2_ms`` / ``wait3_ms``; each workload's entry in :data:`WORKLOADS`
says which wait fills which slot. The per-layer metrics use the layer names, and read 0 on a workload
that does not reach the layer; :data:`PER_LAYER` maps each one to the
workload and slot it should move.
"""

from __future__ import annotations

#: Dataset scale of the paper reproduction (``repro.eval.EVAL_SCALE``).
PAPER_SCALE = 1.0 / 64.0

#: Profile scale of the DSE workload: the ``repro-eval dse`` default
#: (``RunContext().scale``), so set-up profiles the same tasks a user's
#: ``dse --search`` run loads from its cache.
DSE_SCALE = PAPER_SCALE

#: The 2,048-variant grid the bench runner's ``dse`` section enumerates.
DSE_AXES = {
    "lanes": (8, 16),
    "banks": (16, 32),
    "queue_depth": (8, 16),
    "crossbar_inputs": (16, 32),
    "compute_units": (64, 100, 144, 196, 256, 324, 400, 484),
    "bank_mapping": ("hash", "linear"),
    "allocator": ("separable", "greedy"),
    "ordering": ("unordered", "address-ordered"),
    "memory": ("hbm2e", "ddr4"),
}
DSE_OBJECTIVES = ("cycles", "area", "energy")
SEARCH_POPULATION, SEARCH_GENERATIONS = 48, 8
KILOVARIANT_POPULATION, KILOVARIANT_GENERATIONS = 64, 8
DSE_PHASES = ("exhaustive", "search", "kilovariant")
#: Passes of each phase per measured round, so the short phases are
#: medians of several fresh-interpreter passes, not one 2-4 s sample.
DSE_PHASE_REPEATS = {"exhaustive": 4, "search": 3, "kilovariant": 2}
#: Both searches use the CLI's default ``--seed``. A search's trajectory
#: decides how many distinct SpMU projections it simulates, and across
#: search seeds that moves the kilovariant time by +-15%, more than the
#: benchmark's bound; the benchmark seed varies the exhaustive pass's
#: evaluation order instead (``explore(seed=)``).
SEARCH_SEED = 0

#: The search must recover this share of the exhaustive hypervolume (the
#: bench runner's CI gate); a lower ratio counts as a failed operation.
MIN_HV_RATIO = 0.95

#: Open-loop serve traffic: offered rate, sender threads (at most nproc),
#: and the request mix. About 90% are warm reads; the rest are cold
#: ``/profile`` misses, each of which enqueues a job (a SQLite write).
#: The generator keeps up at 300 req/s on 2 cores, but there server plus
#: generator run near saturation and p90 swings 3-40 ms with host load;
#: at 100 req/s latency reflects service time, not queueing on the box.
SERVE_RATE = 100.0
SERVE_MAX_SENDERS = 2
SERVE_MIX = (
    ("profile", 0.60),
    ("throughput", 0.20),
    ("frontier", 0.10),
    ("enqueue", 0.10),
)
SERVE_TIMEOUT_S = 2.0
#: Cold ``/profile`` queries name this app at a distinct scale each, so
#: every one is a new job row (an identical query would resume its job).
SERVE_COLD_APP, SERVE_COLD_DATASET = "bfs", "usroads-48"
#: Throughput-store entries the serve set-up measures (warm ``/throughput``).
SERVE_THROUGHPUT_GRID = {
    "ordering": ("unordered", "address-ordered"),
    "banks": (16, 32),
    "queue_depth": (8, 16),
    "crossbar_inputs": (16, 32),
}
#: Small persisted search behind ``/frontier``.
SERVE_FRONTIER_AXES = {"lanes": (8, 16), "compute_units": (64, 144, 256)}
#: Seconds of serve traffic in the ``dse`` workload's traced run.
SERVE_TRACE_SECONDS = 10.0

# BENCHMARK.json lists ``paper`` and ``dse``. ``serve`` still runs on its
# own (``--workload serve``) and inside the ``dse`` traced run, but is not
# a benchmark workload: on a shared 2-core host its latencies flip between
# two host states run to run (p50 2.5 vs 3.7 ms, warm p90 3.3 vs 11 ms;
# IQR/median 0.3-1.4 over ten runs), beyond any bound of 0.25.

#: Why each workload was chosen and which wait fills each slot (the
#: ``why`` of the listed workloads in BENCHMARK.json; at most 200
#: characters each).
WORKLOADS = {
    "paper": (
        "Only workload that profiles, re-profiles (Figure 6) and runs the scalar SpMU; "
        "search and serve idle. wait1_ms=cold reproduction, wait2_ms=warm, "
        "wait3_ms=Figure 6 (cold)"
    ),
    "dse": (
        "Batched SpMU, costing, Pareto and search store, no profiling. "
        "wait1_ms=exhaustive 2,048 variants, wait2_ms=evolve 48x8 same grid, "
        "wait3_ms=evolve 64x8 over 110,592 points"
    ),
    "serve": (
        "Only workload using serve and jobs: open-loop HTTP at 100 req/s, ~90% warm "
        "reads, ~10% cold enqueues. wait1_ms=warm p50, wait2_ms=warm p90 (median of 2 s "
        "windows), wait3_ms=enqueue p50"
    ),
}

#: sha256 of every paper harness result plus the collected profiles,
#: recorded from a cold pass of this tree; any change to a paper number
#: fails the check. Update it only with a change that means to move them.
PAPER_DIGEST = "5b099c873ca049ec2483df1e8bc4555f1e340809b5afc9dd194f60f0bf1da380"

#: Layer -> end-to-end -> workload map: each per-layer metric, its unit,
#: which direction is better, the workload that moves it and the
#: end-to-end slot it should move there. Layers a workload never reaches
#: read 0 on it. Spans are self time (child spans excluded).
_PAPER_COLD = ("paper", "wait1_ms")
_PAPER_BOTH = ("paper", "wait1_ms wait2_ms")
PER_LAYER = [
    ("import_s", "s", "lower", *_PAPER_BOTH),
    ("profile.collect_cold_s", "s", "lower", *_PAPER_COLD),
    ("profile.collect_warm_s", "s", "lower", "paper", "wait2_ms"),
    ("profile.executions", "count", "lower", "paper", "wait1_ms wait2_ms wait3_ms"),
    ("profile.execute_s", "s", "lower", "paper", "wait1_ms wait3_ms"),
    ("cache.s", "s", "lower", *_PAPER_BOTH),
    ("cache.profile_hits", "count", "higher", "paper", "wait2_ms"),
    ("cache.profile_misses", "count", "lower", *_PAPER_BOTH),
    ("cache.throughput_entries", "count", "lower", *_PAPER_BOTH),
    ("spmu.scalar_s", "s", "lower", *_PAPER_BOTH),
    ("spmu.scalar_calls", "count", "lower", *_PAPER_BOTH),
    ("spmu.batch_s", "s", "lower", *_PAPER_COLD),
    ("spmu.batch_variants", "count", "lower", *_PAPER_COLD),
    ("costing.batch_s", "s", "lower", *_PAPER_COLD),
    ("costing.batch_cells", "count", "lower", *_PAPER_COLD),
    ("costing.scalar_s", "s", "lower", "paper", "wait1_ms wait3_ms"),
    ("costing.scalar_calls", "count", "lower", "paper", "wait1_ms wait3_ms"),
]
PER_LAYER += [
    (f"eval.{harness}_s", "s", "lower", *_PAPER_COLD)
    for harness in (
        "table4", "table9", "table10", "table11", "table12", "table13",
        "figure4", "figure5", "figure6", "figure7", "other",
    )
]
PER_LAYER += [
    # Error against the paper's published numbers (TABLE4_PAPER,
    # TABLE9_PAPER_GMEAN, TABLE10_PAPER_GMEAN). Deterministic: a change that
    # only speeds up the simulator must leave them exactly equal. The model
    # is not validated beyond these numbers.
    ("model.table4_mae_pct", "pct", "lower", "paper", "none"),
    ("model.table9_gmean_mae", "ratio", "lower", "paper", "none"),
    ("model.table10_gmean_mae", "ratio", "lower", "paper", "none"),
    ("paper_cold_s", "s", "lower", "paper", "wait1_ms"),
    ("paper_warm_s", "s", "lower", "paper", "wait2_ms"),
    ("paper.figure6_share", "ratio", "lower", "paper", "wait1_ms wait3_ms"),
]
_DSE_LAYERS = [
    # The SpMU and Pareto layers should move search and kilovariant and
    # leave exhaustive flat; sweep and gmean mainly move exhaustive.
    ("spmu.batch_s", "s", "lower"),
    ("spmu.batch_calls", "count", "lower"),
    ("spmu.batch_variants", "count", "lower"),
    ("spmu.distinct_projections", "count", "lower"),
    ("spmu.useful_ratio", "ratio", "higher"),
    ("costing.batch_s", "s", "lower"),
    ("sweep.build_s", "s", "lower"),
    ("gmean.s", "s", "lower"),
    ("gmean.calls", "count", "lower"),
    ("pareto.ranks_s", "s", "lower"),
    ("pareto.ranks_calls", "count", "lower"),
    ("pareto.frontier_s", "s", "lower"),
    ("pareto.frontier_calls", "count", "lower"),
    ("area.s", "s", "lower"),
    ("store.save_s", "s", "lower"),
    ("store.bytes", "bytes", "lower"),
    ("evaluations", "count", "lower"),
    ("generations", "count", "lower"),
]
for _phase, _slot in zip(DSE_PHASES, ("wait1_ms", "wait2_ms", "wait3_ms")):
    PER_LAYER += [(f"{_phase}.{n}", u, b, "dse", _slot) for n, u, b in _DSE_LAYERS]
PER_LAYER += [
    ("dse_exhaustive_s", "s", "lower", "dse", "wait1_ms"),
    ("dse_search_s", "s", "lower", "dse", "wait2_ms"),
    ("dse_kilovariant_s", "s", "lower", "dse", "wait3_ms"),
    ("search_hv_ratio", "ratio", "higher", "dse", "none"),
    ("search_eval_fraction", "ratio", "lower", "dse", "wait2_ms"),
    ("kilovariant.spmu_batch_share", "ratio", "lower", "dse", "wait3_ms"),
    # Serve and jobs layers: measured by the dse workload's traced run
    # (SERVE_TRACE_SECONDS of serve traffic); no end-to-end slot moves.
    ("serve.profile_p50_ms", "ms", "lower", "dse", "none"),
    ("serve.profile_p90_ms", "ms", "lower", "dse", "none"),
    ("serve.throughput_p50_ms", "ms", "lower", "dse", "none"),
    ("serve.frontier_p50_ms", "ms", "lower", "dse", "none"),
    ("serve.enqueue_p50_ms", "ms", "lower", "dse", "none"),
    ("serve.enqueue_p90_ms", "ms", "lower", "dse", "none"),
    ("serve.p99_ms", "ms", "lower", "dse", "none"),
    ("serve.warm_p50_ms", "ms", "lower", "dse", "none"),
    ("serve.warm_p90_ms", "ms", "lower", "dse", "none"),
    ("serve.late_p50_ms", "ms", "lower", "dse", "none"),
    ("serve.late_max_ms", "ms", "lower", "dse", "none"),
    ("serve.sent", "count", "higher", "dse", "none"),
    ("serve.status_200", "count", "higher", "dse", "none"),
    ("serve.status_202", "count", "higher", "dse", "none"),
    ("serve.status_other", "count", "lower", "dse", "none"),
    ("serve.timeouts", "count", "lower", "dse", "none"),
    ("jobs.enqueued_rows", "count", "higher", "dse", "none"),
    ("serve.server_cpu_s", "s", "lower", "dse", "none"),
    ("serve.cpu_ms_per_req", "ms", "lower", "dse", "none"),
    ("serve_p50_ms", "ms", "lower", "dse", "none"),
    ("serve_p90_ms", "ms", "lower", "dse", "none"),
    ("serve_error_frac", "ratio", "lower", "dse", "none"),
    # Traced minus untraced wall time of the same passes (the serve
    # traffic is measured from outside and not included).
    ("trace.overhead_s", "s", "lower", "all", "none"),
]
