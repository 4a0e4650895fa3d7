"""One measured pass or set-up step, in a fresh interpreter.

``run.py`` starts this script once per pass, so in-process memos
(``repro.core.spmu._THROUGHPUT_CACHE``, ``repro.eval.figures.
_SCAN_REPROFILE_CACHE``, ...) never carry over between passes. The store
locations come from the environment (``REPRO_PROFILE_CACHE``,
``REPRO_THROUGHPUT_CACHE``, ``REPRO_SEARCH_STORE``, ``REPRO_RUN_DB``),
which ``run.py`` points at fresh directories inside the checkout. The
result is written as JSON to the ``--out`` path.

Usage: python perfbench/child.py MODE --out PATH [--seed N] [--trace 0|1]
  MODE: probe | paper-cold | paper-warm | dse-warm | dse-PHASE | serve-warm |
        serve-jobs
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from enum import Enum  # noqa: E402

import numpy as np  # noqa: E402
import workloads as W  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _canonical(value):
    """JSON-safe form of a harness result with deterministic key order."""
    if isinstance(value, dict):
        return {
            ("|".join(map(str, k)) if isinstance(k, tuple) else str(k)): _canonical(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_canonical(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, Enum):
        return value.value
    return value


def _tracer(enabled: bool):
    if not enabled:
        return None
    from layertrace import Tracer, install_layers

    tracer = Tracer()
    install_layers(tracer)
    return tracer


def _trace_report(tracer):
    if tracer is None:
        return None
    report = tracer.report()
    report["distinct_projections"] = len(tracer.keys.get("spmu.projections", ()))
    return report


# --------------------------------------------------------------------------- #
# probe: the import every set-up starts with
# --------------------------------------------------------------------------- #


def probe(args) -> dict:
    import numpy

    import repro.eval  # noqa: F401
    from repro.runtime.cache import code_fingerprint

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "code_fingerprint": code_fingerprint(),
    }


# --------------------------------------------------------------------------- #
# paper: every harness in repro.eval at EVAL_SCALE
# --------------------------------------------------------------------------- #


def paper(args) -> dict:
    from repro import eval as E
    from repro.eval.experiments import ExperimentRunner
    from repro.runtime.cache import ProfileCache, profile_to_dict

    import_s = time.perf_counter() - _START
    tracer = _tracer(args.trace)

    # Tap the runner so the pass can check that no task reported an error.
    reports = []
    original_run = ExperimentRunner.run

    def run_and_keep(self, *a, **k):
        report = original_run(self, *a, **k)
        reports.append(report)
        return report

    ExperimentRunner.run = run_and_keep

    timings, results, failures = {}, {}, []

    def timed(name, function, *a, **k):
        start = time.perf_counter()
        try:
            results[name] = function(*a, **k)
        except Exception as exc:  # noqa: BLE001 - a failed harness is a counted failure
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            results[name] = None
        timings[name] = time.perf_counter() - start
        return results[name]

    profiles = timed(
        "collect",
        E.collect_profiles,
        scale=E.EVAL_SCALE,
        workers=1,
        cache=ProfileCache(),
    )
    harnesses = [
        ("table4", E.table4_spmu_throughput, ()),
        ("table5", E.table5_scanner_area, ()),
        ("table8", E.table8_area, ()),
        ("table9", E.table9_spmu_sensitivity, (profiles,)),
        ("table10", E.table10_ordering_modes, (profiles,)),
        ("table11", E.table11_shuffle_sensitivity, (profiles,)),
        ("table12", E.table12_performance, (profiles,)),
        ("table13", E.table13_asic_comparison, (profiles,)),
        ("figure4", E.figure4_ordering_trace, ()),
        ("figure5a", E.figure5a_bandwidth_sensitivity, (profiles,)),
        ("figure5b", E.figure5b_area_sensitivity, (profiles,)),
        ("figure5c", E.figure5c_compression_sensitivity, (profiles,)),
        ("figure6", E.figure6_scanner_sensitivity, (profiles, E.EVAL_SCALE)),
        ("figure7", E.figure7_stall_breakdown, (profiles,)),
    ]
    for name, function, positional in harnesses:
        timed(name, function, *positional)
    wall_s = time.perf_counter() - _START

    error_tasks = sum(len(report.errors()) for report in reports)
    outputs = {name: results[name] for name, _, _ in harnesses}
    outputs["profiles"] = (
        {f"{a}|{d}": profile_to_dict(p) for (a, d), p in sorted(profiles.profiles.items())}
        if profiles is not None
        else None
    )
    digest = hashlib.sha256(
        json.dumps(_canonical(outputs), sort_keys=True).encode()
    ).hexdigest()
    return {
        "wall_s": wall_s,
        "import_s": import_s,
        "timings": timings,
        "harnesses": [name for name, _, _ in harnesses],
        "error_tasks": error_tasks,
        "failures": failures,
        "digest": digest,
        "model": _model_error(results),
        "trace": _trace_report(tracer),
    }


def _model_error(results) -> dict:
    """Error against the paper's published numbers kept in eval/tables.py."""
    from repro.eval.tables import TABLE4_PAPER, TABLE9_PAPER_GMEAN, TABLE10_PAPER_GMEAN

    out = {}
    if results.get("table4"):
        errors = []
        for row in results["table4"]:
            crossbar = int(row["crossbar"].split("x")[0])
            for priority in (1, 2, 3):
                paper_value = TABLE4_PAPER.get((row["depth"], crossbar, priority))
                if paper_value is not None:
                    errors.append(abs(row[f"measured_{priority}pri_pct"] - paper_value))
        out["table4_mae_pct"] = sum(errors) / len(errors)
    for table, paper_gmean in (("table9", TABLE9_PAPER_GMEAN), ("table10", TABLE10_PAPER_GMEAN)):
        if results.get(table):
            gmean = results[table]["gmean"]
            errors = [abs(gmean[name] - value) for name, value in paper_gmean.items()]
            out[f"{table}_gmean_mae"] = sum(errors) / len(errors)
    return out


# --------------------------------------------------------------------------- #
# dse: profiles from the warmed cache, then one timed phase
# --------------------------------------------------------------------------- #


def _dse_profiles():
    from repro.eval import collect_profiles
    from repro.runtime.cache import ProfileCache

    profile_set = collect_profiles(scale=W.DSE_SCALE, workers=1, cache=ProfileCache())
    return [profile_set.profiles[key] for key in sorted(profile_set.profiles)]


def dse_warm(args) -> dict:
    profiles = _dse_profiles()
    return {"profiles": len(profiles)}


def _cost_rows(profiles, platforms):
    """(cycles gmean, area, energy gmean) per platform, the way explore and
    the search engine compute them."""
    from repro.apps.timing import estimate_cycles_batch
    from repro.core.area import capstan_area
    from repro.sim.stats import geometric_mean

    batch = estimate_cycles_batch(profiles, platforms, energy=True)
    return [
        [
            geometric_mean([float(c) for c in batch.cycles[:, j]]),
            capstan_area(platform.config).total_mm2,
            geometric_mean([float(e) for e in batch.energy_mj[:, j]]),
        ]
        for j, platform in enumerate(platforms)
    ]


def dse_phase(args) -> dict:
    from repro.runtime.dse import explore
    from repro.runtime.search import (
        DEFAULT_SEARCH_AXES,
        AdaptiveSearch,
        SearchSpace,
        SearchStore,
        hypervolume,
        make_strategy,
    )
    from repro.runtime.sweep import parse_axis_value

    phase = args.mode.split("-", 1)[1]
    profiles = _dse_profiles()
    tracer = _tracer(args.trace)
    failures = []
    out = {"phase": phase}

    if phase == "exhaustive":
        axes = {
            axis: tuple(parse_axis_value(axis, v) for v in values)
            for axis, values in W.DSE_AXES.items()
        }
        start = time.perf_counter()
        result = explore(profiles=profiles, energy=True, seed=args.seed, **axes)
        wall_s = time.perf_counter() - start
        trace = _trace_report(tracer)
        area = [row["area_mm2"] for row in result.rows()]
        out["rows"] = {
            name: [float(c), float(a), float(e)]
            for name, c, a, e in zip(
                result.names, result.gmean_cycles, area, result.gmean_energy_mj
            )
        }
        out.update(evaluations=len(result.names), generations=0, space_size=len(result.names))
        out["checked"], spot_failures = _spot_check_scalar(
            profiles, list(result.variants.values()), result
        )
        failures += spot_failures
    else:
        if phase == "search":
            space = SearchSpace.from_axes(W.DSE_AXES)
            population, generations = W.SEARCH_POPULATION, W.SEARCH_GENERATIONS
        else:
            space = SearchSpace.from_axes(dict(DEFAULT_SEARCH_AXES))
            population, generations = W.KILOVARIANT_POPULATION, W.KILOVARIANT_GENERATIONS
        start = time.perf_counter()
        result = AdaptiveSearch(
            space,
            make_strategy("evolve", population=population, generations=generations),
            profiles,
            objectives=W.DSE_OBJECTIVES,
            seed=W.SEARCH_SEED,
            store=SearchStore(),
        ).run()
        wall_s = time.perf_counter() - start
        trace = _trace_report(tracer)
        rows = {n: [float(v) for v in costs] for n, costs in zip(result.names, result.costs)}
        out.update(
            evaluations=result.evaluations,
            generations=result.generations,
            space_size=space.size,
        )
        if phase == "search":
            # Every searched variant must cost exactly what the exhaustive
            # pass costed it at, and the frontier must keep most of the
            # exhaustive hypervolume.
            with open(args.against) as handle:
                exhaustive = json.load(handle)["rows"]
            for name, row in rows.items():
                if exhaustive.get(name) != row:
                    failures.append(f"search {name}: {row} != {exhaustive.get(name)}")
            full = np.array(list(exhaustive.values()))
            # A reference point every candidate strictly dominates, so each
            # one contributes volume; both frontiers are scored against it.
            reference = full.max(axis=0) * 1.1
            out["hv_ratio"] = result.hypervolume(reference) / hypervolume(full, reference)
            if out["hv_ratio"] < W.MIN_HV_RATIO:
                failures.append(f"hypervolume ratio {out['hv_ratio']:.4f} < {W.MIN_HV_RATIO}")
            out["checked"] = len(rows)
        else:
            # No exhaustive grid to compare against: re-cost the frontier
            # directly and require bit-equal costs.
            names = list(result.frontier())
            platforms = [space.platform(result.combos[result.names.index(n)]) for n in names]
            for name, row in zip(names, _cost_rows(profiles, platforms)):
                if row != rows[name]:
                    failures.append(f"kilovariant {name}: {rows[name]} != {row}")
            out["checked"] = len(names)
    out.update(wall_s=wall_s, failures=failures, trace=trace)
    return out


def _spot_check_scalar(profiles, platforms, result) -> tuple:
    """The batch grid must equal the per-call scalar model cell for cell."""
    from repro.apps.timing import estimate_cycles
    from repro.core.energy import estimate_energy

    failures, checked = [], 0
    for j in range(0, len(platforms), max(1, len(platforms) // 8)):
        for i in range(0, len(profiles), max(1, len(profiles) // 4)):
            checked += 1
            cycles = estimate_cycles(profiles[i], platforms[j])[0]
            energy = estimate_energy(profiles[i], platforms[j])[0]
            if result.batch.cycles[i, j] != cycles or result.batch.energy_mj[i, j] != energy:
                failures.append(f"exhaustive cell ({i}, {j}) differs from the scalar model")
    return checked, failures


# --------------------------------------------------------------------------- #
# serve: warm the stores the server answers from
# --------------------------------------------------------------------------- #


def serve_warm(args) -> dict:
    import itertools

    from repro.config import SpMUConfig
    from repro.core.spmu import effective_bank_throughput_batch
    from repro.core.spmu_array import SpMUVariant
    from repro.eval import collect_profiles
    from repro.runtime.cache import ProfileCache, profile_to_dict
    from repro.runtime.search import AdaptiveSearch, SearchSpace, SearchStore, make_strategy
    from repro.runtime.sweep import parse_axis_value

    profile_set = collect_profiles(scale=W.PAPER_SCALE, workers=1, cache=ProfileCache())
    profiles = {}
    for (app, dataset), profile in sorted(profile_set.profiles.items()):
        profiles[f"{app}|{dataset}"] = json.loads(json.dumps(profile_to_dict(profile)))

    grid = W.SERVE_THROUGHPUT_GRID
    variants, queries = [], []
    for ordering, banks, depth, crossbar in itertools.product(
        grid["ordering"], grid["banks"], grid["queue_depth"], grid["crossbar_inputs"]
    ):
        config = SpMUConfig(banks=banks, queue_depth=depth, crossbar_inputs=crossbar)
        variants.append(
            SpMUVariant(ordering=parse_axis_value("ordering", ordering), config=config)
        )
        queries.append(
            {
                "ordering": ordering,
                "banks": banks,
                "queue_depth": depth,
                "crossbar_inputs": crossbar,
            }
        )
    # Measured through the throughput store, which the server reads.
    for query, value in zip(queries, effective_bank_throughput_batch(variants)):
        query["expected"] = float(value)

    space = SearchSpace.from_axes(W.SERVE_FRONTIER_AXES)
    result = AdaptiveSearch(
        space,
        make_strategy("evolve", population=4, generations=2),
        list(profile_set.profiles.values())[:6],
        seed=args.seed,
        store=SearchStore(),
    ).run()
    return {
        "profiles": profiles,
        "throughputs": queries,
        "frontier": sorted(result.frontier()),
    }


def serve_jobs(args) -> dict:
    """Job rows the server's enqueues left in the run store."""
    from repro.runtime.jobs import JobStore

    store = JobStore()
    try:
        names = [job.name for job in store.jobs()]
    finally:
        store.close()
    return {"profile_jobs": sum(1 for name in names if name.startswith("serve:profile:"))}


MODES = {
    "probe": probe,
    "paper-cold": paper,
    "paper-warm": paper,
    "dse-warm": dse_warm,
    "serve-warm": serve_warm,
    "serve-jobs": serve_jobs,
}
MODES.update({f"dse-{phase}": dse_phase for phase in W.DSE_PHASES})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", help="exhaustive-phase result (dse-search only)")
    args = parser.parse_args()
    payload = MODES[args.mode](args)
    payload["peak_rss_mb"] = _peak_rss_mb()
    tmp = args.out + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
