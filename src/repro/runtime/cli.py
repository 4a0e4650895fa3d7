"""``repro-eval``: drive the experiment runner from the command line.

Runs the registered (application x dataset) grid through
:class:`~repro.runtime.runner.ExperimentRunner` -- parallel and cached --
and prints the per-task report. The ``dse`` subcommand instead costs the
grid over a family of platform variants through
:func:`~repro.runtime.dse.explore` and reports the cycles-vs-area Pareto
frontier. The bench subcommands read the SQLite experiment store
(:mod:`~repro.runtime.runstore`): ``bench-history`` renders recorded runs
and drift trends, ``bench-compare`` evaluates a run against a baseline
and the declarative expectations, and ``bench-baseline`` freezes a named
baseline snapshot. Typical uses::

    repro-eval --list                      # show the registered grid
    repro-eval --scale 1/256              # quick full-grid collection
    repro-eval --apps spmv-csr,bfs -j 4   # a subset, four workers
    repro-eval --no-cache --json out.json # cold run, machine-readable report
    repro-eval dse --axis lanes=8,16,32 --axis banks=8,16,32
    repro-eval dse --axis memory=hbm2e,ddr4 --apps bfs,sssp --pareto-only
    repro-eval sweep --executor subprocess -j 4   # sharded resumable grid job
    repro-eval sweep --resume 3                   # continue a killed sweep
    repro-eval worker                             # JSON-lines unit worker (stdin)
    repro-eval bench-history --limit 10 --trends
    repro-eval bench-compare --baseline main   # gate: benchmarks/expectations.toml
    repro-eval bench-baseline main        # freeze the latest recorded run
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from .._budget import ENV_MEMORY_BUDGET, parse_memory_budget
from ..errors import CapstanError, ConfigurationError
from .cache import ProfileCache, ScanCostStore, default_cache_dir, profile_to_dict
from .dse import explore, prefill_throughputs
from .executors import EXECUTORS
from .registry import RunContext, app_datasets, app_order, parse_scale
from .runner import ExperimentRunner
from .runstore import RunStore, default_run_db
from .sweep import AXIS_VALUE_PARSERS, parse_axis_value

#: Executor names accepted by --executor flags.
_EXECUTOR_CHOICES = tuple(EXECUTORS)


def _add_run_context_arguments(parser: argparse.ArgumentParser) -> None:
    """The options naming which applications run and the context they run in.

    ``build_parser``, ``build_dse_parser`` and ``build_sweep_parser`` share
    them; :func:`_run_setup` turns them into a :class:`RunContext`.
    """
    parser.add_argument(
        "--apps", help="comma-separated application names (default: all registered)"
    )
    parser.add_argument(
        "--scale",
        type=parse_scale,
        default=1.0 / 64.0,
        help="dataset scale, e.g. 1/64 or 0.015625 (default: 1/64)",
    )
    parser.add_argument(
        "--pagerank-iterations", type=int, default=2, help="power iterations per PageRank run"
    )
    parser.add_argument(
        "--conv-scale", type=parse_scale, default=0.125, help="ResNet channel scale"
    )
    parser.add_argument(
        "--backend",
        choices=("vectorized", "reference"),
        default="vectorized",
        help="kernel backend (reference = per-element loop kernels)",
    )
    parser.add_argument(
        "--memory-budget",
        default=None,
        metavar="SIZE",
        help=(
            "byte budget for batched working sets, e.g. 64M or 2G; the batch "
            "engines stream in chunks under it (default: $REPRO_MEMORY_BUDGET)"
        ),
    )


def _apply_memory_budget(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Publish ``--memory-budget`` through the environment seam.

    Exporting ``REPRO_MEMORY_BUDGET`` (rather than threading a parameter)
    makes the budget reach every engine, including ones running in worker
    processes spawned with a copy of the environment.
    """
    if args.memory_budget is None:
        return
    try:
        budget = parse_memory_budget(args.memory_budget)
    except CapstanError as exc:
        parser.error(str(exc))
    os.environ[ENV_MEMORY_BUDGET] = str(budget)


def _run_setup(
    args: argparse.Namespace,
) -> Optional[Tuple[RunContext, Optional[List[str]], object]]:
    """Resolve the run-context options into ``(context, apps, cache)``.

    ``apps`` is ``None`` for every registered application. ``cache`` is the
    policy :class:`ExperimentRunner` takes: ``False`` under ``--no-cache``,
    a :class:`ProfileCache` at ``--cache-dir``, else ``True`` (the default
    cache). Returns ``None`` after printing the error when ``--apps`` names
    an unknown application; the caller exits 2.
    """
    apps = [name.strip() for name in args.apps.split(",") if name.strip()] if args.apps else None
    unknown = set(apps or ()) - set(app_order())
    if unknown:
        print(f"unknown applications: {', '.join(sorted(unknown))}", file=sys.stderr)
        return None
    context = RunContext(
        scale=args.scale,
        pagerank_iterations=args.pagerank_iterations,
        conv_scale=args.conv_scale,
        backend=args.backend,
    )
    cache: object
    if getattr(args, "no_cache", False):
        cache = False
    elif args.cache_dir is not None:
        cache = ProfileCache(root=args.cache_dir)
    else:
        cache = True
    return context, apps, cache


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-eval",
        description="Run the Capstan evaluation grid (parallel, profile-cached).",
    )
    _add_run_context_arguments(parser)
    parser.add_argument(
        "-j", "--workers", type=int, default=None,
        help="worker processes (default: $REPRO_EVAL_WORKERS or serial)",
    )
    parser.add_argument(
        "--executor",
        choices=_EXECUTOR_CHOICES,
        default=None,
        help=(
            "execution backend "
            "(default: subprocess workers under -j when they pay off, else local)"
        ),
    )
    parser.add_argument("--no-cache", action="store_true", help="bypass the on-disk profile cache")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"profile cache directory (default: {default_cache_dir()})",
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="delete cached profiles and scan costs, then exit",
    )
    parser.add_argument(
        "--prune-cache",
        action="store_true",
        help="delete cached profiles and scan costs from other code versions, then exit",
    )
    parser.add_argument("--list", action="store_true", help="list the registered grid, then exit")
    parser.add_argument(
        "--keep-going", action="store_true", help="report task failures instead of aborting"
    )
    parser.add_argument("--json", default=None, help="also write the report (with profiles) here")
    return parser


def _parse_axis(text: str) -> Tuple[str, List[Any]]:
    """Parse one ``--axis name=v1,v2,...`` specification."""
    axis, separator, raw = text.partition("=")
    axis = axis.strip()
    if not separator or not raw.strip():
        raise ValueError(f"expected NAME=V1[,V2,...], got {text!r}")
    try:
        return axis, [parse_axis_value(axis, v.strip()) for v in raw.split(",") if v.strip()]
    except ConfigurationError as exc:
        raise ValueError(str(exc)) from None


def _parse_axes(parser: argparse.ArgumentParser, specs: List[str]) -> Dict[str, List[Any]]:
    """Collect repeated ``--axis`` options into one axes mapping."""
    axes: Dict[str, List[Any]] = {}
    try:
        for spec in specs:
            axis, values = _parse_axis(spec)
            if axis in axes:
                raise ValueError(
                    f"axis {axis!r} given more than once; list all its values in one --axis"
                )
            axes[axis] = values
    except ValueError as exc:
        parser.error(str(exc))
    return axes


def build_dse_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-eval dse",
        description=(
            "Design-space exploration: cost the evaluation grid over a family "
            "of platform variants (batched) and report the cycles-vs-area "
            "Pareto frontier."
        ),
    )
    parser.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2[,...]",
        help=(
            "one swept axis (repeatable); known axes: "
            + ", ".join(sorted(AXIS_VALUE_PARSERS))
            + ". Default: lanes=8,16,32 banks=8,16,32"
        ),
    )
    _add_run_context_arguments(parser)
    parser.add_argument(
        "-j", "--workers", type=int, default=None,
        help="worker processes for profile collection",
    )
    parser.add_argument(
        "--executor",
        choices=_EXECUTOR_CHOICES,
        default=None,
        help=(
            "execution backend for profile collection "
            "(default: subprocess workers under -j when they pay off, else local)"
        ),
    )
    parser.add_argument("--no-cache", action="store_true", help="bypass the on-disk profile cache")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"profile cache directory (default: {default_cache_dir()})",
    )
    parser.add_argument(
        "--prefill",
        action="store_true",
        help=(
            "warm the SpMU throughput store for every swept variant in one "
            "batched pass before costing (parallel sweeps then start warm)"
        ),
    )
    parser.add_argument(
        "--prefill-only",
        action="store_true",
        help="prefill the SpMU throughput store for the sweep, then exit",
    )
    parser.add_argument(
        "--pareto-only", action="store_true", help="print only the Pareto-frontier variants"
    )
    parser.add_argument(
        "--top", type=int, default=0, metavar="N",
        help="print only the N best variants by gmean cycles (0 = all)",
    )
    parser.add_argument(
        "--search",
        choices=("halving", "evolve"),
        default=None,
        help=(
            "search the space adaptively instead of enumerating it: "
            "successive halving or a seeded evolutionary loop (default "
            "axes then span the full kilovariant structural space)"
        ),
    )
    parser.add_argument(
        "--generations", type=int, default=None,
        help="search generations (halving rungs / evolve generations)",
    )
    parser.add_argument(
        "--population", type=int, default=None,
        help="search batch width (halving rung 0 width / evolve population)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help=(
            "RNG seed threaded through sweep ordering and the search "
            "strategies; equal seeds give byte-identical frontier JSON "
            "(default: 0 for --search, unshuffled sweep order otherwise)"
        ),
    )
    parser.add_argument(
        "--objective",
        default=None,
        metavar="OBJ[,OBJ...]",
        help=(
            "minimized objectives from cycles,area,energy (default: "
            "cycles,area for enumeration; cycles,area,energy for --search)"
        ),
    )
    parser.add_argument(
        "--search-store",
        default=None,
        metavar="DIR",
        help=(
            "search state/result store for --search (default: "
            "$REPRO_SEARCH_STORE or ~/.cache/repro/search; 'none' disables "
            "persistence and resume)"
        ),
    )
    parser.add_argument("--json", default=None, help="also write the full cost grid here")
    return parser


def _parse_objectives(
    parser: argparse.ArgumentParser, spec: Optional[str], default: Tuple[str, ...]
) -> Tuple[str, ...]:
    from .search import OBJECTIVES

    if spec is None:
        return default
    objectives = tuple(name.strip() for name in spec.split(",") if name.strip())
    if not objectives:
        parser.error("--objective needs at least one objective")
    unknown = set(objectives) - set(OBJECTIVES)
    if unknown:
        parser.error(
            f"unknown objectives: {', '.join(sorted(unknown))} "
            f"(choose from {', '.join(OBJECTIVES)})"
        )
    if len(set(objectives)) != len(objectives):
        parser.error("--objective lists an objective twice")
    return objectives


def _dse_search_main(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    axes: Dict[str, list],
    apps: Optional[List[str]],
    cache: object,
    context: "RunContext",
) -> int:
    from .search import (
        DEFAULT_SEARCH_AXES,
        OBJECTIVES,
        AdaptiveSearch,
        SearchSpace,
        SearchStore,
        make_strategy,
    )

    objectives = _parse_objectives(parser, args.objective, OBJECTIVES)
    store: Optional[SearchStore]
    if args.search_store == "none":
        store = None
    elif args.search_store is not None:
        store = SearchStore(Path(args.search_store))
    else:
        store = SearchStore()

    try:
        space = SearchSpace.from_axes(axes or dict(DEFAULT_SEARCH_AXES))
        strategy = make_strategy(
            args.search, population=args.population, generations=args.generations
        )
        runner = ExperimentRunner(
            context=context, workers=args.workers, cache=cache, executor=args.executor
        )
        profiles = runner.run(apps=apps).profiles()
        engine = AdaptiveSearch(
            space,
            strategy,
            profiles,
            objectives=objectives,
            seed=args.seed or 0,
            store=store,
        )
        result = engine.run()
    except CapstanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(
        f"DSE search ({result.strategy}, seed={result.seed}): explored "
        f"{len(result.names)} of {result.space_size} variants in "
        f"{result.generations} generations "
        f"({result.evaluations:.0f} full-grid-equivalent evaluations, "
        f"{len(result.tasks)} profiles)"
    )
    frontier_rows = result.frontier_rows()
    name_width = max((len(row["name"]) for row in frontier_rows), default=4)
    header = "  ".join(f"{obj:>14}" for obj in result.objectives)
    print(f"  {'variant':<{name_width}}  {header}")
    for row in frontier_rows:
        cols = "  ".join(f"{row[obj]:>14.5g}" for obj in result.objectives)
        print(f"  {row['name']:<{name_width}}  {cols}")
    print(f"Pareto frontier: {len(frontier_rows)} of {len(result.names)} explored")

    if args.json:
        payload = result.to_dict()
        payload["scale"] = args.scale
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _dse_main(argv: List[str]) -> int:
    parser = build_dse_parser()
    args = parser.parse_args(argv)
    _apply_memory_budget(parser, args)

    if args.search is None:
        for flag in ("generations", "population"):
            if getattr(args, flag) is not None:
                parser.error(f"--{flag} requires --search")
        if args.search_store is not None:
            parser.error("--search-store requires --search")
    elif args.prefill or args.prefill_only:
        parser.error("--prefill/--prefill-only only apply to exhaustive enumeration")
    elif args.top or args.pareto_only:
        # The search prints its whole Pareto frontier; nothing ranks it.
        parser.error("--top/--pareto-only only apply to exhaustive enumeration")

    axes = _parse_axes(parser, args.axis)
    if not axes and args.search is None:
        axes = {"lanes": [8, 16, 32], "banks": [8, 16, 32]}

    setup = _run_setup(args)
    if setup is None:
        return 2
    context, apps, cache = setup

    if args.prefill or args.prefill_only:
        from .sweep import spmu_projection_sweep

        try:
            resolved = prefill_throughputs(spmu_projection_sweep(axes).values())
        except CapstanError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"prefilled SpMU throughputs for {resolved} distinct variants")
        if args.prefill_only:
            return 0

    if args.search is not None:
        return _dse_search_main(parser, args, axes, apps, cache, context)

    objectives = _parse_objectives(parser, args.objective, ("cycles", "area"))
    energy = "energy" in objectives
    try:
        result = explore(
            apps=apps,
            context=context,
            workers=args.workers,
            cache=cache,
            executor=args.executor,
            energy=energy,
            seed=args.seed,
            **axes,
        )
    except CapstanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.top > 0 and not args.pareto_only:
        rows = result.top_rows(args.top)
    else:
        rows = sorted(result.rows(), key=lambda row: row["gmean_cycles"])
        if args.pareto_only:
            rows = [row for row in rows if row["pareto"]]
        if args.top > 0:
            rows = rows[: args.top]

    axis_summary = ", ".join(f"{axis}={len(values)}" for axis, values in axes.items())
    print(
        f"DSE: {len(result.variants)} variants ({axis_summary}) x "
        f"{len(result.tasks)} profiles (scale={args.scale:g})"
    )
    name_width = max(len(row["name"]) for row in rows) if rows else 4
    energy_header = f"  {'energy mJ':>11}" if energy else ""
    print(
        f"  {'variant':<{name_width}}  {'gmean cycles':>13}  {'area mm^2':>9}"
        f"{energy_header}  pareto"
    )
    for row in rows:
        marker = "*" if row["pareto"] else ""
        energy_col = f"  {row['gmean_energy_mj']:>11.4g}" if energy else ""
        print(
            f"  {row['name']:<{name_width}}  {row['gmean_cycles']:>13.4g}  "
            f"{row['area_mm2']:>9.1f}{energy_col}  {marker}"
        )
    frontier = result.frontier(objectives if energy else None)
    print(f"Pareto frontier ({len(frontier)}): {', '.join(frontier)}")

    if args.json:
        payload = {
            "scale": args.scale,
            "axes": {
                axis: [getattr(v, "value", v) for v in values] for axis, values in axes.items()
            },
            "tasks": [{"app": app, "dataset": dataset} for app, dataset in result.tasks],
            "variants": result.rows(),
            "frontier": list(frontier),
        }
        if args.seed is not None:
            payload["seed"] = args.seed
        if result.batch is not None:
            payload["cycles"] = [[float(c) for c in row] for row in result.cycles]
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _add_run_db_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--db",
        default=None,
        help=f"run-store database (default: $REPRO_RUN_DB or {default_run_db()})",
    )


def _open_run_store(args: argparse.Namespace) -> "RunStore":
    return RunStore(args.db) if args.db else RunStore()


def build_bench_history_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-eval bench-history",
        description=(
            "Render recorded bench runs from the experiment store, newest "
            "first, with optional monotonic-drift detection."
        ),
    )
    _add_run_db_argument(parser)
    parser.add_argument(
        "--limit", type=int, default=10, help="how many runs to show (default 10)"
    )
    parser.add_argument(
        "--trends",
        action="store_true",
        help="also scan the gated metrics for monotonic drift",
    )
    parser.add_argument(
        "--expectations",
        default=None,
        help=(
            "expectations TOML naming the metrics to trend-check "
            "(default: benchmarks/expectations.toml in the source tree)"
        ),
    )
    parser.add_argument(
        "--markdown", action="store_true", help="render markdown instead of plain text"
    )
    parser.add_argument("--json", default=None, help="also write the history here")
    return parser


def _bench_history_main(argv: List[str]) -> int:
    from ..eval import regression

    parser = build_bench_history_parser()
    args = parser.parse_args(argv)
    expectations = None
    if args.trends or args.expectations:
        try:
            expectations = regression.load_expectations(args.expectations)
        except (CapstanError, OSError) as exc:
            parser.error(str(exc))
    with _open_run_store(args) as store:
        runs = store.runs(limit=args.limit)
        if not runs:
            print(f"no runs recorded in {store.path}")
            return 0
        print(regression.format_history(runs, markdown=args.markdown))
        trends = regression.detect_trends(store, expectations) if args.trends else []
        if args.trends:
            print()
            print(regression.format_trends(trends, markdown=args.markdown))
        if args.json:
            payload = {
                "db": str(store.path),
                "runs": regression.history_rows(runs),
                "records": [run.to_dict() for run in runs],
            }
            if args.trends:
                payload["trends"] = [trend.to_dict() for trend in trends]
            with open(args.json, "w") as handle:
                json.dump(payload, handle, indent=2)
            print(f"wrote {args.json}")
    return 0


def build_bench_compare_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-eval bench-compare",
        description=(
            "Evaluate one recorded bench run (default: the latest) against "
            "the declarative expectations and a baseline; exit 1 when the "
            "comparison report fails."
        ),
    )
    _add_run_db_argument(parser)
    parser.add_argument(
        "--run", type=int, default=None, help="run id to evaluate (default: latest)"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="NAME",
        help="named baseline snapshot in the store to ratio-check against",
    )
    parser.add_argument(
        "--baseline-run",
        type=int,
        default=None,
        metavar="ID",
        help="ratio-check against this recorded run instead of a named baseline",
    )
    parser.add_argument(
        "--baseline-json",
        default=None,
        metavar="PATH",
        help="ratio-check against a committed JSON record (e.g. BENCH_runner.json)",
    )
    parser.add_argument(
        "--expectations",
        default=None,
        help="expectations TOML (default: benchmarks/expectations.toml in the source tree)",
    )
    parser.add_argument(
        "--markdown", action="store_true", help="render markdown instead of plain text"
    )
    parser.add_argument("--json", default=None, help="also write the full report here")
    return parser


def _bench_compare_main(argv: List[str]) -> int:
    from ..eval import regression

    parser = build_bench_compare_parser()
    args = parser.parse_args(argv)
    given = [
        name
        for name, value in (
            ("--baseline", args.baseline),
            ("--baseline-run", args.baseline_run),
            ("--baseline-json", args.baseline_json),
        )
        if value is not None
    ]
    if len(given) > 1:
        parser.error(f"{' and '.join(given)} are mutually exclusive")
    try:
        expectations = regression.load_expectations(args.expectations)
    except (CapstanError, OSError) as exc:
        parser.error(str(exc))
    with _open_run_store(args) as store:
        run = store.latest_run() if args.run is None else store.load_run(args.run)
        if run is None:
            which = "no runs recorded" if args.run is None else f"no run {args.run}"
            print(f"{which} in {store.path}", file=sys.stderr)
            return 2
        baseline: object = None
        if args.baseline is not None:
            baseline = store.baseline(args.baseline)
            if baseline is None:
                print(f"no baseline {args.baseline!r} in {store.path}", file=sys.stderr)
                return 2
        elif args.baseline_run is not None:
            base_run = store.load_run(args.baseline_run)
            if base_run is None:
                print(f"no run {args.baseline_run} in {store.path}", file=sys.stderr)
                return 2
            baseline = base_run.record
        elif args.baseline_json is not None:
            baseline = json.loads(Path(args.baseline_json).read_text())
        report = regression.compare_to_baseline(run.record, baseline, expectations)
        formatter = (
            regression.format_comparison_markdown
            if args.markdown
            else regression.format_comparison_report
        )
        print(formatter(report))
        if args.json:
            payload = report.to_dict()
            payload["run"]["id"] = run.id
            with open(args.json, "w") as handle:
                json.dump(payload, handle, indent=2)
            print(f"wrote {args.json}")
    return 0 if report.passed else 1


def build_bench_baseline_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-eval bench-baseline",
        description="Freeze one recorded run (default: the latest) as a named baseline.",
    )
    parser.add_argument("name", help="baseline name (re-freezing a name replaces it)")
    _add_run_db_argument(parser)
    parser.add_argument(
        "--run", type=int, default=None, help="run id to freeze (default: latest)"
    )
    return parser


def _bench_baseline_main(argv: List[str]) -> int:
    parser = build_bench_baseline_parser()
    args = parser.parse_args(argv)
    with _open_run_store(args) as store:
        try:
            baseline = store.snapshot_baseline(args.name, run_id=args.run)
        except CapstanError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"froze baseline {baseline.name!r} from run {baseline.run_id} "
            f"(scale {baseline.scale}, code {baseline.fingerprint[:12]})"
        )
    return 0


def build_worker_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-eval worker",
        description=(
            "Work-unit worker: read JSON-line requests "
            '({"id": N, "payload": {"kind": ...}}) from stdin, execute each '
            "unit, and answer one JSON line per request on stdout. This is "
            "the entry point the subprocess executor drives, locally or "
            "through any command prefix (e.g. ssh)."
        ),
    )
    parser.add_argument(
        "--once", action="store_true", help="answer a single request, then exit"
    )
    return parser


def _worker_main(argv: List[str]) -> int:
    import time
    import traceback

    from ..core.spmu_array import mark_executor_worker
    from . import faults, jobs
    from .cache import _json_default

    args = build_worker_parser().parse_args(argv)
    # The executor runs one worker per core already.
    mark_executor_worker()
    # Stdout is the protocol channel; anything a workload prints must not
    # corrupt it, so the units run with stdout aliased to stderr.
    protocol = sys.stdout
    sys.stdout = sys.stderr
    # Chaos seam: an armed slow_start fault (REPRO_FAULT_PLAN) delays this
    # worker before it answers its first request.
    faults.inject_startup_fault()
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
            warmup = request.get("warmup") is True
            payload = None if warmup else request["payload"]
        except (AttributeError, ValueError, KeyError, TypeError):
            response: Dict[str, Any] = {
                "id": None,
                "ok": False,
                "error": f"malformed request line: {line[:200]!r}",
            }
            protocol.write(json.dumps(response) + "\n")
            protocol.flush()
            continue
        if warmup:
            # The spawn handshake runs no unit, so no unit or protocol fault
            # fires on it (startup stalls are the slow_start fault's job).
            protocol.write(json.dumps({"id": request.get("id"), "ok": True}) + "\n")
            protocol.flush()
            continue
        started = time.perf_counter()
        try:
            result = jobs.execute_unit(payload)
            response = {
                "id": request.get("id"),
                "ok": True,
                "result": jobs.serialize_result(payload["kind"], result),
                "duration_s": time.perf_counter() - started,
            }
        except Exception as exc:  # noqa: BLE001 - reported per request
            response = {
                "id": request.get("id"),
                "ok": False,
                "error": traceback.format_exception_only(type(exc), exc)[-1].strip(),
                "traceback": traceback.format_exc(),
                "duration_s": time.perf_counter() - started,
            }
        fault = faults.take_protocol_fault(payload)
        if fault is not None and fault.kind == "malformed_line":
            # Garbage instead of the response: the executor must kill this
            # worker and retry the unit on a fresh one.
            protocol.write("!!! not json !!!\n")
            protocol.flush()
            continue
        if fault is not None and fault.kind == "truncated_line":
            # A torn write from a dying process: half the bytes, no
            # newline, then death -- the reader sees EOF mid-line.
            text = json.dumps(response, default=_json_default)
            protocol.write(text[: max(1, len(text) // 2)])
            protocol.flush()
            os._exit(fault.exit_code)
        protocol.write(json.dumps(response, default=_json_default) + "\n")
        protocol.flush()
        if args.once:
            break
    return 0


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-eval sweep",
        description=(
            "Sharded, resumable sweeps: submit the profile grid (or, with "
            "--axis, a DSE cross-product) as a job of persisted work units "
            "and execute it on a pluggable executor. Submitting the same "
            "grid again resumes the existing job; done units never re-run."
        ),
    )
    parser.add_argument("--name", default=None, help="job name (informational)")
    parser.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2[,...]",
        help=(
            "sweep a DSE cross-product instead of the profile grid "
            "(repeatable); known axes: " + ", ".join(sorted(AXIS_VALUE_PARSERS))
        ),
    )
    _add_run_context_arguments(parser)
    parser.add_argument(
        "--executor",
        choices=_EXECUTOR_CHOICES,
        default=None,
        help="execution backend for the units (default: local, or subprocess with --timeout)",
    )
    parser.add_argument(
        "-j", "--workers", type=int, default=1,
        help="worker processes of the subprocess executor (default: 1)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help=(
            "per-unit timeout in seconds; units then run in repro-eval worker "
            "processes, and a worker whose unit overruns is killed"
        ),
    )
    parser.add_argument(
        "--retries", type=int, default=0, help="extra attempts per failed unit (default: 0)"
    )
    parser.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help=(
            "dead-letter ceiling: a unit whose cumulative attempts reach N "
            "(or that fails permanently) moves to 'dead' and is never "
            "re-claimed (default: retry forever on resume)"
        ),
    )
    parser.add_argument(
        "--lease", type=float, default=None, metavar="S",
        help=(
            "lease length in seconds for claimed units; a heartbeat "
            "refreshes it while a wave executes (default: 60)"
        ),
    )
    parser.add_argument(
        "--stop-on-error",
        action="store_true",
        help="cancel outstanding units after the first failure",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"profile cache the units write into (default: {default_cache_dir()})",
    )
    _add_run_db_argument(parser)
    parser.add_argument(
        "--resume", type=int, default=None, metavar="JOB",
        help="run an existing job by id instead of submitting a new spec",
    )
    parser.add_argument(
        "--max-units", type=int, default=None, metavar="N",
        help="process at most N units this invocation, leaving the rest claimable",
    )
    parser.add_argument(
        "--status", type=int, default=None, metavar="JOB",
        help=(
            "print one job's state, unit counts, per-unit attempts, dead "
            "units, and active lease owners, then exit"
        ),
    )
    parser.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help=(
            "with --status: re-print the status every SECONDS until the "
            "job reaches a terminal state"
        ),
    )
    parser.add_argument("--jobs", action="store_true", help="list jobs, then exit")
    parser.add_argument("--json", default=None, help="also write the run summary here")
    return parser


def _print_sweep_status(store: Any, job_id: int) -> Optional[str]:
    """Print one job's status (counts, attempts, leases); returns its state."""
    import time

    from .jobs import UNIT_DEAD, UNIT_FAILED, UNIT_RUNNING

    job = store.job(job_id)
    if job is None:
        print(f"no job {job_id} in {store.path}", file=sys.stderr)
        return None
    counts = store.unit_states(job.id)
    print(f"job {job.id} ({job.name}): state={job.state}")
    for state, n in sorted(counts.items()):
        print(f"  {state}: {n}")
    now = time.time()
    for unit in store.units(job.id):
        if unit.state == UNIT_RUNNING:
            if unit.lease_owner:
                expires = unit.lease_expires_at or now
                lease = f"lease {unit.lease_owner} expires in {expires - now:+.0f}s"
            else:
                lease = "no lease (stale pre-lease row)"
            print(
                f"  running unit {unit.seq} ({unit.kind}): "
                f"{unit.attempts} attempts, {lease}"
            )
        elif unit.state in (UNIT_FAILED, UNIT_DEAD):
            print(
                f"  {unit.state} unit {unit.seq} ({unit.kind}): "
                f"{unit.attempts} attempts, {unit.error}"
            )
    return job.state


def _sweep_main(argv: List[str]) -> int:
    from .executors import LocalExecutor, SubprocessExecutor
    from .jobs import DEFAULT_LEASE_S, JOB_DONE, JOB_FAILED, JobSpec, JobStore

    parser = build_sweep_parser()
    args = parser.parse_args(argv)
    if args.timeout is not None and args.executor == LocalExecutor.name:
        parser.error(
            "--timeout needs worker processes: an in-process (--executor local) "
            "unit cannot be stopped"
        )
    _apply_memory_budget(parser, args)
    axes = _parse_axes(parser, args.axis)
    setup = _run_setup(args)
    if setup is None:
        return 2
    context, apps, _ = setup

    with JobStore(Path(args.db) if args.db else None) as store:
        if args.jobs:
            for job in store.jobs():
                counts = store.unit_states(job.id)
                summary = ", ".join(f"{n} {state}" for state, n in sorted(counts.items()))
                print(f"job {job.id} [{job.state:>7}] {job.name}: {summary}")
            return 0
        if args.status is not None:
            import time

            while True:
                state = _print_sweep_status(store, args.status)
                if state is None:
                    return 2
                if args.watch is None or state in (JOB_DONE, JOB_FAILED):
                    return 0
                time.sleep(args.watch)
                print()

        if args.resume is not None:
            job = store.job(args.resume)
            if job is None:
                print(f"no job {args.resume} in {store.path}", file=sys.stderr)
                return 2
        else:
            try:
                if axes:
                    spec = JobSpec.dse_grid(
                        axes,
                        apps=apps,
                        context=context,
                        name=args.name or "dse-grid",
                    )
                else:
                    spec = JobSpec.profile_grid(
                        apps,
                        context,
                        cache_root=args.cache_dir,
                        name=args.name or "profile-grid",
                    )
            except CapstanError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            existing = store.job_by_key(spec.key)
            job = store.submit(spec)
            verb = "resuming" if existing is not None else "submitted"
            print(f"{verb} job {job.id} ({job.name}, {len(spec.units)} units)")

        if args.executor == SubprocessExecutor.name or args.timeout is not None:
            executor = SubprocessExecutor(
                args.workers, timeout_s=args.timeout, retries=args.retries
            )
        else:
            executor = LocalExecutor(retries=args.retries)
        try:
            summary = store.run_job(
                job.id, executor, max_units=args.max_units,
                stop_on_error=args.stop_on_error,
                max_attempts=args.max_attempts,
                lease_s=args.lease if args.lease is not None else DEFAULT_LEASE_S,
            )
        except CapstanError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        counts = ", ".join(f"{n} {state}" for state, n in sorted(summary.counts.items()))
        print(
            f"job {job.id} state={summary.state}: executed {summary.executed} units "
            f"({summary.completed} ok, {summary.failed} failed, "
            f"{summary.dead} dead, {summary.cancelled} cancelled) in "
            f"{summary.wall_time_s:.2f}s on {executor.name}/{executor.workers}; now {counts}"
        )
        if summary.remaining:
            print(
                f"{summary.remaining} units remain; rerun with --resume {job.id} to continue"
            )
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(summary.to_dict(), handle, indent=2)
            print(f"wrote {args.json}")
        return 1 if (summary.failed or summary.dead) else 0


_SUBCOMMANDS: Dict[str, Callable[[List[str]], int]] = {
    "bench-history": _bench_history_main,
    "bench-compare": _bench_compare_main,
    "bench-baseline": _bench_baseline_main,
    "sweep": _sweep_main,
    "worker": _worker_main,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "dse":
        return _dse_main(argv[1:])
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_memory_budget(parser, args)

    if args.list:
        for app, datasets in app_datasets().items():
            print(f"{app}: {', '.join(datasets)}")
        return 0

    if args.clear_cache or args.prune_cache:
        target = ProfileCache(root=args.cache_dir) if args.cache_dir else ProfileCache()
        scans = ScanCostStore(target.root)
        if args.clear_cache:
            verb, profiles, costs = "removed", target.clear(), scans.clear()
        else:
            verb, profiles, costs = "pruned", target.prune(), scans.prune()
        print(f"{verb} {profiles} cached profiles and {costs} scan costs from {target.root}")
        return 0

    setup = _run_setup(args)
    if setup is None:
        return 2
    context, apps, cache = setup
    runner = ExperimentRunner(
        context=context,
        workers=args.workers,
        cache=cache,
        raise_on_error=not args.keep_going,
        executor=args.executor,
    )
    try:
        report = runner.run(apps=apps)
    except CapstanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    from ..eval.report import format_run_report

    print(format_run_report(report, title=f"Evaluation grid (scale={args.scale:g})"))

    if args.json:
        payload = {
            "scale": args.scale,
            "workers": report.workers,
            "wall_time_s": report.wall_time_s,
            "tasks": [
                {
                    "app": r.app,
                    "dataset": r.dataset,
                    "status": r.status,
                    "duration_s": r.duration_s,
                    "error": r.error,
                    "profile": profile_to_dict(r.profile) if r.profile is not None else None,
                }
                for r in report.results
            ],
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    return 1 if report.errors() else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
