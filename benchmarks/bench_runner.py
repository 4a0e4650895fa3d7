"""Benchmark the experiment runner: cache states, worker counts, backends, costing.

Times full-grid ``collect_profiles`` wall time under five configurations --
cold serial, warm cache, cold parallel, cache-disabled serial, and the
per-element ``reference`` profiling backend (the pre-vectorization
behaviour) -- and records the traced peak of one uncached collection
(``collect_peak_mb``), plus the platform-costing layer (the per-call
``estimate_cycles`` loop against ``estimate_cycles_batch`` over a
128-variant design-space grid) and the SpMU simulator layer (the reference
per-cycle loop against the lock-step array engine over a cold 128-variant
microbenchmark grid), and writes ``BENCH_runner.json`` at the repository
root to track the performance trajectory.

It also times the format substrate (the packed-word scan/convert/construct
grid: ``scan_batch`` against the element-at-a-time scan loop, the batched
``convert_many`` against its tile loop, and the vectorized bit-tree build
against the ``set()`` loop), recorded under ``formats``, and the adaptive
design-space search (the seeded evolutionary engine against exhaustive
three-objective enumeration of a 2048-variant grid, plus a kilovariant-
space exploration pass), recorded under ``dse``.

Every run is appended to the SQLite experiment store
(:class:`repro.runtime.runstore.RunStore`; ``--run-db`` / ``REPRO_RUN_DB``,
``--no-run-db`` to skip) and then evaluated through the declarative gate in
:mod:`repro.eval.regression`: identity flags and absolute speedup floors
come from ``benchmarks/expectations.toml`` (``--expectations`` to
substitute), and per-section time ratios are checked against a baseline --
either a committed JSON record (``--baseline BENCH_runner.json``) or a
named snapshot frozen in the store (``--compare-baseline NAME``;
``--snapshot-baseline NAME`` freezes the current run). A
baseline recorded at a different scale is a categorized ``scale-mismatch``
outcome (ratios skipped, absolute gates still enforced), not a hard error.
Exit code 1 means the comparison report failed.

``--replay RECORD.json`` skips benchmark execution and pushes an existing
record through the same store/compare/verdict pipeline -- useful for
re-evaluating an artifact under new expectations and for testing the gate
itself.

Usage::

    PYTHONPATH=src python benchmarks/bench_runner.py [--scale 1/16] [--workers 4]
    PYTHONPATH=src python benchmarks/bench_runner.py --no-reference \\
        --baseline BENCH_runner.json --output bench-ci.json
    PYTHONPATH=src python benchmarks/bench_runner.py --replay BENCH_runner.json \\
        --compare-baseline main --summary report.md
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.apps.timing import (
    COSTING_BYTES_PER_CELL,
    estimate_cycles,
    estimate_cycles_batch,
    iter_cycles_batches,
)
from repro.config import MemoryTechnology, ShuffleMode, SpMUConfig
from repro.core.ordering import OrderingMode
from repro.core.spmu import effective_bank_throughput_batch
from repro.core.spmu_array import SpMUVariant
from repro.errors import CapstanError
from repro.eval.experiments import collect_profiles
from repro.eval.regression import (
    compare_to_baseline,
    detect_trends,
    format_comparison_markdown,
    format_comparison_report,
    format_trends,
    load_expectations,
)
from repro.runtime.cache import ProfileCache
from repro.runtime.registry import parse_scale
from repro.runtime.runstore import RunStore
from repro.runtime.sweep import sweep


def _timed(**kwargs) -> float:
    start = time.perf_counter()
    collect_profiles(**kwargs)
    return time.perf_counter() - start


def _traced_peak_mb(fn) -> float:
    """Peak traced allocation (MiB) of one callable, in a clean trace.

    Timing passes stay untraced (tracemalloc adds per-allocation overhead);
    each section runs one extra pass under the tracer purely to record its
    peak working set.
    """
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (1024 * 1024)


def _bench_costing(profiles, batch_repeats: int = 3) -> dict:
    """Time the scalar estimate_cycles loop against the batched path.

    The grid sweeps structural and policy axes into 128 variants; the
    calibrated sub-models (SpMU throughput, merge efficiency) are warmed --
    and their equality verified cell by cell -- before timing, so both
    paths measure costing machinery rather than one-time microbenchmarks.
    """
    variants = sweep(
        lanes=(8, 16),
        banks=(16, 32),
        queue_depth=(8, 16),
        bank_mapping=("hash", "linear"),
        ordering=(OrderingMode.UNORDERED, OrderingMode.ADDRESS_ORDERED),
        memory=(MemoryTechnology.HBM2E, MemoryTechnology.DDR4),
        shuffle=(ShuffleMode.MRG1, ShuffleMode.NONE),
    )
    platforms = list(variants.values())

    warm = estimate_cycles_batch(profiles, platforms)

    start = time.perf_counter()
    identical = True
    for i, profile in enumerate(profiles):
        for j, platform in enumerate(platforms):
            cycles, _ = estimate_cycles(profile, platform)
            if cycles != warm.cycles[i, j]:
                identical = False
    scalar_s = time.perf_counter() - start

    batch_s = min(
        _timed_batch(profiles, platforms) for _ in range(max(1, batch_repeats))
    )
    peak_mb = _traced_peak_mb(lambda: estimate_cycles_batch(profiles, platforms))
    return {
        "variants": len(platforms),
        "profiles": len(profiles),
        "cells": len(platforms) * len(profiles),
        "scalar_s": round(scalar_s, 4),
        "batch_s": round(batch_s, 4),
        "batch_speedup": round(scalar_s / batch_s, 1),
        "peak_mb": round(peak_mb, 2),
        "identical": identical,
    }


def _timed_batch(profiles, platforms) -> float:
    start = time.perf_counter()
    estimate_cycles_batch(profiles, platforms)
    return time.perf_counter() - start


def _bench_formats() -> dict:
    """Time the format-substrate batch paths against the retained references.

    Three axes, mirroring the substrate's consumers:

    * ``scan`` -- :meth:`BitVectorScanner.scan_batch` against the
      element-at-a-time ``scan_reference`` loop, across densities and all
      three scan modes;
    * ``convert`` -- the batched :meth:`FormatConverter.convert_many`
      against the tile-at-a-time reference loop;
    * ``construct`` -- the vectorized :meth:`BitTree.from_indices` build
      against the object-at-a-time ``set()`` loop.

    Every batch result is checked element-for-element against its
    reference before timing is reported; ``identical`` covers all axes.
    """
    from repro.core.format_conversion import FormatConverter
    from repro.core.scanner import BitVectorScanner, ScanMode
    from repro.formats.bittree import BitTree
    from repro.formats.reference import bittree_from_indices_reference
    from repro.workloads.synthetic import sparse_bitvector

    identical = True

    # --- scan axis: density x mode grid of 4096-bit operand pairs -------- #
    scanner = BitVectorScanner()
    scan_cases = []
    for density in (0.01, 0.05, 0.2):
        for seed in range(4):
            a = sparse_bitvector(4096, density, seed=seed)
            b = sparse_bitvector(4096, density, seed=seed + 100)
            for mode in (ScanMode.INTERSECT, ScanMode.UNION, ScanMode.SINGLE):
                scan_cases.append((a, None if mode is ScanMode.SINGLE else b, mode))
    for a, b, mode in scan_cases:
        if scanner.scan_batch(a, b, mode).elements() != scanner.scan_reference(a, b, mode):
            identical = False

    def _scan_batch():
        for a, b, mode in scan_cases:
            scanner.scan_batch(a, b, mode)

    def _scan_reference():
        for a, b, mode in scan_cases:
            scanner.scan_reference(a, b, mode)

    # --- convert axis: 128 pointer tiles into 4096-bit bit-vectors ------- #
    converter = FormatConverter(lanes=16, word_bits=32)
    rng = np.random.default_rng(3)
    tiles = [
        np.sort(rng.choice(4096, size=48, replace=False))
        for _ in range(128)
    ]
    fast_vectors, fast_stats = converter.convert_many(4096, tiles)
    ref_vectors, ref_stats = converter.convert_many_reference(4096, tiles)
    if fast_stats != ref_stats or any(
        f != r for f, r in zip(fast_vectors, ref_vectors)
    ):
        identical = False

    def _convert_batch():
        converter.convert_many(4096, tiles)

    def _convert_reference():
        converter.convert_many_reference(4096, tiles)

    # --- construct axis: 65536-bit bit-trees across densities ------------ #
    construct_cases = []
    for density in (0.002, 0.01, 0.05):
        vector = sparse_bitvector(65536, density, seed=9)
        construct_cases.append((vector.indices, vector.values))
    for indices, values in construct_cases:
        fast = BitTree.from_indices(65536, indices, values)
        reference = bittree_from_indices_reference(65536, indices, values)
        if not (
            np.array_equal(fast.indices(), reference.indices())
            and np.array_equal(fast.words, reference.words)
            and np.array_equal(fast.values(), reference.values())
        ):
            identical = False

    def _construct_batch():
        for indices, values in construct_cases:
            BitTree.from_indices(65536, indices, values)

    def _construct_reference():
        for indices, values in construct_cases:
            bittree_from_indices_reference(65536, indices, values)

    def _best_of(fn, repeats=2):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    axes = {
        "scan": (_scan_batch, _scan_reference),
        "convert": (_convert_batch, _convert_reference),
        "construct": (_construct_batch, _construct_reference),
    }
    record: dict = {"identical": identical}
    batch_total = 0.0
    reference_total = 0.0
    for name, (batch_fn, reference_fn) in axes.items():
        batch_s = _best_of(batch_fn)
        reference_s = _best_of(reference_fn)
        batch_total += batch_s
        reference_total += reference_s
        record[name] = {
            "batch_s": round(batch_s, 4),
            "reference_s": round(reference_s, 4),
            "speedup": round(reference_s / batch_s, 1),
        }
    record["batch_s"] = round(batch_total, 4)
    record["reference_s"] = round(reference_total, 4)
    record["speedup"] = round(reference_total / batch_total, 1)

    def _all_batches():
        _scan_batch()
        _convert_batch()
        _construct_batch()

    record["peak_mb"] = round(_traced_peak_mb(_all_batches), 2)
    return record


@contextlib.contextmanager
def _env(name: str, value: str):
    """Run the block with environment variable ``name`` set to ``value``,
    then restore its previous state."""
    saved = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if saved is None:
            del os.environ[name]
        else:
            os.environ[name] = saved


@contextlib.contextmanager
def _fanout_refused():
    """Keep every lock-step batch in-process while the block runs.

    A second live Python thread is one of the conditions under which the
    SpMU engine refuses to fork shares, so a parked thread measures the
    single-process engine through the unmodified code path.
    """
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def _forks_during(fn) -> int:
    """How many processes ``fn()`` forks (lock-step shares beyond the first)."""
    real_fork, forks = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    os.fork = fork
    try:
        fn()
    finally:
        os.fork = real_fork
    return len(forks)


def _bench_spmu() -> dict:
    """Time the cold 144-variant SpMU grid on the reference and the lock-step engine.

    The grid crosses the paper's Table 4 structural axes (queue depth,
    crossbar size, allocator priorities) with the Table 9/10 policy axes
    (ordering, bank mapping, allocator kind), plus 16 corners of the
    design-space search's axes (4 and 32 lanes, 8 and 64 banks, 32-deep
    queues, 64 crossbar inputs: input speedups of 16 and 2) across both
    scheduled orderings and both allocators. Their linear mapping reaches
    all 64 banks; the nibble hash reaches 16 at most. The reference side runs the
    per-cycle :class:`~repro.core.spmu.SparseMemoryUnit` variant by variant
    (``banks * measure_bank_utilization``); the array side runs
    one lock-step :func:`effective_bank_throughput_batch` pass, which forks
    cost-balanced shares on a multi-core host (``shares``), and again with
    that fan-out refused (``serial_s``; ``parallel_speedup`` is the ratio).
    All passes are cold: the persistent throughput store is disabled and
    the in-process memo cleared, so the numbers measure simulation, not
    caching -- and the resulting throughputs must be bit-identical.
    """
    import repro.core.spmu as spmu_module

    variants = [
        SpMUVariant(
            ordering=ordering,
            bank_mapping=mapping,
            allocator_kind=allocator,
            config=SpMUConfig(
                queue_depth=depth,
                crossbar_inputs=crossbar,
                allocator_priorities=priorities,
            ),
        )
        for ordering, mapping, allocator, depth, crossbar, priorities in itertools.product(
            list(OrderingMode),
            ("hash", "linear"),
            ("separable", "greedy"),
            (8, 16),
            (16, 32),
            (1, 3),
        )
    ] + [
        SpMUVariant(
            ordering=ordering,
            bank_mapping="linear",
            allocator_kind=allocator,
            config=SpMUConfig(banks=banks, queue_depth=32, crossbar_inputs=64),
            lanes=lanes,
        )
        for ordering, allocator, lanes, banks in itertools.product(
            (OrderingMode.UNORDERED, OrderingMode.ADDRESS_ORDERED),
            ("separable", "greedy"),
            (4, 32),
            (8, 64),
        )
    ]

    def cold_array():
        spmu_module._THROUGHPUT_CACHE.clear()
        return effective_bank_throughput_batch(variants)

    with _env("REPRO_THROUGHPUT_CACHE_DISABLE", "1"):
        try:
            array_s = serial_s = reference_s = float("inf")
            array_values = serial_values = reference_values = None
            for _ in range(2):  # best-of-2, like the costing benchmark
                start = time.perf_counter()
                array_values = cold_array()
                array_s = min(array_s, time.perf_counter() - start)
                with _fanout_refused():
                    start = time.perf_counter()
                    serial_values = cold_array()
                    serial_s = min(serial_s, time.perf_counter() - start)
                start = time.perf_counter()
                reference_values = [
                    variant.config.banks
                    * spmu_module.measure_bank_utilization(
                        variant.config,
                        ordering=variant.ordering,
                        vectors=spmu_module.THROUGHPUT_VECTORS,
                        lanes=variant.lanes,
                        bank_mapping=variant.bank_mapping,
                        allocator_kind=variant.allocator_kind,
                        seed=spmu_module.THROUGHPUT_SEED,
                    )
                    for variant in variants
                ]
                reference_s = min(reference_s, time.perf_counter() - start)
            shares = 1 + _forks_during(cold_array)
            # A forked share's allocations are invisible to tracemalloc, so the
            # peak is taken with the whole batch in this process.
            with _fanout_refused():
                peak_mb = _traced_peak_mb(cold_array)
        finally:
            spmu_module._THROUGHPUT_CACHE.clear()
    return {
        "variants": len(variants),
        "vectors": spmu_module.THROUGHPUT_VECTORS,
        "reference_s": round(reference_s, 3),
        "array_s": round(array_s, 3),
        "serial_s": round(serial_s, 3),
        "shares": shares,
        "parallel_speedup": round(serial_s / array_s, 2),
        "speedup": round(reference_s / array_s, 1),
        "peak_mb": round(peak_mb, 2),
        "identical": bool(
            all(
                a == r == s
                for a, r, s in zip(array_values, reference_values, serial_values)
            )
        ),
    }


def _bench_chunked(profiles) -> dict:
    """Prove a 4096-variant costing grid streams flat-memory under budget.

    The grid crosses ten structural/policy axes into 4096 platform variants
    (64 distinct SpMU calibration microbenchmarks, prefetched once so every
    pass measures costing, not simulation). Three comparisons:

    * ``identical`` -- the chunked :func:`estimate_cycles_batch` (explicit
      byte budget sized for 128-variant chunks) reproduces the unchunked
      grid bit for bit, cycles and every stall category, and the streaming
      :func:`iter_cycles_batches` fold reproduces the per-variant
      geometric means float for float;
    * ``peak_ratio`` -- the traced peak of streaming all 4096 variants
      under the budget against the traced peak of a plain 128-variant run;
      flat-memory streaming keeps the ratio near 1 (``chunked.max.peak_ratio``
      in the expectations).
    """
    import repro.core.spmu as spmu_module
    from repro.runtime.dse import prefill_throughputs
    from repro.sim.stats import geometric_mean

    variants = sweep(
        lanes=(8, 16),
        banks=(16, 32),
        queue_depth=(8, 16),
        crossbar_inputs=(16, 32),
        compute_units=(49, 100, 196, 400),
        bank_mapping=("hash", "linear"),
        allocator=("separable", "greedy"),
        ordering=tuple(OrderingMode),
        memory=(MemoryTechnology.HBM2E, MemoryTechnology.DDR4),
        shuffle=(ShuffleMode.MRG1, ShuffleMode.NONE),
    )
    platforms = list(variants.values())
    small = platforms[:128]
    budget = 128 * len(profiles) * COSTING_BYTES_PER_CELL

    with _env("REPRO_THROUGHPUT_CACHE_DISABLE", "1"):
        try:
            prefill_throughputs(platforms)

            start = time.perf_counter()
            full = estimate_cycles_batch(profiles, platforms)
            unchunked_s = time.perf_counter() - start

            with _env("REPRO_MEMORY_BUDGET", str(budget)):
                start = time.perf_counter()
                chunked = estimate_cycles_batch(profiles, platforms)
                chunked_s = time.perf_counter() - start

            identical = np.array_equal(full.cycles, chunked.cycles) and all(
                np.array_equal(full.categories[name], chunked.categories[name])
                for name in full.categories
            )

            gmean_full = [
                geometric_mean([float(c) for c in full.cycles[:, j]])
                for j in range(len(platforms))
            ]

            def _streamed_gmeans():
                gmeans = []
                with _env("REPRO_MEMORY_BUDGET", str(budget)):
                    for _, part in iter_cycles_batches(profiles, platforms):
                        gmeans.extend(
                            geometric_mean([float(c) for c in part.cycles[:, j]])
                            for j in range(part.cycles.shape[1])
                        )
                        # Release this chunk before the generator builds the next
                        # one, keeping the live set at one chunk.
                        del part
                return gmeans

            identical = identical and _streamed_gmeans() == gmean_full

            peak_small_mb = _traced_peak_mb(
                lambda: estimate_cycles_batch(profiles, small)
            )
            peak_streamed_mb = _traced_peak_mb(_streamed_gmeans)
        finally:
            spmu_module._THROUGHPUT_CACHE.clear()

    return {
        "variants": len(platforms),
        "profiles": len(profiles),
        "memory_budget_bytes": budget,
        "chunk_platforms": budget // (len(profiles) * COSTING_BYTES_PER_CELL),
        "unchunked_s": round(unchunked_s, 3),
        "chunked_s": round(chunked_s, 3),
        "chunked_slowdown": round(chunked_s / unchunked_s, 2),
        "peak_small_mb": round(peak_small_mb, 2),
        "peak_streamed_mb": round(peak_streamed_mb, 2),
        "peak_ratio": round(peak_streamed_mb / peak_small_mb, 2),
        "identical": bool(identical),
    }


def _bench_dse(profiles, workers, executor) -> dict:
    """Pit the adaptive search engine against exhaustive enumeration.

    Two spaces, both cold (persistent throughput store disabled, in-process
    memo cleared before every timed pass):

    * a 2048-variant grid small enough to enumerate: the exhaustive
      three-objective :func:`explore` pass (cycles, area, energy) gives the
      true Pareto frontier and its hypervolume; a seeded evolutionary
      search over the same space must recover ``hypervolume_ratio`` of it
      while spending ``eval_fraction`` of the full-grid evaluation budget
      (the CI gate requires >= 0.95 at <= 0.25);
    * the kilovariant default space (:data:`DEFAULT_SEARCH_AXES`,
      110,592 points) where enumeration is off the table -- only the
      search runs, and ``kilovariant_s`` tracks that exploring it stays
      minutes, not hours.

    ``identical`` folds in the two bit-level contracts the search rests
    on: the vectorized energy batch reproduces the per-call
    :func:`estimate_energy` reference element for element, and re-running
    the seeded search yields a byte-identical result payload.
    """
    import repro.core.spmu as spmu_module
    from repro.core.energy import ENERGY_CATEGORIES, estimate_energy
    from repro.runtime.dse import explore
    from repro.runtime.search import (
        DEFAULT_SEARCH_AXES,
        AdaptiveSearch,
        SearchSpace,
        hypervolume,
        make_strategy,
    )

    axes = {
        "lanes": (8, 16),
        "banks": (16, 32),
        "queue_depth": (8, 16),
        "crossbar_inputs": (16, 32),
        "compute_units": (64, 100, 144, 196, 256, 324, 400, 484),
        "bank_mapping": ("hash", "linear"),
        "allocator": ("separable", "greedy"),
        "ordering": (OrderingMode.UNORDERED, OrderingMode.ADDRESS_ORDERED),
        "memory": (MemoryTechnology.HBM2E, MemoryTechnology.DDR4),
    }
    objectives = ("cycles", "area", "energy")

    def _search(space, population, generations, seed=0):
        engine = AdaptiveSearch(
            space,
            make_strategy("evolve", population=population, generations=generations),
            profiles,
            objectives=objectives,
            seed=seed,
        )
        return engine.run()

    with _env("REPRO_THROUGHPUT_CACHE_DISABLE", "1"):
        try:
            spmu_module._THROUGHPUT_CACHE.clear()
            start = time.perf_counter()
            exhaustive = explore(profiles=profiles, energy=True, **axes)
            exhaustive_s = time.perf_counter() - start

            exhaustive_costs = np.column_stack(
                (
                    exhaustive.gmean_cycles,
                    np.array([row["area_mm2"] for row in exhaustive.rows()]),
                    exhaustive.gmean_energy_mj,
                )
            )
            # A reference point strictly dominated by every candidate, so each
            # one contributes volume; both frontiers are scored against it.
            reference = exhaustive_costs.max(axis=0) * 1.1
            exhaustive_hv = hypervolume(exhaustive_costs, reference)

            space = SearchSpace.from_axes(axes)
            spmu_module._THROUGHPUT_CACHE.clear()
            start = time.perf_counter()
            result = _search(space, population=48, generations=8)
            search_s = time.perf_counter() - start
            hv_ratio = result.hypervolume(reference) / exhaustive_hv

            # Same seed, fresh engine: the result payload must be byte-identical.
            deterministic = json.dumps(_search(space, 48, 8).to_dict()) == json.dumps(
                result.to_dict()
            )

            # The energy batch the search consumes must match the per-call
            # reference exactly (spot check over a corner of the grid).
            spot_platforms = list(exhaustive.variants.values())[:16]
            spot_profiles = profiles[:4]
            batch = estimate_cycles_batch(spot_profiles, spot_platforms, energy=True)
            energy_identical = all(
                batch.energy_mj[i, j] == estimate_energy(profile, platform)[0]
                and all(
                    batch.energy_categories[name][i, j]
                    == getattr(estimate_energy(profile, platform)[1], name)
                    for name in ENERGY_CATEGORIES
                )
                for i, profile in enumerate(spot_profiles)
                for j, platform in enumerate(spot_platforms)
            )

            # Warm memo: the traced pass measures search machinery, not the
            # SpMU simulations already counted in the timing above.
            peak_mb = _traced_peak_mb(lambda: _search(space, 48, 8))

            kilovariant = SearchSpace.from_axes(dict(DEFAULT_SEARCH_AXES))
            spmu_module._THROUGHPUT_CACHE.clear()
            start = time.perf_counter()
            kv_result = _search(kilovariant, population=64, generations=8)
            kilovariant_s = time.perf_counter() - start
        finally:
            spmu_module._THROUGHPUT_CACHE.clear()

    return {
        "space_size": space.size,
        "profiles": len(profiles),
        "objectives": list(objectives),
        "exhaustive_s": round(exhaustive_s, 3),
        "search_s": round(search_s, 3),
        "search_speedup": round(exhaustive_s / search_s, 1),
        "evaluations": round(result.evaluations, 1),
        "eval_fraction": round(result.evaluations / space.size, 4),
        "hypervolume_ratio": round(hv_ratio, 4),
        "frontier_exhaustive": len(exhaustive.frontier(objectives)),
        "frontier_search": len(result.frontier()),
        "kilovariant_space": kilovariant.size,
        "kilovariant_s": round(kilovariant_s, 1),
        "kilovariant_evaluations": round(kv_result.evaluations, 1),
        "kilovariant_frontier": len(kv_result.frontier()),
        "workers": workers,
        "executor": executor,
        "cpu_count": os.cpu_count(),
        "peak_mb": round(peak_mb, 2),
        "identical": bool(energy_identical and deterministic),
    }


def _resolve_expectations(args) -> dict:
    """Load the declarative gate.

    Sections skipped by ``--no-*`` flags are pruned so a deliberately
    partial run does not read as a ``missing-section`` failure.
    """
    expectations = load_expectations(args.expectations)
    for skipped, section in (
        (args.no_costing, "costing"),
        (args.no_spmu, "spmu"),
        (args.no_formats, "formats"),
        (args.no_chunked, "chunked"),
        (args.no_dse, "dse"),
    ):
        if skipped:
            expectations["sections"].pop(section, None)
    return expectations


def _run_benchmarks(args, scale: float) -> dict:
    """Execute every enabled benchmark section and build the record."""
    # An ambient budget would silently chunk every section; the chunked
    # section sets REPRO_MEMORY_BUDGET around its budgeted calls only.
    os.environ.pop("REPRO_MEMORY_BUDGET", None)

    # Warm the in-process dataset-generation cache so every configuration
    # below measures profiling cost, not synthetic-matrix generation. The
    # returned profiles double as the costing benchmark's workload rows.
    profile_set = collect_profiles(scale=scale, workers=1, cache=False)
    # Traced peak of one uncached full-grid collection over the warm
    # datasets: the profiling kernels' own working set.
    collect_peak_mb = _traced_peak_mb(
        lambda: collect_profiles(scale=scale, workers=1, cache=False)
    )

    with tempfile.TemporaryDirectory() as tmp_serial, tempfile.TemporaryDirectory() as tmp_par:
        uncached_s = _timed(scale=scale, workers=1, cache=False)
        cold_serial_s = _timed(scale=scale, workers=1, cache=ProfileCache(root=tmp_serial))
        warm_serial_s = _timed(scale=scale, workers=1, cache=ProfileCache(root=tmp_serial))
        cold_parallel_s = _timed(
            scale=scale,
            workers=args.workers,
            cache=ProfileCache(root=tmp_par),
            executor=args.executor,
        )
        reference_serial_s = (
            None
            if args.no_reference
            else _timed(scale=scale, workers=1, cache=False, backend="reference")
        )

    record = {
        "benchmark": "collect_profiles full grid (11 apps x 3 datasets)",
        "scale": scale,
        "workers": args.workers,
        "executor": args.executor
        or ("subprocess" if args.workers and args.workers > 1 else "local"),
        "cpu_count": os.cpu_count(),
        "uncached_serial_s": round(uncached_s, 3),
        "cold_serial_s": round(cold_serial_s, 3),
        "warm_serial_s": round(warm_serial_s, 3),
        "cold_parallel_s": round(cold_parallel_s, 3),
        "collect_peak_mb": round(collect_peak_mb, 2),
        "reference_serial_s": (
            None if reference_serial_s is None else round(reference_serial_s, 3)
        ),
        "parallel_speedup": round(cold_serial_s / cold_parallel_s, 2),
        "warm_cache_speedup": round(cold_serial_s / warm_serial_s, 2),
        "vectorized_speedup": (
            None
            if reference_serial_s is None
            else round(reference_serial_s / uncached_s, 2)
        ),
    }
    profiles = [profile_set.profiles[key] for key in sorted(profile_set.profiles)]
    if not args.no_costing:
        record["costing"] = _bench_costing(profiles)
    if not args.no_spmu:
        record["spmu"] = _bench_spmu()
    if not args.no_formats:
        record["formats"] = _bench_formats()
    if not args.no_chunked:
        record["chunked"] = _bench_chunked(profiles)
    if not args.no_dse:
        record["dse"] = _bench_dse(profiles, record["workers"], record["executor"])
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="1/16", help="dataset scale (default 1/16)")
    parser.add_argument("--workers", type=int, default=4, help="parallel worker processes")
    parser.add_argument(
        "--executor",
        default=None,
        choices=("local", "subprocess"),
        help="executor for the parallel pass (default: automatic)",
    )
    parser.add_argument(
        "--no-reference",
        action="store_true",
        help="skip the (slow) reference-backend pass",
    )
    parser.add_argument(
        "--replay",
        default=None,
        metavar="RECORD",
        help=(
            "skip benchmark execution and push this existing record through "
            "the store/compare/verdict pipeline instead"
        ),
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed benchmark record (JSON) to ratio-check this run against",
    )
    parser.add_argument(
        "--expectations",
        default=None,
        help=(
            "expectations TOML with the per-section gate "
            "(default: benchmarks/expectations.toml)"
        ),
    )
    parser.add_argument(
        "--run-db",
        default=None,
        help="run-store database path (default: $REPRO_RUN_DB or ~/.cache/repro/runs.sqlite)",
    )
    parser.add_argument(
        "--no-run-db",
        action="store_true",
        help="do not record this run in the experiment store",
    )
    parser.add_argument(
        "--label",
        default=None,
        help="free-form label stored with the run (e.g. a branch or CI run id)",
    )
    parser.add_argument(
        "--snapshot-baseline",
        default=None,
        metavar="NAME",
        help="freeze this run as the named baseline in the store",
    )
    parser.add_argument(
        "--compare-baseline",
        default=None,
        metavar="NAME",
        help=(
            "ratio-check against this named store baseline (ignored when "
            "--baseline is also given; absolute checks only when the name "
            "does not exist yet)"
        ),
    )
    parser.add_argument(
        "--summary",
        default=None,
        metavar="PATH",
        help="append the comparison report as markdown here (e.g. $GITHUB_STEP_SUMMARY)",
    )
    parser.add_argument(
        "--no-costing",
        action="store_true",
        help="skip the batched-costing benchmark",
    )
    parser.add_argument(
        "--no-spmu",
        action="store_true",
        help="skip the SpMU microbenchmark-grid benchmark",
    )
    parser.add_argument(
        "--no-formats",
        action="store_true",
        help="skip the format-substrate (scan/convert/construct) benchmark",
    )
    parser.add_argument(
        "--no-chunked",
        action="store_true",
        help="skip the memory-bounded chunked-execution benchmark",
    )
    parser.add_argument(
        "--no-dse",
        action="store_true",
        help="skip the adaptive-search vs exhaustive-enumeration benchmark",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_runner.json"),
        help="where to write the benchmark record",
    )
    args = parser.parse_args(argv)
    try:
        expectations = _resolve_expectations(args)
    except (CapstanError, OSError) as exc:
        parser.error(str(exc))
    if args.compare_baseline and args.no_run_db:
        parser.error("--compare-baseline needs the run store (drop --no-run-db)")

    # Read the baseline up front: --output may overwrite the same file.
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else None

    if args.replay:
        record = json.loads(Path(args.replay).read_text())
    else:
        record = _run_benchmarks(args, parse_scale(args.scale))
        Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
        print(json.dumps(record, indent=2))

    store = None
    trends = []
    if not args.no_run_db:
        store = RunStore(Path(args.run_db)) if args.run_db else RunStore()
        run_id = store.record_run(record, label=args.label)
        print(f"recorded run {run_id} in {store.path}")
        if args.snapshot_baseline:
            store.snapshot_baseline(args.snapshot_baseline, run_id=run_id)
            print(f"froze baseline {args.snapshot_baseline!r} from run {run_id}")
        if args.compare_baseline and baseline is None:
            stored = store.baseline(args.compare_baseline)
            if stored is None:
                # First run against a fresh store: nothing to ratio-check
                # yet, so fall through to the absolute-only report.
                print(
                    f"no baseline {args.compare_baseline!r} in {store.path}; "
                    "running absolute checks only",
                    file=sys.stderr,
                )
            else:
                baseline = stored

    report = compare_to_baseline(record, baseline, expectations)
    print(format_comparison_report(report))
    if store is not None:
        trends = detect_trends(store, expectations)
        if trends:
            print(format_trends(trends))
    if args.summary:
        # Comparison report only: run history and drift tables are the
        # bench-history subcommand's job (CI composes both into one page).
        with open(args.summary, "a") as handle:
            handle.write(format_comparison_markdown(report) + "\n")
    if store is not None:
        store.close()
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
