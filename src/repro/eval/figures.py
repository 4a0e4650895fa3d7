"""Figure harnesses: regenerate every figure of the evaluation section.

Each function returns the series a plot of the corresponding figure would
show (no plotting dependency is required offline; the benchmarks render
them as tables). A harness that reads profiles plots every application of
the profile set it is given.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional

import numpy as np

from ..apps.scan_model import record_scans
from ..apps.timing import CapstanPlatform, default_platform, estimate_cycles
from ..config import CapstanConfig, MemoryTechnology, ScannerConfig
from ..core.ordering import OrderingMode
from ..core.spmu import (
    THROUGHPUT_SEED,
    THROUGHPUT_VECTORS,
    SpMUVariant,
    effective_bank_throughput_batch,
    random_request_trace,
)
from ..core.spmu_array import simulate_variants
from ..sim.dram import DRAMModel, TrafficSummary
from ..sim.stats import STALL_CATEGORIES, geometric_mean
from .experiments import APP_DATASETS, ProfileSet

# --------------------------------------------------------------------------- #
# Figure 4: traced request vector under the four ordering modes
# --------------------------------------------------------------------------- #

FIGURE4_PAPER_UTILIZATION = {
    "unordered": 79.9,
    "address-ordered": 34.2,
    "fully-ordered": 25.5,
    "arbitrated": 32.4,
}


def figure4_ordering_trace(vectors: int = THROUGHPUT_VECTORS) -> Dict:
    """Bank utilization of one random request stream under each ordering mode.

    The paper shows a traced vector's per-cycle bank grants; the quantity it
    annotates (and that Table 10 confirms at system level) is the bank
    utilization each mode achieves, which is what this harness reports,
    together with a short per-cycle trace excerpt for the unordered mode.
    The stream is the calibration microbenchmark's (seed
    :data:`~repro.core.spmu.THROUGHPUT_SEED`, 16 lanes, the default
    ``SpMUConfig``), so each utilization is a stored throughput divided by
    the bank count; only the excerpt is simulated here.
    """
    modes = {
        "unordered": OrderingMode.UNORDERED,
        "address-ordered": OrderingMode.ADDRESS_ORDERED,
        "fully-ordered": OrderingMode.FULLY_ORDERED,
        "arbitrated": OrderingMode.ARBITRATED,
    }
    variants = [SpMUVariant(ordering=mode) for mode in modes.values()]
    throughputs = effective_bank_throughput_batch(variants, vectors=vectors)
    [traced] = simulate_variants(
        [SpMUVariant(ordering=OrderingMode.UNORDERED)],
        [random_request_trace(vectors, seed=THROUGHPUT_SEED)],
        record_trace=True,
    )
    return {
        "measured_utilization_pct": {
            name: 100.0 * (float(throughput) / variant.config.banks)
            for name, variant, throughput in zip(modes, variants, throughputs)
        },
        "paper_utilization_pct": FIGURE4_PAPER_UTILIZATION,
        "unordered_active_banks_per_cycle": [
            int(active) for active in traced.per_cycle_active_banks[:15]
        ],
    }


# --------------------------------------------------------------------------- #
# Figure 5: DRAM bandwidth, area (outer-parallelism), and compression sweeps
# --------------------------------------------------------------------------- #

FIGURE5_BANDWIDTH_POINTS = (20, 50, 100, 200, 500, 1000, 2000)


def _speedup_series(profiles: ProfileSet, points: tuple, cycles_at) -> Dict[str, List[float]]:
    """Per-app speedup across ``points``, normalized to the first point.

    Each point's runtime is the geometric mean of ``cycles_at(profile, point)``
    over the app's datasets.
    """
    series: Dict[str, List[float]] = {}
    for app in profiles.apps():
        runtimes = [
            geometric_mean([cycles_at(profile, point) for profile in profiles.for_app(app)])
            for point in points
        ]
        series[app] = [runtimes[0] / r if r > 0 else 0.0 for r in runtimes]
    return series


def figure5a_bandwidth_sensitivity(
    profiles: ProfileSet,
    bandwidths_gbps: tuple = FIGURE5_BANDWIDTH_POINTS,
) -> Dict[str, List[float]]:
    """Speedup vs DRAM bandwidth, normalized to the lowest point per app."""
    platform = default_platform(MemoryTechnology.HBM2E)
    series = _speedup_series(
        profiles,
        bandwidths_gbps,
        lambda profile, bandwidth: _cycles_with_bandwidth(profile, platform, bandwidth),
    )
    series["bandwidth_gbps"] = list(bandwidths_gbps)
    return series


def _cycles_with_bandwidth(profile, platform: CapstanPlatform, bandwidth_gbps: float) -> float:
    """Re-cost a profile with an overridden DRAM bandwidth."""
    cycles, breakdown = estimate_cycles(profile, platform)
    # Replace the DRAM component with one computed at the swept bandwidth.
    dram_swept = DRAMModel(
        platform.config.memory, bandwidth_gbps=bandwidth_gbps, clock_ghz=platform.config.clock_ghz
    )
    traffic = TrafficSummary(
        streaming_read_bytes=profile.dram_stream_read_bytes,
        streaming_write_bytes=profile.dram_stream_write_bytes,
        random_accesses=profile.dram_random_reads + 2 * profile.dram_random_updates,
    )
    new_dram = max(0.0, dram_swept.traffic_cycles(traffic) - breakdown.load_store)
    return cycles - breakdown.dram + new_dram


def figure5b_area_sensitivity(
    profiles: ProfileSet,
    parallelism_points: tuple = (2, 4, 8, 16, 32, 64),
) -> Dict[str, List[float]]:
    """Speedup vs outer-parallelism (a proxy for weighted on-chip area)."""
    platform = default_platform(MemoryTechnology.HBM2E)
    series = _speedup_series(
        profiles,
        parallelism_points,
        lambda profile, units: estimate_cycles(_with_parallelism(profile, units), platform)[0],
    )
    series["parallelism"] = list(parallelism_points)
    return series


def _with_parallelism(profile, units: int):
    """Copy a profile with a different outer-parallelism and re-split tiles."""
    scaled = copy.copy(profile)
    scaled.outer_parallelism = units
    work = np.asarray(profile.tile_work, dtype=np.float64)
    if work.size:
        total = work.sum()
        rng = np.random.default_rng(3)
        # Redistribute the same total work over `units` tiles with the same
        # relative spread as the original partition.
        spread = work.std() / work.mean() if work.mean() > 0 else 0.0
        new_work = np.maximum(0.0, rng.normal(1.0, spread, size=units))
        new_work = new_work / max(new_work.sum(), 1e-9) * total
        scaled.tile_work = new_work.tolist()
    return scaled


def figure5c_compression_sensitivity(
    profiles: ProfileSet,
    bandwidths_gbps: tuple = FIGURE5_BANDWIDTH_POINTS,
) -> Dict[str, List[float]]:
    """Speedup from read-side DRAM compression across bandwidths."""
    enabled = default_platform(MemoryTechnology.HBM2E)
    series: Dict[str, List[float]] = {}
    for app in profiles.apps():
        compressed = profiles.for_app(app)
        stripped = [copy.copy(profile) for profile in compressed]
        for profile in stripped:
            profile.pointer_compression_ratio = 1.0
        speedups = []
        for bandwidth in bandwidths_gbps:
            on = geometric_mean([_cycles_with_bandwidth(p, enabled, bandwidth) for p in compressed])
            off = geometric_mean([_cycles_with_bandwidth(p, enabled, bandwidth) for p in stripped])
            speedups.append(off / max(on, 1e-9))
        series[app] = speedups
    series["bandwidth_gbps"] = list(bandwidths_gbps)
    return series


# --------------------------------------------------------------------------- #
# Figure 6: scanner width sensitivity
# --------------------------------------------------------------------------- #

FIGURE6_BIT_WIDTHS = (1, 4, 16, 64, 128, 256, 512)
FIGURE6_OUTPUT_WIDTHS = (1, 2, 4, 8, 16)
FIGURE6_BIT_APPS = ("bfs", "sssp", "spadd", "spmspm")
FIGURE6_OUTPUT_APPS = ("spadd", "spmspm")


def figure6_scanner_sensitivity(
    profiles: Optional[ProfileSet] = None,
    scale: float = 1.0 / 64.0,
) -> Dict:
    """Slowdown vs scanner bit width and output vectorization.

    Scanner configuration changes only the scan-cycle component of each
    profile, so each (app, dataset) runs once per code version with its
    scans costed under every swept scanner configuration; the costs
    persist in the profile cache (:class:`~repro.runtime.cache.ScanCostStore`),
    so later calls re-cost the cached profiles and execute nothing. All
    slowdowns are relative to the maximal 512-input/16-output scanner.
    ``profiles`` is unused: the runs are at ``scale``, profiled with their scans.
    """
    reference = ScannerConfig(bit_width=512, output_vectorization=16)
    bit_configs = [
        ScannerConfig(bit_width=width, output_vectorization=16) for width in FIGURE6_BIT_WIDTHS
    ]
    out_configs = [
        ScannerConfig(bit_width=512, output_vectorization=out) for out in FIGURE6_OUTPUT_WIDTHS
    ]
    bit_series: Dict[str, List[float]] = {}
    out_series: Dict[str, List[float]] = {}
    for app in dict.fromkeys(FIGURE6_BIT_APPS + FIGURE6_OUTPUT_APPS):
        sweeps = []
        if app in FIGURE6_BIT_APPS:
            sweeps.append((bit_series, bit_configs))
        if app in FIGURE6_OUTPUT_APPS:
            sweeps.append((out_series, out_configs))
        configs = list(dict.fromkeys([reference] + [c for _, swept in sweeps for c in swept]))
        per_dataset = [
            _scan_swept_cycles(app, dataset, scale, configs) for dataset in APP_DATASETS[app]
        ]
        runtime = {
            config: geometric_mean([cycles[i] for cycles in per_dataset])
            for i, config in enumerate(configs)
        }
        for series, swept in sweeps:
            series[app] = [runtime[config] / runtime[reference] for config in swept]
    return {
        "bit_widths": list(FIGURE6_BIT_WIDTHS),
        "bit_slowdown": bit_series,
        "output_widths": list(FIGURE6_OUTPUT_WIDTHS),
        "output_slowdown": out_series,
    }


def _scan_swept_cycles(
    app: str, dataset: str, scale: float, configs: List[ScannerConfig]
) -> List[float]:
    """Capstan cycles of one run costed under each scanner configuration.

    With the run's profile and its scan cost under every configuration in
    the profile cache, nothing executes. Otherwise the app runs once with
    its scans costed under every configuration as they are made, and the
    costs (and the profile, when absent) are cached for the next call.
    """
    from ..runtime.cache import ProfileCache, ScanCostStore, cache_enabled
    from ..runtime.registry import RunContext, execute

    context = RunContext(scale=scale)
    cached = cache_enabled()
    profile, costs = None, [None] * len(configs)
    if cached:
        cache, scans = ProfileCache(), ScanCostStore()
        profile_key = cache.key(app, dataset, context)
        scan_keys = [scans.key(profile_key, config) for config in configs]
        costs = [scans.load(key) for key in scan_keys]
        profile = cache.load(profile_key)
    if profile is None or None in costs:
        store_profile = cached and profile is None
        # Costing the default scanner first makes the run the profile collection caches.
        recorded = [ScannerConfig(), *configs] if store_profile else configs
        with record_scans(recorded) as trace:
            run = execute(app, dataset, context)
        costs = [trace.cost(config) for config in configs]
        if store_profile:
            cache.store(profile_key, run)
        if cached:
            for key, cost in zip(scan_keys, costs):
                scans.store(key, cost)
        profile = run
    cycles = []
    for config, cost in zip(configs, costs):
        swept = profile.with_scan(cost)
        platform = CapstanPlatform(config=CapstanConfig(scanner=config))
        cycles.append(estimate_cycles(swept, platform)[0])
    return cycles


# --------------------------------------------------------------------------- #
# Figure 7: stall breakdown
# --------------------------------------------------------------------------- #

def figure7_stall_breakdown(profiles: ProfileSet) -> Dict[str, Dict[str, float]]:
    """Fractional stall breakdown per application (averaged over datasets)."""
    platform = default_platform(MemoryTechnology.HBM2E)
    breakdown_by_app: Dict[str, Dict[str, float]] = {}
    for app in profiles.apps():
        totals = {name: 0.0 for name in STALL_CATEGORIES}
        for profile in profiles.for_app(app):
            _, breakdown = estimate_cycles(profile, platform)
            fractions = breakdown.fractions()
            for name in STALL_CATEGORIES:
                totals[name] += fractions[name]
        count = max(1, len(profiles.for_app(app)))
        breakdown_by_app[app] = {name: totals[name] / count for name in STALL_CATEGORIES}
    return breakdown_by_app
