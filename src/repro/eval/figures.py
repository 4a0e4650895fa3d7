"""Figure harnesses: regenerate every figure of the evaluation section.

Each function returns the series a plot of the corresponding figure would
show (no plotting dependency is required offline; the benchmark harness and
EXPERIMENTS.md render them as tables).
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional

import numpy as np

from ..apps.scan_model import record_scans
from ..apps.timing import CapstanPlatform, default_platform, estimate_cycles
from ..config import CapstanConfig, MemoryTechnology, ScannerConfig, SpMUConfig
from ..core.ordering import OrderingMode
from ..core.spmu import SparseMemoryUnit, random_request_trace
from ..sim.dram import DRAMModel, TrafficSummary
from ..sim.stats import STALL_CATEGORIES, geometric_mean
from .experiments import APP_DATASETS, ProfileSet, collect_profiles

# --------------------------------------------------------------------------- #
# Figure 4: traced request vector under the four ordering modes
# --------------------------------------------------------------------------- #

FIGURE4_PAPER_UTILIZATION = {
    "unordered": 79.9,
    "address-ordered": 34.2,
    "fully-ordered": 25.5,
    "arbitrated": 32.4,
}


def figure4_ordering_trace(vectors: int = 120, seed: int = 7) -> Dict:
    """Bank utilization of one random request stream under each ordering mode.

    The paper shows a traced vector's per-cycle bank grants; the quantity it
    annotates (and that Table 10 confirms at system level) is the bank
    utilization each mode achieves, which is what this harness reports,
    together with a short per-cycle trace excerpt for the unordered mode.
    """
    results: Dict[str, float] = {}
    trace_excerpt: List[int] = []
    for name, mode in (
        ("unordered", OrderingMode.UNORDERED),
        ("address-ordered", OrderingMode.ADDRESS_ORDERED),
        ("fully-ordered", OrderingMode.FULLY_ORDERED),
        ("arbitrated", OrderingMode.ARBITRATED),
    ):
        unit = SparseMemoryUnit(SpMUConfig(), ordering=mode, record_trace=True)
        stats = unit.simulate(random_request_trace(vectors, seed=seed))
        results[name] = 100.0 * stats.bank_utilization
        if name == "unordered":
            trace_excerpt = [int(banks) for banks in stats.per_cycle_active_banks[:15]]
    return {
        "measured_utilization_pct": results,
        "paper_utilization_pct": FIGURE4_PAPER_UTILIZATION,
        "unordered_active_banks_per_cycle": trace_excerpt,
    }


# --------------------------------------------------------------------------- #
# Figure 5: DRAM bandwidth, area (outer-parallelism), and compression sweeps
# --------------------------------------------------------------------------- #

FIGURE5_BANDWIDTH_POINTS = (20, 50, 100, 200, 500, 1000, 2000)

#: Apps plotted in Figure 5 (all except BiCGStab, following the legend).
FIGURE5_APPS = (
    "spmv-csr",
    "spmv-coo",
    "spmv-csc",
    "conv",
    "pagerank-pull",
    "pagerank-edge",
    "bfs",
    "sssp",
    "spadd",
    "spmspm",
)


def figure5a_bandwidth_sensitivity(
    profiles: Optional[ProfileSet] = None,
    bandwidths_gbps: tuple = FIGURE5_BANDWIDTH_POINTS,
) -> Dict[str, List[float]]:
    """Speedup vs DRAM bandwidth, normalized to the lowest point per app."""
    profiles = profiles or collect_profiles(apps=list(FIGURE5_APPS))
    platform = default_platform(MemoryTechnology.HBM2E)
    series: Dict[str, List[float]] = {}
    for app in profiles.apps():
        app_profiles = profiles.for_app(app)
        runtimes = []
        for bandwidth in bandwidths_gbps:
            seconds = []
            for profile in app_profiles:
                cycles, _ = _cycles_with_bandwidth(profile, platform, bandwidth)
                seconds.append(cycles)
            runtimes.append(geometric_mean(seconds))
        base = runtimes[0]
        series[app] = [base / r if r > 0 else 0.0 for r in runtimes]
    series["bandwidth_gbps"] = list(bandwidths_gbps)
    return series


def _cycles_with_bandwidth(profile, platform: CapstanPlatform, bandwidth_gbps: float):
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
    return cycles - breakdown.dram + new_dram, breakdown


def figure5b_area_sensitivity(
    profiles: Optional[ProfileSet] = None,
    parallelism_points: tuple = (2, 4, 8, 16, 32, 64),
) -> Dict[str, List[float]]:
    """Speedup vs outer-parallelism (a proxy for weighted on-chip area)."""
    profiles = profiles or collect_profiles(apps=list(FIGURE5_APPS))
    platform = default_platform(MemoryTechnology.HBM2E)
    series: Dict[str, List[float]] = {}
    for app in profiles.apps():
        app_profiles = profiles.for_app(app)
        runtimes = []
        for units in parallelism_points:
            seconds = []
            for profile in app_profiles:
                scaled = _with_parallelism(profile, units)
                cycles, _ = estimate_cycles(scaled, platform)
                seconds.append(cycles)
            runtimes.append(geometric_mean(seconds))
        base = runtimes[0]
        series[app] = [base / r if r > 0 else 0.0 for r in runtimes]
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
    profiles: Optional[ProfileSet] = None,
    bandwidths_gbps: tuple = FIGURE5_BANDWIDTH_POINTS,
) -> Dict[str, List[float]]:
    """Speedup from read-side DRAM compression across bandwidths."""
    profiles = profiles or collect_profiles(apps=list(FIGURE5_APPS))
    enabled = default_platform(MemoryTechnology.HBM2E)
    series: Dict[str, List[float]] = {}
    for app in profiles.apps():
        app_profiles = profiles.for_app(app)
        speedups = []
        for bandwidth in bandwidths_gbps:
            with_compression = []
            without_compression = []
            for profile in app_profiles:
                cycles_on, _ = _cycles_with_bandwidth(profile, enabled, bandwidth)
                stripped = copy.copy(profile)
                stripped.pointer_compression_ratio = 1.0
                cycles_off, _ = _cycles_with_bandwidth(stripped, enabled, bandwidth)
                with_compression.append(cycles_on)
                without_compression.append(cycles_off)
            speedups.append(
                geometric_mean(without_compression) / max(geometric_mean(with_compression), 1e-9)
            )
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

def figure7_stall_breakdown(profiles: Optional[ProfileSet] = None) -> Dict[str, Dict[str, float]]:
    """Fractional stall breakdown per application (averaged over datasets)."""
    profiles = profiles or collect_profiles()
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
