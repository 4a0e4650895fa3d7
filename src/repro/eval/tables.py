"""Table harnesses: regenerate every table of the evaluation section.

Each function returns plain dictionaries/lists so callers (tests,
benchmarks and the ``table`` work unit) can render the same rows the paper
reports, alongside the paper's published numbers for comparison.
A harness that reads profiles costs the profile set it is given.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..apps.timing import (
    CapstanPlatform,
    default_platform,
    estimate_cycles,
    estimate_cycles_batch,
    ideal_platform,
)
from ..config import CapstanConfig, MemoryTechnology, ShuffleMode, SpMUConfig
from ..core.area import (
    capstan_area,
    plasticine_area,
    scanner_area_um2,
    scheduler_area_um2,
)
from ..core.ordering import OrderingMode
from ..core.spmu import SpMUVariant, effective_bank_throughput_batch
from ..baselines import asic, cpu, gpu, plasticine
from ..runtime.sweep import sweep
from ..sim.stats import geometric_mean
from .experiments import ProfileSet

# --------------------------------------------------------------------------- #
# Table 4: SpMU throughput vs queue depth, crossbar size, priorities
# --------------------------------------------------------------------------- #

#: The paper's Table 4 bank-use percentages keyed by (depth, crossbar, priorities).
TABLE4_PAPER = {
    (8, 16, 1): 51.5, (8, 16, 2): 66.4, (8, 16, 3): 67.9,
    (8, 32, 1): 55.3, (8, 32, 2): 68.5, (8, 32, 3): 72.5,
    (16, 16, 1): 63.9, (16, 16, 2): 79.9, (16, 16, 3): 79.9,
    (16, 32, 1): 67.8, (16, 32, 2): 85.1, (16, 32, 3): 85.4,
    (32, 16, 1): 72.7, (32, 16, 2): 84.7, (32, 16, 3): 84.7,
    (32, 32, 1): 77.0, (32, 32, 2): 92.4, (32, 32, 3): 92.5,
}


def table4_spmu_throughput(
    depths: tuple = (8, 16, 32),
    crossbars: tuple = (16, 32),
    priorities: tuple = (1, 2, 3),
    vectors: int = 160,
) -> List[Dict]:
    """Measure bank utilization across the Table 4 design space.

    Every point is measured in one persisted batch; throughput divides
    back into utilization exactly because ``banks`` is a power of two.
    """
    points = [
        (depth, crossbar, priority)
        for depth in depths
        for crossbar in crossbars
        for priority in priorities
    ]
    variants = [
        SpMUVariant(
            config=SpMUConfig(
                queue_depth=depth,
                crossbar_inputs=crossbar,
                allocator_priorities=priority,
                allocator_iterations=3,
            )
        )
        for depth, crossbar, priority in points
    ]
    throughputs = effective_bank_throughput_batch(variants, vectors=vectors)
    rows: Dict[Tuple[int, int], Dict] = {}
    for (depth, crossbar, priority), variant, throughput in zip(points, variants, throughputs):
        row = rows.setdefault(
            (depth, crossbar),
            {
                "depth": depth,
                "crossbar": f"{crossbar}x16",
                "scheduler_area_um2": scheduler_area_um2(depth, crossbar),
            },
        )
        utilization = float(throughput) / variant.config.banks
        row[f"measured_{priority}pri_pct"] = 100.0 * utilization
        row[f"paper_{priority}pri_pct"] = TABLE4_PAPER.get((depth, crossbar, priority))
    return list(rows.values())


# --------------------------------------------------------------------------- #
# Table 5: scanner area
# --------------------------------------------------------------------------- #

def table5_scanner_area() -> List[Dict]:
    """Scanner area (um^2) across widths and output vectorizations."""
    rows = []
    for width in (128, 256, 512):
        row = {"width": width}
        for outputs in (1, 2, 4, 8, 16):
            row[f"out{outputs}_um2"] = scanner_area_um2(width, outputs)
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Table 8: area and power vs Plasticine
# --------------------------------------------------------------------------- #

def table8_area() -> Dict:
    """Capstan vs Plasticine area/power breakdown (paper: +16% / +12%)."""
    capstan = capstan_area(CapstanConfig())
    baseline = plasticine_area()
    return {
        "plasticine": baseline.as_dict(),
        "capstan": capstan.as_dict(),
        "area_overhead": capstan.total_mm2 / baseline.total_mm2 - 1.0,
        "power_overhead": capstan.power_w / baseline.power_w - 1.0,
        "paper_area_overhead": 0.16,
        "paper_power_overhead": 0.12,
    }


# --------------------------------------------------------------------------- #
# Shared batched-costing helper for the sensitivity tables (9-12)
# --------------------------------------------------------------------------- #


def _batched_app_cycles(
    profiles: ProfileSet, apps: List[str], platforms: Dict[str, CapstanPlatform]
) -> Dict[str, np.ndarray]:
    """Cost every application profile under every platform in one batch.

    Returns one ``(n_datasets, n_platforms)`` cycle matrix per application,
    with columns in ``platforms`` order; each cell equals the corresponding
    per-call :func:`estimate_cycles` result exactly.
    """
    ordered = []
    spans: Dict[str, Tuple[int, int]] = {}
    for app in apps:
        app_profiles = profiles.for_app(app)
        spans[app] = (len(ordered), len(ordered) + len(app_profiles))
        ordered.extend(app_profiles)
    result = estimate_cycles_batch(ordered, list(platforms.values()))
    return {app: result.cycles[start:stop, :] for app, (start, stop) in spans.items()}


# --------------------------------------------------------------------------- #
# Table 9: SpMU architecture sensitivity
# --------------------------------------------------------------------------- #

#: Paper Table 9 gmean runtimes (normalized to Capstan hash = 1.0).
TABLE9_PAPER_GMEAN = {
    "ideal": 0.92,
    "capstan-hash": 1.00,
    "capstan-linear": 1.11,
    "weak-hash": 1.15,
    "weak-linear": 1.26,
    "arbitrated-hash": 1.27,
    "arbitrated-linear": 1.44,
}


#: Table 9 row labels per allocator variant.
_TABLE9_ALLOCATOR_LABELS = {"separable": "capstan", "greedy": "weak", "arbitrated": "arbitrated"}


def table9_spmu_sensitivity(profiles: ProfileSet) -> Dict:
    """Per-app runtimes under SpMU variants, normalized to Capstan+hash."""
    variants = {"ideal": CapstanPlatform(ideal_sram=True, name="ideal")}
    variants.update(
        sweep(
            allocator=("separable", "greedy", "arbitrated"),
            bank_mapping=("hash", "linear"),
            name=lambda combo: (
                f"{_TABLE9_ALLOCATOR_LABELS[combo['allocator']]}-{combo['bank_mapping']}"
            ),
        )
    )
    names = list(variants)
    cycles_by_app = _batched_app_cycles(profiles, profiles.apps(), variants)
    baseline_column = names.index("capstan-hash")
    results: Dict[str, Dict[str, float]] = {name: {} for name in variants}
    for app, cycles in cycles_by_app.items():
        baseline_cycles = cycles[:, baseline_column]
        for j, name in enumerate(names):
            ratios = [c / b for c, b in zip(cycles[:, j], baseline_cycles) if b > 0]
            results[name][app] = geometric_mean(ratios)
    gmeans = {
        name: geometric_mean(list(app_ratios.values())) for name, app_ratios in results.items()
    }
    return {"per_app": results, "gmean": gmeans, "paper_gmean": TABLE9_PAPER_GMEAN}


# --------------------------------------------------------------------------- #
# Table 10: ordering-mode sensitivity
# --------------------------------------------------------------------------- #

TABLE10_PAPER_GMEAN = {"unordered": 1.00, "address-ordered": 1.35, "fully-ordered": 1.85}

#: The paper evaluates ordering modes on the SpMV variants, Conv, and BiCGStab.
TABLE10_APPS = ("spmv-csr", "spmv-coo", "spmv-csc", "conv", "bicgstab")


def table10_ordering_modes(profiles: ProfileSet) -> Dict:
    """Slowdown of stricter ordering modes, normalized to unordered."""
    variants = sweep(
        ordering=(
            OrderingMode.UNORDERED,
            OrderingMode.ADDRESS_ORDERED,
            OrderingMode.FULLY_ORDERED,
        )
    )
    names = list(variants)
    apps = [app for app in TABLE10_APPS if app in profiles.apps()]
    cycles_by_app = _batched_app_cycles(profiles, apps, variants)
    baseline_column = names.index("unordered")
    per_app: Dict[str, Dict[str, float]] = {name: {} for name in variants}
    for app, cycles in cycles_by_app.items():
        base = cycles[:, baseline_column]
        for j, name in enumerate(names):
            per_app[name][app] = geometric_mean(
                [c / b for c, b in zip(cycles[:, j], base) if b > 0]
            )
    gmeans = {name: geometric_mean(list(vals.values())) for name, vals in per_app.items()}
    return {"per_app": per_app, "gmean": gmeans, "paper_gmean": TABLE10_PAPER_GMEAN}


# --------------------------------------------------------------------------- #
# Table 11: merge (shuffle) network sensitivity
# --------------------------------------------------------------------------- #

TABLE11_PAPER = {
    ("pagerank-pull", "none"): 1.53,
    ("pagerank-pull", "mrg-0"): 1.00,
    ("pagerank-pull", "mrg-1"): 1.00,
    ("pagerank-pull", "mrg-16"): 0.99,
    ("pagerank-edge", "none"): 1.21,
    ("pagerank-edge", "mrg-0"): 1.00,
    ("pagerank-edge", "mrg-1"): 1.00,
    ("pagerank-edge", "mrg-16"): 1.00,
    ("conv", "none"): 1.07,
    ("conv", "mrg-1"): 1.00,
    ("conv", "mrg-16"): 0.99,
}

TABLE11_APPS = ("pagerank-pull", "pagerank-edge", "conv")

#: Table 11 column labels per shuffle mode.
_TABLE11_MODE_LABELS = {
    ShuffleMode.NONE: "none",
    ShuffleMode.MRG0: "mrg-0",
    ShuffleMode.MRG1: "mrg-1",
    ShuffleMode.MRG16: "mrg-16",
}


def table11_shuffle_sensitivity(profiles: ProfileSet) -> Dict:
    """Runtime vs shuffle-network mode, normalized to Mrg-1."""
    variants = sweep(
        shuffle=(ShuffleMode.NONE, ShuffleMode.MRG0, ShuffleMode.MRG1, ShuffleMode.MRG16),
        name=lambda combo: _TABLE11_MODE_LABELS[combo["shuffle"]],
    )
    names = list(variants)
    apps = [app for app in TABLE11_APPS if app in profiles.apps()]
    cycles_by_app = _batched_app_cycles(profiles, apps, variants)
    baseline_column = names.index("mrg-1")
    results: Dict[str, Dict[str, float]] = {}
    for app, cycles in cycles_by_app.items():
        base = cycles[:, baseline_column]
        results[app] = {}
        for j, name in enumerate(names):
            results[app][name] = geometric_mean(
                [c / b for c, b in zip(cycles[:, j], base) if b > 0]
            )
    return {"per_app": results, "paper": TABLE11_PAPER}


# --------------------------------------------------------------------------- #
# Table 12: end-to-end performance vs CPU / GPU / Plasticine
# --------------------------------------------------------------------------- #

#: Paper Table 12 geomean runtimes normalized to Capstan-HBM2E.
TABLE12_PAPER_GMEAN = {
    "capstan-ideal": 0.82,
    "capstan-hbm2e": 1.00,
    "capstan-hbm2": 1.27,
    "capstan-ddr4": 6.45,
    "plasticine-hbm2e": 10.30,
    "gpu-v100": 20.50,
    "cpu-xeon": 117.50,
}


def table12_performance(profiles: ProfileSet) -> Dict:
    """Runtimes of every platform, normalized to Capstan-HBM2E per app."""
    platforms = {"capstan-ideal": ideal_platform()}
    platforms.update(
        sweep(
            memory=(MemoryTechnology.HBM2E, MemoryTechnology.HBM2, MemoryTechnology.DDR4),
            name=lambda combo: f"capstan-{combo['memory'].value}",
        )
    )
    cycles_by_app = _batched_app_cycles(profiles, profiles.apps(), platforms)
    per_app: Dict[str, Dict[str, float]] = {}
    for app in profiles.apps():
        app_profiles = profiles.for_app(app)
        seconds_by_name = {
            name: [c / (platform.config.clock_ghz * 1e9) for c in cycles_by_app[app][:, j]]
            for j, (name, platform) in enumerate(platforms.items())
        }
        # Plasticine (only for mappable apps), GPU, and CPU.
        if app in plasticine.PLASTICINE_MAPPABLE_APPS:
            seconds_by_name["plasticine-hbm2e"] = [
                plasticine.run_metrics(p).runtime_seconds for p in app_profiles
            ]
        seconds_by_name["gpu-v100"] = [gpu.run_metrics(p).runtime_seconds for p in app_profiles]
        seconds_by_name["cpu-xeon"] = [cpu.run_metrics(p).runtime_seconds for p in app_profiles]
        base_seconds = seconds_by_name["capstan-hbm2e"]
        per_app[app] = {
            name: geometric_mean([s / b for s, b in zip(seconds, base_seconds) if b > 0])
            for name, seconds in seconds_by_name.items()
        }
    gmeans = {
        name: geometric_mean([row[name] for row in per_app.values() if name in row])
        for name in TABLE12_PAPER_GMEAN
    }
    return {"per_app": per_app, "gmean": gmeans, "paper_gmean": TABLE12_PAPER_GMEAN}


# --------------------------------------------------------------------------- #
# Table 13: ASIC comparison
# --------------------------------------------------------------------------- #

TABLE13_PAPER = {
    "eie": 0.53,
    "scnn": 1.40,
    "graphicionado-pagerank": 1.08,
    "graphicionado-bfs": 2.10,
    "graphicionado-sssp": 1.13,
    "matraptor": 17.96,
}


def table13_asic_comparison(profiles: ProfileSet) -> Dict:
    """Capstan speedup over each ASIC baseline (paper: Table 13, 1.6 GHz)."""
    results: Dict[str, float] = {}

    def capstan_seconds(app: str, platform: CapstanPlatform) -> float:
        hz = platform.config.clock_ghz * 1e9
        return geometric_mean([estimate_cycles(p, platform)[0] / hz for p in profiles.for_app(app)])

    # EIE and SCNN are compared against an ideal Capstan (no network/memory).
    ideal = ideal_platform()
    csc_profiles = profiles.for_app("spmv-csc")
    eie_seconds = geometric_mean([asic.eie_runtime_seconds(p) for p in csc_profiles])
    results["eie"] = eie_seconds / capstan_seconds("spmv-csc", ideal)

    conv_profiles = profiles.for_app("conv")
    scnn_seconds = geometric_mean([asic.scnn_runtime_seconds(p) for p in conv_profiles])
    results["scnn"] = scnn_seconds / capstan_seconds("conv", ideal)

    # Graphicionado and MatRaptor comparisons include load/store time and use
    # DDR4 Capstan for the DRAM-bound graph kernels.
    ddr4 = default_platform(MemoryTechnology.DDR4)
    for app, key in (
        ("pagerank-edge", "graphicionado-pagerank"),
        ("bfs", "graphicionado-bfs"),
        ("sssp", "graphicionado-sssp"),
    ):
        app_profiles = profiles.for_app(app)
        graphicionado_seconds = geometric_mean(
            [asic.graphicionado_runtime_seconds(p) for p in app_profiles]
        )
        results[key] = graphicionado_seconds / capstan_seconds(app, ddr4)

    spmspm_profiles = profiles.for_app("spmspm")
    matraptor_seconds = geometric_mean(
        [asic.matraptor_runtime_seconds(p) for p in spmspm_profiles]
    )
    results["matraptor"] = matraptor_seconds / capstan_seconds(
        "spmspm", default_platform(MemoryTechnology.HBM2E)
    )
    return {"speedup": results, "paper": TABLE13_PAPER}
