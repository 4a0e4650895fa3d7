"""Analytic energy model derived from the area model's component breakdown.

The paper reports chip power (174 W, Table 8) but no per-workload energy;
this module extends the calibrated area model in :mod:`repro.core.area`
into a first-order energy model so the design-space search can trade
energy against cycles and area. The model follows the usual
event-energy + static-power decomposition:

* every dynamic event (compute iteration, random SRAM access, scanner
  cycle, cross-tile shuffle request, DRAM byte/burst) carries a per-event
  energy calibrated at the paper's design point and scaled with the same
  structural parameters the area model scales with (SRAM access energy
  ~ sqrt(capacity), scheduler energy ~ Table 4 area, scanner energy
  ~ Table 5 area, shuffle energy ~ butterfly stage count);
* static energy is a fixed fraction of the area model's chip power
  integrated over the run's cycle count.

Per-pair estimates go through :func:`estimate_energy`;
:func:`estimate_energy_batch` costs a (profile x platform) grid in
vectorized passes that mirror the scalar operation order step for step,
so batch and per-call results are bit-identical (the same discipline as
:func:`~repro.apps.timing.estimate_cycles_batch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..config import CLOCK_GHZ, MemoryTechnology, SpMUConfig
from ..sim.dram import BURST_BYTES
from .area import CAPSTAN_CU_MM2, capstan_area, scanner_area_um2, scheduler_area_um2

# --------------------------------------------------------------------------- #
# Calibration constants (per-event energies at the paper's design point)
# --------------------------------------------------------------------------- #

#: Energy per useful innermost lane iteration (FMA plus operand movement),
#: in picojoules, at the default compute-unit design point.
COMPUTE_PJ = 2.4

#: Energy per random on-chip access of the default 256 KiB / 16-bank SpMU
#: SRAM array (bitlines + wordline + sense), in picojoules.
SRAM_ACCESS_PJ = 6.1

#: Energy per access through the SpMU scheduler (reorder queue, crossbar,
#: allocator) at the Table 4 16/16 design point, in picojoules.
SCHEDULER_PJ = 1.2

#: Energy per scanner-busy cycle of the default 256/16 scanner, in
#: picojoules.
SCAN_PJ = 8.5

#: Energy per cross-tile request through the 16-lane butterfly shuffle
#: network, in picojoules.
SHUFFLE_PJ = 3.0

#: Streaming DRAM energy per byte, by technology, in picojoules. DDR4's
#: long off-package traces dominate; HBM's TSV stacks are an order of
#: magnitude cheaper per bit. The ideal technology is free by definition.
DRAM_STREAM_PJ_PER_BYTE: Dict[MemoryTechnology, float] = {
    MemoryTechnology.DDR4: 150.0,
    MemoryTechnology.HBM2: 56.0,
    MemoryTechnology.HBM2E: 50.0,
    MemoryTechnology.IDEAL: 0.0,
}

#: Random (closed-page) burst energy overhead relative to streaming the
#: same bytes: activate/precharge on every burst roughly doubles the cost.
DRAM_RANDOM_OVERHEAD = 2.0

#: Fraction of the area model's chip power attributed to leakage plus
#: always-on clocking, integrated over the run as static energy.
STATIC_POWER_FRACTION = 0.30

#: Picojoules to millijoules.
_PJ_TO_MJ = 1e-9

#: Energy category names, in summation order (mirrored by the batch path).
ENERGY_CATEGORIES = ("compute", "sram", "scanner", "network", "dram", "static")

#: Default SpMU SRAM capacity the per-access energy is calibrated at.
_DEFAULT_SPMU_CAPACITY_BYTES = SpMUConfig().capacity_bytes


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-category energy of one (profile, platform) pair in millijoules."""

    compute: float = 0.0
    sram: float = 0.0
    scanner: float = 0.0
    network: float = 0.0
    dram: float = 0.0
    static: float = 0.0

    @property
    def total_mj(self) -> float:
        """Total energy, summed in :data:`ENERGY_CATEGORIES` order."""
        total = 0.0
        for name in ENERGY_CATEGORIES:
            total = total + getattr(self, name)
        return total


@dataclass(frozen=True)
class EnergyParams:
    """Per-platform event energies in millijoules (derived from the area
    model), plus the static energy per cycle.

    Both the scalar and the batch estimators resolve platforms through
    :func:`platform_energy_params`, so the two paths consume identical
    floats by construction.
    """

    compute_mj: float
    sram_mj: float
    scan_mj: float
    shuffle_mj: float
    dram_stream_mj_per_byte: float
    dram_random_mj: float
    static_mj_per_cycle: float


_PARAMS_CACHE: Dict[object, EnergyParams] = {}


def platform_energy_params(platform) -> EnergyParams:
    """Event energies for one :class:`~repro.apps.timing.CapstanPlatform`.

    Every per-event energy is the calibration constant scaled by the same
    structural ratio the area model uses for the corresponding component,
    so a design point that pays more area for a unit also pays more energy
    per event through it.
    """
    cached = _PARAMS_CACHE.get(platform)
    if cached is not None:
        return cached
    config = platform.config
    area = capstan_area(config)

    # Compute: scale with the modelled per-CU area (scanner-heavy CUs pay
    # slightly more per iteration through clock and operand distribution).
    compute_scale = area.compute_unit_each / CAPSTAN_CU_MM2
    compute_mj = COMPUTE_PJ * compute_scale * _PJ_TO_MJ

    # SRAM: array energy grows ~ sqrt(capacity) (bitline/wordline length),
    # scheduler energy tracks the Table 4 area fit.
    capacity_scale = math.sqrt(
        config.spmu.capacity_bytes / _DEFAULT_SPMU_CAPACITY_BYTES
    )
    scheduler_scale = scheduler_area_um2(
        config.spmu.queue_depth, config.spmu.crossbar_inputs, config.spmu.banks
    ) / scheduler_area_um2(16, 16)
    sram_mj = (
        SRAM_ACCESS_PJ * capacity_scale + SCHEDULER_PJ * scheduler_scale
    ) * _PJ_TO_MJ

    # Scanner: per-busy-cycle energy tracks the Table 5 area.
    scan_scale = scanner_area_um2(
        config.scanner.bit_width, config.scanner.output_vectorization
    ) / scanner_area_um2(256, 16)
    scan_mj = SCAN_PJ * scan_scale * _PJ_TO_MJ

    # Shuffle: a request traverses log2(lanes) butterfly stages (4 at the
    # 16-lane design point).
    shuffle_mj = SHUFFLE_PJ * (math.log2(config.lanes) / 4.0) * _PJ_TO_MJ

    # DRAM: per-byte streaming energy by technology; random bursts move a
    # full burst and pay the closed-page activate overhead.
    stream_pj = DRAM_STREAM_PJ_PER_BYTE[config.memory]
    dram_stream_mj = stream_pj * _PJ_TO_MJ
    dram_random_mj = BURST_BYTES * stream_pj * DRAM_RANDOM_OVERHEAD * _PJ_TO_MJ

    # Static: a fixed fraction of the area model's chip power, integrated
    # per cycle (W * s = J; x1000 to mJ).
    static_w = STATIC_POWER_FRACTION * area.power_w
    static_mj_per_cycle = static_w * ((1.0 / CLOCK_GHZ) * 1e-9) * 1000.0

    params = EnergyParams(
        compute_mj=compute_mj,
        sram_mj=sram_mj,
        scan_mj=scan_mj,
        shuffle_mj=shuffle_mj,
        dram_stream_mj_per_byte=dram_stream_mj,
        dram_random_mj=dram_random_mj,
        static_mj_per_cycle=static_mj_per_cycle,
    )
    _PARAMS_CACHE[platform] = params
    return params


def estimate_energy(
    profile, platform=None, cycles: Optional[float] = None
) -> Tuple[float, EnergyBreakdown]:
    """Estimate end-to-end energy for one (profile, platform) pair.

    Args:
        profile: The application's platform-independent execution profile.
        platform: The Capstan configuration (defaults to the paper's HBM2E
            design point).
        cycles: End-to-end cycles of the run (for the static term); when
            ``None``, computed through
            :func:`~repro.apps.timing.estimate_cycles`.

    Returns:
        ``(total_mj, breakdown)`` with ``breakdown.total_mj == total_mj``.
    """
    from ..apps.timing import default_platform, estimate_cycles

    platform = platform or default_platform()
    if cycles is None:
        cycles, _ = estimate_cycles(profile, platform)
    params = platform_energy_params(platform)

    compute = profile.compute_iterations * params.compute_mj
    sram = profile.sram_random_accesses * params.sram_mj
    scanner = (profile.scan_cycles + profile.scan_empty_cycles) * params.scan_mj
    network = (
        profile.cross_tile_request_fraction * profile.sram_random_accesses
    ) * params.shuffle_mj

    stream_read = profile.compressed_stream_read_bytes
    dram = (stream_read + profile.dram_stream_write_bytes) * params.dram_stream_mj_per_byte + (
        profile.dram_random_reads + 2 * profile.dram_random_updates
    ) * params.dram_random_mj

    static = cycles * params.static_mj_per_cycle

    breakdown = EnergyBreakdown(
        compute=compute,
        sram=sram,
        scanner=scanner,
        network=network,
        dram=dram,
        static=static,
    )
    return breakdown.total_mj, breakdown


@dataclass
class EnergyBatchResult:
    """Vectorized energy of a (profile x platform) grid in millijoules.

    ``total[i, j]`` equals ``estimate_energy(profiles[i], platforms[j],
    cycles=cycles[i, j])[0]`` exactly.
    """

    total: np.ndarray
    categories: Dict[str, np.ndarray]

    def breakdown(self, profile_index: int, platform_index: int) -> EnergyBreakdown:
        """The :class:`EnergyBreakdown` of one grid cell."""
        return EnergyBreakdown(
            **{
                name: float(self.categories[name][profile_index, platform_index])
                for name in ENERGY_CATEGORIES
            }
        )


def estimate_energy_batch(
    profiles: Sequence, platforms: Sequence, cycles: np.ndarray
) -> EnergyBatchResult:
    """Energy of every (profile, platform) pair of a grid.

    Per-platform event energies are resolved through the same
    :func:`platform_energy_params` cache as the scalar path and every
    arithmetic step mirrors :func:`estimate_energy`'s operation order, so
    each cell is bit-identical to the per-call estimate. Like the costing
    batch, every term is a per-profile column against a per-platform row
    -- no cross-platform reductions -- so platform-axis chunks concatenate
    bit-identically (streaming-safe under a memory budget).

    Args:
        profiles: Grid rows.
        platforms: Grid columns.
        cycles: End-to-end cycles per cell, shape
            ``(len(profiles), len(platforms))`` (the static-energy input;
            normally a :class:`~repro.apps.timing.BatchCostResult.cycles`).
    """
    n_profiles, n_platforms = len(profiles), len(platforms)
    cycles = np.asarray(cycles, dtype=np.float64)
    if cycles.shape != (n_profiles, n_platforms):
        raise ValueError(
            f"cycles shape {cycles.shape} does not match the "
            f"({n_profiles}, {n_platforms}) grid"
        )
    if n_profiles == 0 or n_platforms == 0:
        empty = {name: np.zeros((n_profiles, n_platforms)) for name in ENERGY_CATEGORIES}
        return EnergyBatchResult(total=np.zeros((n_profiles, n_platforms)), categories=empty)

    def fcol(values) -> np.ndarray:
        return np.array(values, dtype=np.float64).reshape(n_profiles, 1)

    def icol(values) -> np.ndarray:
        return np.array(values, dtype=np.int64).reshape(n_profiles, 1)

    def frow(values) -> np.ndarray:
        return np.array(values, dtype=np.float64).reshape(1, n_platforms)

    compute_iterations = icol([p.compute_iterations for p in profiles])
    sram_accesses = icol([p.sram_random_accesses for p in profiles])
    scan_total_cycles = icol([p.scan_cycles + p.scan_empty_cycles for p in profiles])
    cross_requests = fcol(
        [p.cross_tile_request_fraction * p.sram_random_accesses for p in profiles]
    )
    stream_read_bytes = fcol([p.compressed_stream_read_bytes for p in profiles])
    stream_write_bytes = fcol([p.dram_stream_write_bytes for p in profiles])
    dram_accesses = icol(
        [p.dram_random_reads + 2 * p.dram_random_updates for p in profiles]
    )

    params = [platform_energy_params(p) for p in platforms]
    compute_mj = frow([q.compute_mj for q in params])
    sram_mj = frow([q.sram_mj for q in params])
    scan_mj = frow([q.scan_mj for q in params])
    shuffle_mj = frow([q.shuffle_mj for q in params])
    stream_mj = frow([q.dram_stream_mj_per_byte for q in params])
    random_mj = frow([q.dram_random_mj for q in params])
    static_mj = frow([q.static_mj_per_cycle for q in params])

    compute = compute_iterations * compute_mj
    sram = sram_accesses * sram_mj
    scanner = scan_total_cycles * scan_mj
    network = cross_requests * shuffle_mj
    dram = (stream_read_bytes + stream_write_bytes) * stream_mj + dram_accesses * random_mj
    static = cycles * static_mj

    categories = {
        "compute": compute,
        "sram": sram,
        "scanner": scanner,
        "network": network,
        "dram": dram,
        "static": static,
    }
    # Total in ENERGY_CATEGORIES order, matching EnergyBreakdown.total_mj.
    total = np.zeros((n_profiles, n_platforms))
    for name in ENERGY_CATEGORIES:
        total = total + categories[name]
    return EnergyBatchResult(total=total, categories=categories)
