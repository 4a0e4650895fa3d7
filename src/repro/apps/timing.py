"""Capstan platform timing model.

Converts a platform-independent :class:`~repro.apps.profile.WorkloadProfile`
into an end-to-end cycle estimate and a Figure 7 stall breakdown for one
Capstan configuration. The model follows the paper's additive methodology:

1. start from the lane-work a perfectly utilized machine would need
   (Active);
2. add analytically computed overheads: scanner cycles on empty vectors
   (Scan), data movement through the datapath with ideal DRAM (Load/Store),
   under-filled vectors (Vector Length), uneven tiles (Imbalance);
3. add the modelled costs of the network (round trips for un-pipelinable
   algorithms plus shuffle-network serialization of cross-tile traffic),
   SRAM bank conflicts (from the SpMU microbenchmark throughput for the
   configured ordering / hashing / allocator), and DRAM bandwidth beyond
   the ideal-memory baseline.

Every sensitivity study in the evaluation is a re-costing of the same
profile under a different :class:`CapstanPlatform`. The paper harnesses
(all but Figures 5a/5c) and design-space sweeps go through
:func:`estimate_cycles_batch`, which stacks profile fields into numpy
arrays and costs the whole (profile x platform) matrix in vectorized
passes. :func:`estimate_cycles` costs one pair in scalar Python; it is
the oracle the batch is pinned against, bit for bit, and what
:func:`run_metrics` calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._budget import iter_chunked, plan_chunks, resolve_memory_budget
from ..config import CLOCK_GHZ, CapstanConfig, MemoryTechnology, ShuffleMode
from ..core.allocator import ALLOCATOR_KINDS
from ..core.ordering import OrderingMode
from ..core.spmu import SpMUVariant, effective_bank_throughput_batch
from ..core.shuffle import merge_efficiency
from ..sim.dram import (
    BURST_BYTES,
    RANDOM_ACCESS_EFFICIENCY,
    STREAM_ACCESS_EFFICIENCY,
    DRAMModel,
    TrafficSummary,
)
from ..sim.network import OnChipNetwork
from ..sim.stats import STALL_CATEGORIES, RunMetrics, StallBreakdown
from .profile import WorkloadProfile

#: Every platform allocator: the SpMU allocator kinds plus Table 9's
#: arbitrated baseline.
PLATFORM_ALLOCATORS = ALLOCATOR_KINDS + ("arbitrated",)


@dataclass(frozen=True)
class CapstanPlatform:
    """One Capstan configuration to cost a workload on.

    Attributes:
        config: The architecture configuration (grid, memory technology,
            scanner, SpMU, shuffle mode).
        ordering: SpMU memory ordering mode (Table 10).
        bank_mapping: ``"hash"`` or ``"linear"`` (Table 9).
        allocator: ``"separable"``, ``"greedy"``, or ``"arbitrated"``
            (Table 9's Alloc / Weak Alloc / Arb columns).
        ideal_sram: Model bank-conflict-free SRAM (Table 9's Ideal column).
        ideal_network: Remove all network costs (Table 12's ideal row).
        ideal_memory: Remove DRAM bandwidth limits (Table 12's ideal row).
        name: Label used in reports.
    """

    config: CapstanConfig = field(default_factory=CapstanConfig)
    ordering: OrderingMode = OrderingMode.UNORDERED
    bank_mapping: str = "hash"
    allocator: str = "separable"
    ideal_sram: bool = False
    ideal_network: bool = False
    ideal_memory: bool = False
    name: str = "capstan-hbm2e"


def default_platform(memory: MemoryTechnology = MemoryTechnology.HBM2E) -> CapstanPlatform:
    """The paper's evaluated Capstan design point with the given memory."""
    return CapstanPlatform(config=CapstanConfig(memory=memory), name=f"capstan-{memory.value}")


def ideal_platform() -> CapstanPlatform:
    """Capstan with an ideal network and memory (Table 12, first row)."""
    return CapstanPlatform(
        config=CapstanConfig(memory=MemoryTechnology.IDEAL),
        ideal_sram=True,
        ideal_network=True,
        ideal_memory=True,
        name="capstan-ideal",
    )


#: Merge-efficiency cache keyed by (shuffle mode, lanes, rounded cross
#: fraction).
_MERGE_EFFICIENCY_CACHE: dict = {}

#: Request slots sampled by the merge-efficiency microbenchmark; the vector
#: count is derived from this so wider machines measure the same traffic.
_MERGE_CALIBRATION_SLOTS = 384


def _shuffle_efficiency(shuffle: ShuffleMode, lanes: int, cross_fraction: float) -> float:
    """Delivered-slot efficiency of the shuffle network for a traffic mix."""
    if shuffle is ShuffleMode.NONE:
        # Without a shuffle network every cross-partition request is a
        # scalar transfer; efficiency collapses towards 1/lanes for
        # cross-heavy traffic.
        return max(1.0 / lanes, 1.0 - cross_fraction * ((lanes - 1.0) / lanes))
    key = (shuffle, lanes, round(min(max(cross_fraction, 0.0), 1.0), 2))
    cached = _MERGE_EFFICIENCY_CACHE.get(key)
    if cached is None:
        cached = merge_efficiency(
            shuffle,
            cross_partition_fraction=key[2],
            lanes=lanes,
            vectors=max(8, _MERGE_CALIBRATION_SLOTS // lanes),
        )
        _MERGE_EFFICIENCY_CACHE[key] = cached
    return max(cached, 1.0 / lanes)


#: Reused analytic models, keyed by their structural parameters. Both are
#: stateless, so sharing one instance across estimates cannot change any
#: result -- it only removes per-call construction from sweeps.
_NETWORK_CACHE: Dict[int, OnChipNetwork] = {}
_DRAM_CACHE: Dict[MemoryTechnology, DRAMModel] = {}


def _network_for(units: int) -> OnChipNetwork:
    """The on-chip network model for a mapping using ``units`` CU/SpMU pairs."""
    grid_width = max(2, int(round(units**0.5)))
    network = _NETWORK_CACHE.get(grid_width)
    if network is None:
        network = OnChipNetwork(grid_width)
        _NETWORK_CACHE[grid_width] = network
    return network


def _dram_for(memory: MemoryTechnology) -> DRAMModel:
    """The DRAM model for one technology."""
    dram = _DRAM_CACHE.get(memory)
    if dram is None:
        dram = DRAMModel(memory)
        _DRAM_CACHE[memory] = dram
    return dram


def platform_throughput_variant(platform: CapstanPlatform) -> SpMUVariant:
    """The SpMU microbenchmark point that calibrates one platform's SRAM.

    Encodes the Table 9 column semantics: the ``"arbitrated"`` allocator
    column is modelled as the arbitrated ordering mode, and any
    non-separable allocator maps to the weak greedy allocator.
    """
    allocator_kind = "separable" if platform.allocator == "separable" else "greedy"
    if platform.allocator == "arbitrated":
        ordering_for_tput = OrderingMode.ARBITRATED
    else:
        ordering_for_tput = platform.ordering
    return SpMUVariant(
        ordering=ordering_for_tput,
        bank_mapping=platform.bank_mapping,
        allocator_kind=allocator_kind,
        config=platform.config.spmu,
        lanes=platform.config.lanes,
    )


def _platform_throughput(platform: CapstanPlatform) -> float:
    """Calibrated SpMU request throughput for one platform (Table 9 inputs)."""
    [throughput] = effective_bank_throughput_batch([platform_throughput_variant(platform)])
    return max(float(throughput), 1.0)


def estimate_cycles(
    profile: WorkloadProfile, platform: Optional[CapstanPlatform] = None
) -> Tuple[float, StallBreakdown]:
    """Estimate end-to-end cycles and the stall breakdown for one run.

    Args:
        profile: The application's platform-independent execution profile.
        platform: The Capstan configuration to cost it on (defaults to the
            paper's HBM2E design point).

    Returns:
        ``(cycles, breakdown)`` where ``breakdown.total_cycles == cycles``.
    """
    platform = platform or default_platform()
    config = platform.config
    lanes = config.lanes
    units = max(1, min(config.compute_units, profile.outer_parallelism))
    breakdown = StallBreakdown()

    # --- Active: lane-work on a perfectly utilized machine. ---------------- #
    breakdown.active = profile.compute_iterations / (lanes * units)

    # --- Vector length: slots issued minus useful lane-work. ---------------- #
    slot_cycles = profile.vector_slots / units
    breakdown.vector_length = max(0.0, slot_cycles - breakdown.active)

    # --- Scan: scanner overhead beyond what the loop bodies hide. ---------- #
    scan_cycles = profile.scan_cycles / units
    scan_hidden = min(scan_cycles, slot_cycles)
    breakdown.scan = (profile.scan_empty_cycles / units) + max(0.0, scan_cycles - scan_hidden)

    # --- Load/Store: moving data through the datapath with ideal DRAM. ----- #
    streamed_words = profile.total_stream_bytes / 4.0
    breakdown.load_store = streamed_words / (lanes * units)

    # --- Imbalance: uneven tiles stretch the critical path. ---------------- #
    balanced = breakdown.active + breakdown.vector_length + breakdown.scan
    breakdown.imbalance = balanced * profile.imbalance_fraction

    # --- Network: round trips + shuffle serialization of cross-tile traffic. #
    if not platform.ideal_network:
        network = _network_for(units)
        round_trip = network.round_trip_cycles(profile.sequential_rounds)
        cross_requests = profile.cross_tile_request_fraction * profile.sram_random_accesses
        efficiency = _shuffle_efficiency(
            config.shuffle, lanes, profile.cross_tile_request_fraction
        )
        shuffle_cycles = cross_requests / (lanes * units) * (1.0 / efficiency - 1.0)
        pipeline_penalty = 0.0
        if not profile.pipelinable:
            # Un-pipelinable outer iterations also pay the per-iteration
            # pipeline fill latency.
            pipeline_penalty = profile.sequential_rounds * network.average_latency_cycles
        breakdown.network = round_trip + shuffle_cycles + pipeline_penalty

    # --- SRAM: bank conflicts beyond the conflict-free ideal. --------------- #
    banks = config.spmu.banks
    ideal_sram_cycles = profile.sram_random_accesses / (banks * units)
    if platform.ideal_sram:
        sram_cycles = ideal_sram_cycles
    else:
        throughput = _platform_throughput(platform)
        normal_fraction = 1.0 - (
            profile.strided_fraction if platform.bank_mapping == "linear" else 0.0
        )
        strided_fraction = 1.0 - normal_fraction
        accesses = profile.sram_random_accesses
        sram_cycles = (accesses * normal_fraction) / (throughput * units)
        # Power-of-two strides under linear mapping serialize onto one bank.
        sram_cycles += (accesses * strided_fraction) / (1.0 * units)
    breakdown.sram = max(0.0, sram_cycles - min(ideal_sram_cycles, breakdown.active))

    # --- DRAM: bandwidth-limited traffic beyond the ideal-DRAM baseline. ---- #
    if not platform.ideal_memory:
        dram = _dram_for(config.memory)
        traffic = TrafficSummary(
            streaming_read_bytes=profile.compressed_stream_read_bytes,
            streaming_write_bytes=profile.dram_stream_write_bytes,
            random_accesses=profile.dram_random_reads + 2 * profile.dram_random_updates,
        )
        dram_cycles = dram.traffic_cycles(traffic)
        breakdown.dram = max(0.0, dram_cycles - breakdown.load_store)

    return breakdown.total_cycles, breakdown


@dataclass
class BatchCostResult:
    """Vectorized costing of a (profile x platform) grid.

    Attributes:
        cycles: End-to-end cycle estimates, shape
            ``(len(profiles), len(platforms))``; ``cycles[i, j]`` equals
            ``estimate_cycles(profiles[i], platforms[j])[0]`` exactly.
        categories: One array per :data:`~repro.sim.stats.STALL_CATEGORIES`
            entry, each the same shape as ``cycles``.
        energy_mj: Per-cell energy in millijoules (same shape as
            ``cycles``) when the grid was costed with ``energy=True``;
            ``energy_mj[i, j]`` equals
            ``estimate_energy(profiles[i], platforms[j])[0]`` exactly.
            ``None`` otherwise.
        energy_categories: One array per
            :data:`~repro.core.energy.ENERGY_CATEGORIES` entry when
            ``energy=True``, else ``None``.
    """

    cycles: np.ndarray
    categories: Dict[str, np.ndarray]
    energy_mj: Optional[np.ndarray] = None
    energy_categories: Optional[Dict[str, np.ndarray]] = None

    def breakdown(self, profile_index: int, platform_index: int) -> StallBreakdown:
        """The :class:`StallBreakdown` of one grid cell."""
        return StallBreakdown(
            **{
                name: float(self.categories[name][profile_index, platform_index])
                for name in STALL_CATEGORIES
            }
        )


#: Cost-model constant for the budget planner: rough ``float64`` working-set
#: bytes the batched costing model allocates per (profile, platform) grid
#: cell (a few dozen per-pair temporaries plus the result categories).
COSTING_BYTES_PER_CELL = 8 * 40


def _estimate_cycles_batch_columns(
    profiles: Sequence[WorkloadProfile],
    platforms: Sequence[CapstanPlatform],
    energy: bool = False,
) -> BatchCostResult:
    """One unchunked costing pass over a (profile x platform) grid.

    Every term is computed column by column from per-platform scalars
    broadcast against per-profile columns -- no cross-platform reductions
    exist -- so a platform-axis chunk of this pass is bit-identical to the
    corresponding columns of the full pass. That property is what lets
    :func:`iter_cycles_batches` stream a grid under a memory budget.
    """
    platforms = [p or default_platform() for p in platforms]
    n_profiles, n_platforms = len(profiles), len(platforms)
    if n_profiles == 0 or n_platforms == 0:
        empty = {name: np.zeros((n_profiles, n_platforms)) for name in STALL_CATEGORIES}
        result = BatchCostResult(cycles=np.zeros((n_profiles, n_platforms)), categories=empty)
        if energy:
            from ..core.energy import estimate_energy_batch

            energies = estimate_energy_batch(profiles, platforms, result.cycles)
            result.energy_mj = energies.total
            result.energy_categories = energies.categories
        return result

    # --- Stack profile fields into (P, 1) columns. Derived per-profile ------ #
    # scalars use the same Python expressions as the scalar model so their
    # rounding is identical.
    def fcol(values) -> np.ndarray:
        return np.array(values, dtype=np.float64).reshape(n_profiles, 1)

    def icol(values) -> np.ndarray:
        return np.array(values, dtype=np.int64).reshape(n_profiles, 1)

    compute_iterations = icol([p.compute_iterations for p in profiles])
    vector_slots = icol([p.vector_slots for p in profiles])
    scan_busy_cycles = icol([p.scan_cycles for p in profiles])
    scan_empty_cycles = icol([p.scan_empty_cycles for p in profiles])
    streamed_words = fcol([p.total_stream_bytes / 4.0 for p in profiles])
    imbalance_fraction = fcol([p.imbalance_fraction for p in profiles])
    outer_parallelism = icol([p.outer_parallelism for p in profiles])
    sram_accesses = icol([p.sram_random_accesses for p in profiles])
    strided_fraction = fcol([p.strided_fraction for p in profiles])
    cross_requests = fcol(
        [p.cross_tile_request_fraction * p.sram_random_accesses for p in profiles]
    )
    sequential_rounds = icol([p.sequential_rounds for p in profiles])
    pipelinable = np.array([p.pipelinable for p in profiles], dtype=bool).reshape(
        n_profiles, 1
    )
    stream_read_bytes = fcol([p.compressed_stream_read_bytes for p in profiles])
    stream_write_bytes = fcol([p.dram_stream_write_bytes for p in profiles])
    dram_accesses = icol(
        [p.dram_random_reads + 2 * p.dram_random_updates for p in profiles]
    )

    # --- Stack platform fields into (1, Q) rows. ---------------------------- #
    def frow(values) -> np.ndarray:
        return np.array(values, dtype=np.float64).reshape(1, n_platforms)

    def irow(values) -> np.ndarray:
        return np.array(values, dtype=np.int64).reshape(1, n_platforms)

    def brow(values) -> np.ndarray:
        return np.array(values, dtype=bool).reshape(1, n_platforms)

    lanes = irow([p.config.lanes for p in platforms])
    compute_units = irow([p.config.compute_units for p in platforms])
    banks = irow([p.config.spmu.banks for p in platforms])
    ideal_network = brow([p.ideal_network for p in platforms])
    ideal_sram = brow([p.ideal_sram for p in platforms])
    ideal_memory = brow([p.ideal_memory for p in platforms])
    linear_mapping = brow([p.bank_mapping == "linear" for p in platforms])
    # Calibrated SpMU throughput per platform (1.0 placeholder when the
    # scalar model would never consult it), resolved in one batched call so
    # a cold sweep simulates all of its SpMU variants in a single lock-step
    # pass and one ThroughputStore transaction.
    needs_throughput = [not p.ideal_sram for p in platforms]
    throughput_values = np.ones(n_platforms)
    if any(needs_throughput):
        batched = effective_bank_throughput_batch(
            [platform_throughput_variant(p) for p, need in zip(platforms, needs_throughput) if need]
        )
        throughput_values[needs_throughput] = np.maximum(batched, 1.0)
    throughput = throughput_values.reshape(1, n_platforms)
    # DRAM denominators: the scalar model divides by (peak * efficiency).
    drams = [_dram_for(p.config.memory) for p in platforms]
    stream_denominator = frow(
        [
            d.bytes_per_cycle_peak * STREAM_ACCESS_EFFICIENCY[d.technology]
            for d in drams
        ]
    )
    random_denominator = frow(
        [
            d.bytes_per_cycle_peak * RANDOM_ACCESS_EFFICIENCY[d.technology]
            for d in drams
        ]
    )

    # --- Per-pair matrices, mirroring the scalar model step for step. ------- #
    units = np.maximum(1, np.minimum(compute_units, outer_parallelism))
    lane_units = lanes * units

    active = compute_iterations / lane_units

    slot_cycles = vector_slots / units
    vector_length = np.maximum(0.0, slot_cycles - active)

    scan_busy = scan_busy_cycles / units
    scan_hidden = np.minimum(scan_busy, slot_cycles)
    scan = scan_empty_cycles / units + np.maximum(0.0, scan_busy - scan_hidden)

    load_store = streamed_words / lane_units

    balanced = active + vector_length + scan
    imbalance = balanced * imbalance_fraction

    # Network: the average latency depends on the per-pair unit count; the
    # lookup goes through the same memoized models as the scalar path.
    unique_units = np.unique(units)
    latency_lut = np.array(
        [_network_for(int(u)).average_latency_cycles for u in unique_units]
    )
    average_latency = latency_lut[np.searchsorted(unique_units, units)]
    round_trip = (sequential_rounds * 2.0) * average_latency
    efficiency = np.ones((n_profiles, n_platforms))
    efficiency_columns: Dict[Tuple[ShuffleMode, int], np.ndarray] = {}
    for j, platform in enumerate(platforms):
        if platform.ideal_network:
            continue
        shuffle_key = (platform.config.shuffle, platform.config.lanes)
        column = efficiency_columns.get(shuffle_key)
        if column is None:
            column = np.array(
                [
                    _shuffle_efficiency(
                        shuffle_key[0], shuffle_key[1], p.cross_tile_request_fraction
                    )
                    for p in profiles
                ]
            )
            efficiency_columns[shuffle_key] = column
        efficiency[:, j] = column
    shuffle_cycles = cross_requests / lane_units * (1.0 / efficiency - 1.0)
    pipeline_penalty = np.where(pipelinable, 0.0, sequential_rounds * average_latency)
    network = np.where(ideal_network, 0.0, round_trip + shuffle_cycles + pipeline_penalty)

    # SRAM: bank conflicts beyond the conflict-free ideal.
    ideal_sram_cycles = sram_accesses / (banks * units)
    normal_fraction = np.where(linear_mapping, 1.0 - strided_fraction, 1.0)
    strided_used = 1.0 - normal_fraction
    conflicted = (sram_accesses * normal_fraction) / (throughput * units) + (
        sram_accesses * strided_used
    ) / (1.0 * units)
    sram_cycles = np.where(ideal_sram, ideal_sram_cycles, conflicted)
    sram = np.maximum(0.0, sram_cycles - np.minimum(ideal_sram_cycles, active))

    # DRAM: bandwidth-limited traffic beyond the ideal-DRAM baseline.
    streaming_cycles = (stream_read_bytes + stream_write_bytes) / stream_denominator
    random_cycles = (dram_accesses * BURST_BYTES) / random_denominator
    dram_cycles = streaming_cycles + random_cycles
    dram = np.where(ideal_memory, 0.0, np.maximum(0.0, dram_cycles - load_store))

    categories = {
        "active": active,
        "scan": scan,
        "load_store": load_store,
        "vector_length": vector_length,
        "imbalance": imbalance,
        "network": network,
        "sram": sram,
        "dram": dram,
    }
    # Total in STALL_CATEGORIES order, matching StallBreakdown.total_cycles.
    cycles = np.zeros((n_profiles, n_platforms))
    for name in STALL_CATEGORIES:
        cycles = cycles + categories[name]
    result = BatchCostResult(cycles=cycles, categories=categories)
    if energy:
        # The energy batch is column-independent like the costing batch,
        # so attaching it here keeps chunked passes bit-identical too.
        from ..core.energy import estimate_energy_batch

        energies = estimate_energy_batch(profiles, platforms, cycles)
        result.energy_mj = energies.total
        result.energy_categories = energies.categories
    return result


def iter_cycles_batches(
    profiles: Iterable[WorkloadProfile],
    platforms: Iterable[CapstanPlatform],
    *,
    memory_budget: Union[int, str, None] = None,
    energy: bool = False,
) -> Iterator[Tuple[List[CapstanPlatform], BatchCostResult]]:
    """Stream a costing grid as (platform chunk, chunk result) pairs.

    The platform axis is cut into chunks sized so one chunk's working set
    (:data:`COSTING_BYTES_PER_CELL` per cell) fits the memory budget; each
    chunk's :class:`BatchCostResult` is bit-identical to the corresponding
    columns of the unchunked grid. ``platforms`` may be any iterable
    (including a generator) and is consumed one chunk at a time; profiles
    are materialized once (they are the small axis).
    """
    profiles = list(profiles)
    budget = resolve_memory_budget(memory_budget)
    if budget is None:
        chunk = list(platforms)
        yield chunk, _estimate_cycles_batch_columns(profiles, chunk, energy=energy)
        return
    per_platform = max(len(profiles), 1) * COSTING_BYTES_PER_CELL
    for chunk in iter_chunked(platforms, plan_chunks(0, per_platform, budget).chunk_items):
        yield chunk, _estimate_cycles_batch_columns(profiles, chunk, energy=energy)


def estimate_cycles_batch(
    profiles: Iterable[WorkloadProfile],
    platforms: Iterable[CapstanPlatform],
    *,
    memory_budget: Union[int, str, None] = None,
    energy: bool = False,
) -> BatchCostResult:
    """Cost every (profile, platform) pair of a grid in vectorized passes.

    Produces exactly the numbers :func:`estimate_cycles` produces cell by
    cell -- every arithmetic step mirrors the scalar model's operation
    order, and the calibrated sub-models (SpMU throughput, merge
    efficiency, network latency, DRAM parameters) are resolved through the
    same caches -- but stacks the profile fields into numpy arrays so a
    design-space sweep pays Python overhead once per grid instead of once
    per pair. One :class:`~repro.sim.network.OnChipNetwork` /
    :class:`~repro.sim.dram.DRAMModel` instance is reused per distinct
    configuration instead of being rebuilt per call.

    Args:
        profiles: Application profiles (grid rows); any iterable.
        platforms: Capstan configurations to cost them on (grid columns);
            any iterable, consumed lazily when chunking.
        memory_budget: Byte budget for the costing temporaries; the
            platform axis is streamed in budget-sized chunks and the chunk
            columns concatenated (bit-identical to the unchunked pass).
            ``None`` defers to ``REPRO_MEMORY_BUDGET``.
        energy: Also cost per-cell energy through
            :func:`~repro.core.energy.estimate_energy_batch` (attached as
            ``energy_mj`` / ``energy_categories``).

    Returns:
        A :class:`BatchCostResult` with per-cell cycles and stall categories.
    """
    profiles = list(profiles)
    if resolve_memory_budget(memory_budget) is None:
        return _estimate_cycles_batch_columns(profiles, list(platforms), energy=energy)
    parts = [
        result
        for _chunk, result in iter_cycles_batches(
            profiles,
            platforms,
            memory_budget=memory_budget,
            energy=energy,
        )
    ]
    if not parts:
        return _estimate_cycles_batch_columns(profiles, [], energy=energy)
    return merge_batches(parts)


def merge_batches(parts: Sequence[BatchCostResult]) -> BatchCostResult:
    """Concatenate the column chunks of one grid back into a single result.

    ``parts`` are consecutive platform-axis chunks over the same profiles,
    as :func:`iter_cycles_batches` yields them; energy is merged when the
    chunks carry it. A single chunk is returned as is (no copy).
    """
    if len(parts) == 1:
        return parts[0]
    merged = BatchCostResult(
        cycles=np.concatenate([part.cycles for part in parts], axis=1),
        categories={
            name: np.concatenate([part.categories[name] for part in parts], axis=1)
            for name in STALL_CATEGORIES
        },
    )
    if parts[0].energy_mj is not None:
        from ..core.energy import ENERGY_CATEGORIES

        merged.energy_mj = np.concatenate([part.energy_mj for part in parts], axis=1)
        merged.energy_categories = {
            name: np.concatenate([part.energy_categories[name] for part in parts], axis=1)
            for name in ENERGY_CATEGORIES
        }
    return merged


def run_metrics(
    profile: WorkloadProfile, platform: Optional[CapstanPlatform] = None
) -> RunMetrics:
    """Estimate cycles and wrap them in a :class:`RunMetrics` record."""
    platform = platform or default_platform()
    cycles, breakdown = estimate_cycles(profile, platform)
    return RunMetrics(
        app=profile.app,
        dataset=profile.dataset,
        platform=platform.name,
        cycles=cycles,
        clock_ghz=CLOCK_GHZ,
        breakdown=breakdown,
        extra=dict(profile.extra),
    )
