"""Workload profiles: what an application run did, independent of timing.

Every application in :mod:`repro.apps` executes functionally (producing a
numerically verifiable result) while counting the quantities the paper's
performance analysis depends on: useful loop-body iterations, scanner
activity, random on-chip accesses, atomic DRAM updates, streaming DRAM
traffic, per-tile work distribution, and cross-tile communication. The
resulting :class:`WorkloadProfile` is the single interface between the
applications and the platform timing models (Capstan, Plasticine, CPU,
GPU), so one functional run can be re-costed on every platform and under
every sensitivity-study variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .scan_model import ScanCost


@dataclass
class WorkloadProfile:
    """Platform-independent execution profile of one application run.

    Attributes:
        app: Application name (e.g. ``"spmv-csr"``).
        dataset: Dataset name.
        compute_iterations: Useful innermost loop-body iterations (the
            lane-work the Active category counts).
        vector_slots: Vectorized issue slots consumed at 16 lanes, i.e.
            ``sum(ceil(trip / 16))`` over innermost loop instances.
        scan_cycles: Scanner-busy cycles under the default scanner
            configuration (or ``configs[0]`` inside
            :func:`~repro.apps.scan_model.record_scans`).
        scan_empty_cycles: Scanner cycles spent on all-zero chunks.
        scan_elements: Elements emitted by scanners.
        sram_random_reads: Random on-chip reads (element granularity).
        sram_random_updates: Random on-chip read-modify-writes.
        strided_fraction: Fraction of on-chip random accesses that follow a
            power-of-two stride (pathological for linear bank mapping).
        dram_random_reads: Random DRAM element reads (gathers).
        dram_random_updates: Atomic DRAM element updates.
        dram_stream_read_bytes: Sequentially streamed DRAM read bytes.
        dram_stream_write_bytes: Sequentially streamed DRAM write bytes.
        pointer_stream_bytes: Subset of the streamed read bytes that is
            compressible pointer data.
        pointer_compression_ratio: Measured base/offset compression ratio
            for those pointer bytes.
        tile_work: Relative work per outer-parallel tile (imbalance source).
        cross_tile_request_fraction: Fraction of random on-chip accesses
            that target a different tile than the one issuing them.
        sequential_rounds: Un-pipelinable global iterations (BFS levels,
            SSSP rounds, solver iterations) that pay network round trips.
        pipelinable: Whether successive outer iterations can be pipelined.
        outer_parallelism: Number of CU/SpMU pairs the mapping uses.
        extra: Free-form per-app metrics (for reports and tests).
    """

    app: str
    dataset: str
    compute_iterations: int = 0
    vector_slots: int = 0
    scan_cycles: int = 0
    scan_empty_cycles: int = 0
    scan_elements: int = 0
    sram_random_reads: int = 0
    sram_random_updates: int = 0
    strided_fraction: float = 0.0
    dram_random_reads: int = 0
    dram_random_updates: int = 0
    dram_stream_read_bytes: float = 0.0
    dram_stream_write_bytes: float = 0.0
    pointer_stream_bytes: float = 0.0
    pointer_compression_ratio: float = 1.0
    tile_work: List[float] = field(default_factory=list)
    cross_tile_request_fraction: float = 0.0
    sequential_rounds: int = 0
    pipelinable: bool = True
    outer_parallelism: int = 16
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def sram_random_accesses(self) -> int:
        """All random on-chip accesses (reads plus updates)."""
        return self.sram_random_reads + self.sram_random_updates

    @property
    def dram_random_accesses(self) -> int:
        """All random DRAM element accesses (reads plus updates)."""
        return self.dram_random_reads + self.dram_random_updates

    @property
    def total_stream_bytes(self) -> float:
        """All streaming DRAM traffic in bytes."""
        return self.dram_stream_read_bytes + self.dram_stream_write_bytes

    @property
    def compressed_stream_read_bytes(self) -> float:
        """Streamed DRAM read bytes after read-side compression (Section
        3.4) shrinks the pointer stream by its measured ratio."""
        if self.pointer_stream_bytes <= 0:
            return self.dram_stream_read_bytes
        saved = self.pointer_stream_bytes * (1.0 - 1.0 / max(self.pointer_compression_ratio, 1.0))
        return max(0.0, self.dram_stream_read_bytes - saved)

    @property
    def imbalance_fraction(self) -> float:
        """Extra critical-path work from uneven tiles (0 = balanced)."""
        if not self.tile_work:
            return 0.0
        mean = sum(self.tile_work) / len(self.tile_work)
        if mean <= 0:
            return 0.0
        return max(0.0, max(self.tile_work) / mean - 1.0)

    def with_scan(self, cost: "ScanCost") -> "WorkloadProfile":
        """A copy with the scan fields taken from ``cost`` (a re-costed run)."""
        return replace(
            self,
            scan_cycles=cost.cycles,
            scan_empty_cycles=cost.empty_cycles,
            scan_elements=cost.elements,
        )

    def merge(self, other: "WorkloadProfile") -> "WorkloadProfile":
        """Combine two profiles (e.g. phases of a fused kernel).

        Tile work is concatenated per-index (element-wise sum when lengths
        match, otherwise appended), and fractions are recombined weighted by
        their access counts.
        """
        merged_tiles: List[float]
        if len(self.tile_work) == len(other.tile_work) and self.tile_work:
            merged_tiles = [a + b for a, b in zip(self.tile_work, other.tile_work)]
        else:
            merged_tiles = list(self.tile_work) + list(other.tile_work)
        self_random = self.sram_random_accesses
        other_random = other.sram_random_accesses
        total_random = self_random + other_random
        if total_random:
            cross = (
                self.cross_tile_request_fraction * self_random
                + other.cross_tile_request_fraction * other_random
            ) / total_random
            strided = (
                self.strided_fraction * self_random + other.strided_fraction * other_random
            ) / total_random
        else:
            cross = 0.0
            strided = 0.0
        pointer_bytes = self.pointer_stream_bytes + other.pointer_stream_bytes
        if pointer_bytes:
            compression = (
                self.pointer_compression_ratio * self.pointer_stream_bytes
                + other.pointer_compression_ratio * other.pointer_stream_bytes
            ) / pointer_bytes
        else:
            compression = 1.0
        extra = dict(self.extra)
        extra.update(other.extra)
        return WorkloadProfile(
            app=self.app,
            dataset=self.dataset,
            compute_iterations=self.compute_iterations + other.compute_iterations,
            vector_slots=self.vector_slots + other.vector_slots,
            scan_cycles=self.scan_cycles + other.scan_cycles,
            scan_empty_cycles=self.scan_empty_cycles + other.scan_empty_cycles,
            scan_elements=self.scan_elements + other.scan_elements,
            sram_random_reads=self.sram_random_reads + other.sram_random_reads,
            sram_random_updates=self.sram_random_updates + other.sram_random_updates,
            strided_fraction=strided,
            dram_random_reads=self.dram_random_reads + other.dram_random_reads,
            dram_random_updates=self.dram_random_updates + other.dram_random_updates,
            dram_stream_read_bytes=self.dram_stream_read_bytes + other.dram_stream_read_bytes,
            dram_stream_write_bytes=self.dram_stream_write_bytes + other.dram_stream_write_bytes,
            pointer_stream_bytes=pointer_bytes,
            pointer_compression_ratio=compression,
            tile_work=merged_tiles,
            cross_tile_request_fraction=cross,
            sequential_rounds=self.sequential_rounds + other.sequential_rounds,
            pipelinable=self.pipelinable and other.pipelinable,
            outer_parallelism=max(self.outer_parallelism, other.outer_parallelism),
            extra=extra,
        )


def vector_slots_for(trip_counts: List[int], lanes: int = 16) -> int:
    """Vector issue slots for a list of innermost trip counts."""
    slots = 0
    for trip in trip_counts:
        slots += max(1, (trip + lanes - 1) // lanes) if trip else 1
    return slots


def vector_slots_batch(trip_counts, lanes: int = 16) -> int:
    """Batch form of :func:`vector_slots_for` over an integer array.

    Every loop instance consumes at least one issue slot (a zero-trip loop
    still issues), so the per-instance cost is ``max(1, ceil(trip/lanes))``.
    """
    trips = np.asarray(trip_counts, dtype=np.int64)
    if trips.size == 0:
        return 0
    return int(np.maximum(1, (trips + lanes - 1) // lanes).sum())
