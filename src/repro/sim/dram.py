"""Off-chip DRAM timing model (the Ramulator substitute).

The paper uses Ramulator behind 80 address generators; the applications it
studies are dominated by bandwidth, not detailed bank timing, so this model
captures the first-order effects:

* peak bandwidth and latency per technology (DDR4-2133, HBM2, HBM2E, ideal);
* burst (64 B) granularity -- a random 4 B access still moves a whole burst;
* reduced efficiency for random versus streaming traffic (row-buffer
  locality), calibrated so random-access bandwidth lands near the commonly
  measured ~60% (HBM) / ~40% (DDR4) of peak;
* read-modify-write traffic counting both the read and the write-back; and
* optional read-side compression (Section 3.4), which shrinks the bytes
  moved for compressible pointer streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import MEMORY_BANDWIDTH_GBPS, MEMORY_LATENCY_NS, MemoryTechnology
from ..errors import SimulationError

#: DRAM burst size in bytes (Section 4.1: AGs send burst-level 64 B requests).
BURST_BYTES = 64

#: Fraction of peak bandwidth achievable by purely random burst traffic.
RANDOM_ACCESS_EFFICIENCY = {
    MemoryTechnology.DDR4: 0.40,
    MemoryTechnology.HBM2: 0.60,
    MemoryTechnology.HBM2E: 0.60,
    MemoryTechnology.IDEAL: 1.0,
}

#: Fraction of peak bandwidth achievable by streaming (sequential) traffic.
STREAM_ACCESS_EFFICIENCY = {
    MemoryTechnology.DDR4: 0.85,
    MemoryTechnology.HBM2: 0.90,
    MemoryTechnology.HBM2E: 0.90,
    MemoryTechnology.IDEAL: 1.0,
}


@dataclass(frozen=True)
class TrafficSummary:
    """Bytes an application moves to and from DRAM, split by access pattern.

    Attributes:
        streaming_read_bytes: Sequentially read bytes (tile loads, pointer
            streams).
        streaming_write_bytes: Sequentially written bytes (result stores).
        random_read_bytes: Randomly read bytes, already inflated to burst
            granularity by the caller or counted per element.
        random_write_bytes: Randomly written bytes (atomic update
            write-backs).
        random_accesses: Number of individual random element accesses (used
            for burst-granularity inflation when byte counts are per
            element).
    """

    streaming_read_bytes: float = 0.0
    streaming_write_bytes: float = 0.0
    random_read_bytes: float = 0.0
    random_write_bytes: float = 0.0
    random_accesses: int = 0

    def scaled(self, factor: float) -> "TrafficSummary":
        """Return the same traffic scaled by ``factor`` (e.g. compression)."""
        return TrafficSummary(
            streaming_read_bytes=self.streaming_read_bytes * factor,
            streaming_write_bytes=self.streaming_write_bytes * factor,
            random_read_bytes=self.random_read_bytes * factor,
            random_write_bytes=self.random_write_bytes * factor,
            random_accesses=self.random_accesses,
        )


class DRAMModel:
    """Bandwidth/latency model of one memory technology.

    Args:
        technology: Which off-chip memory to model.
        bandwidth_gbps: Override the peak bandwidth (used by the Figure 5a
            bandwidth sweep); defaults to the technology's peak.
        clock_ghz: Accelerator clock used to convert time into cycles.
    """

    def __init__(
        self,
        technology: MemoryTechnology = MemoryTechnology.HBM2E,
        bandwidth_gbps: Optional[float] = None,
        clock_ghz: float = 1.6,
    ):
        if clock_ghz <= 0:
            raise SimulationError("clock_ghz must be positive")
        self._technology = technology
        self._peak_gbps = (
            bandwidth_gbps if bandwidth_gbps is not None else MEMORY_BANDWIDTH_GBPS[technology]
        )
        if self._peak_gbps <= 0:
            raise SimulationError("bandwidth must be positive")
        self._latency_ns = MEMORY_LATENCY_NS[technology]
        self._clock_ghz = clock_ghz

    @property
    def technology(self) -> MemoryTechnology:
        """The modelled memory technology."""
        return self._technology

    @property
    def bytes_per_cycle_peak(self) -> float:
        """Peak bytes transferred per accelerator cycle."""
        if self._peak_gbps == float("inf"):
            return float("inf")
        return self._peak_gbps / self._clock_ghz

    def streaming_cycles(self, data_bytes: float) -> float:
        """Cycles to stream ``data_bytes`` sequentially."""
        if data_bytes < 0:
            raise SimulationError("bytes must be non-negative")
        peak = self.bytes_per_cycle_peak
        if peak == float("inf"):
            return 0.0
        efficiency = STREAM_ACCESS_EFFICIENCY[self._technology]
        return data_bytes / (peak * efficiency)

    def random_cycles(self, accesses: int, bytes_per_access: int = 4) -> float:
        """Cycles for ``accesses`` random element accesses.

        Each random access moves a whole 64 B burst regardless of the
        element size, and achieves only the random-access efficiency of the
        technology. A read-modify-write access should be counted as two
        accesses (read burst + write-back burst) by the caller, or via
        :meth:`rmw_cycles`.
        """
        if accesses < 0:
            raise SimulationError("accesses must be non-negative")
        peak = self.bytes_per_cycle_peak
        if peak == float("inf"):
            return 0.0
        efficiency = RANDOM_ACCESS_EFFICIENCY[self._technology]
        bursts = accesses  # one burst per access (worst case, no coalescing)
        return bursts * BURST_BYTES / (peak * efficiency)

    def rmw_cycles(self, updates: int) -> float:
        """Cycles for ``updates`` random read-modify-write element updates."""
        return self.random_cycles(2 * updates)

    def traffic_cycles(self, traffic: TrafficSummary) -> float:
        """Cycles to move a whole :class:`TrafficSummary`.

        Streaming and random components share the same channel, so their
        cycle costs add.
        """
        streaming = self.streaming_cycles(
            traffic.streaming_read_bytes + traffic.streaming_write_bytes
        )
        random_bytes = traffic.random_read_bytes + traffic.random_write_bytes
        if traffic.random_accesses:
            random = self.random_cycles(traffic.random_accesses)
        else:
            peak = self.bytes_per_cycle_peak
            if peak == float("inf"):
                random = 0.0
            else:
                efficiency = RANDOM_ACCESS_EFFICIENCY[self._technology]
                random = random_bytes / (peak * efficiency)
        return streaming + random

    def with_bandwidth(self, bandwidth_gbps: float) -> "DRAMModel":
        """A copy of this model with a different peak bandwidth."""
        return DRAMModel(self._technology, bandwidth_gbps, self._clock_ghz)
