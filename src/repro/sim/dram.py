"""Off-chip DRAM timing model (the Ramulator substitute).

The paper uses Ramulator behind 80 address generators; the applications it
studies are dominated by bandwidth, not detailed bank timing, so this model
captures the first-order effects:

* peak bandwidth per technology (DDR4-2133, HBM2, HBM2E, ideal);
* burst (64 B) granularity -- a random 4 B access still moves a whole burst;
* reduced efficiency for random versus streaming traffic (row-buffer
  locality), calibrated so random-access bandwidth lands near the commonly
  measured ~60% (HBM) / ~40% (DDR4) of peak;
* read-modify-write traffic counting both the read and the write-back
  (the caller counts an update as two random accesses).

Read-side compression (Section 3.4) shrinks the streamed bytes before they
reach this model (``WorkloadProfile.compressed_stream_read_bytes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import CLOCK_GHZ, MEMORY_BANDWIDTH_GBPS, MemoryTechnology
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
        random_accesses: Number of individual random element accesses; each
            moves a whole burst.
    """

    streaming_read_bytes: float = 0.0
    streaming_write_bytes: float = 0.0
    random_accesses: int = 0


class DRAMModel:
    """Bandwidth model of one memory technology.

    Args:
        technology: Which off-chip memory to model.
        bandwidth_gbps: Override the peak bandwidth (used by the Figure 5a
            bandwidth sweep); defaults to the technology's peak.

    Time converts into cycles of the accelerator clock, :data:`CLOCK_GHZ`.
    """

    def __init__(
        self,
        technology: MemoryTechnology = MemoryTechnology.HBM2E,
        bandwidth_gbps: Optional[float] = None,
    ):
        self._technology = technology
        self._peak_gbps = (
            bandwidth_gbps if bandwidth_gbps is not None else MEMORY_BANDWIDTH_GBPS[technology]
        )
        if self._peak_gbps <= 0:
            raise SimulationError("bandwidth must be positive")

    @property
    def technology(self) -> MemoryTechnology:
        """The modelled memory technology."""
        return self._technology

    @property
    def bytes_per_cycle_peak(self) -> float:
        """Peak bytes transferred per accelerator cycle."""
        if self._peak_gbps == float("inf"):
            return float("inf")
        return self._peak_gbps / CLOCK_GHZ

    def streaming_cycles(self, data_bytes: float) -> float:
        """Cycles to stream ``data_bytes`` sequentially."""
        if data_bytes < 0:
            raise SimulationError("bytes must be non-negative")
        peak = self.bytes_per_cycle_peak
        if peak == float("inf"):
            return 0.0
        efficiency = STREAM_ACCESS_EFFICIENCY[self._technology]
        return data_bytes / (peak * efficiency)

    def traffic_cycles(self, traffic: TrafficSummary) -> float:
        """Cycles to move a whole :class:`TrafficSummary`.

        Streaming and random components share the same channel, so their
        cycle costs add.
        """
        streaming = self.streaming_cycles(
            traffic.streaming_read_bytes + traffic.streaming_write_bytes
        )
        peak = self.bytes_per_cycle_peak
        if peak == float("inf"):
            return streaming
        # Each random access moves a whole 64 B burst regardless of the
        # element size (one burst per access, no coalescing).
        random_bytes = traffic.random_accesses * BURST_BYTES
        return streaming + random_bytes / (peak * RANDOM_ACCESS_EFFICIENCY[self._technology])
