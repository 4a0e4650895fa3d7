"""On-chip interconnection network model (Section 4.1).

Capstan's units communicate over a loosely timed hybrid static-dynamic
network with per-link buffering, providing 512-bit vector links and 32-bit
scalar links. The network model captures the effects that matter to the
applications:

* serialization when multiple producers feed one consumer link;
* hop latency between tiles (which matters for un-pipelined iterative
  algorithms such as BFS/SSSP, the "Network" stall source of Figure 7);
* the distinction between streaming (pipelined) and round-trip
  (latency-bound) communication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import SimulationError

#: Bits carried per vector-link flit (512-bit links).
VECTOR_LINK_BITS = 512
#: Bits carried per scalar-link flit (32-bit links).
SCALAR_LINK_BITS = 32


@dataclass(frozen=True)
class NetworkConfig:
    """On-chip network parameters.

    Attributes:
        grid_width: Tiles per row of the checkerboard (20 in the paper).
        hop_latency_cycles: Cycles per router hop, including link traversal.
        link_buffer_depth: Per-link buffer entries (timing slack for the
            SpMU's reordered accesses).
        injection_rate: Flits a tile can inject per cycle.
    """

    grid_width: int = 20
    hop_latency_cycles: int = 2
    link_buffer_depth: int = 4
    injection_rate: float = 1.0

    def validate(self) -> None:
        """Raise :class:`SimulationError` on invalid parameters."""
        if self.grid_width <= 0:
            raise SimulationError("grid_width must be positive")
        if self.hop_latency_cycles <= 0:
            raise SimulationError("hop_latency_cycles must be positive")
        if self.injection_rate <= 0:
            raise SimulationError("injection_rate must be positive")


class OnChipNetwork:
    """Analytic model of the hybrid static-dynamic on-chip network."""

    def __init__(self, config: NetworkConfig | None = None):
        self._config = config or NetworkConfig()
        self._config.validate()

    @property
    def config(self) -> NetworkConfig:
        """The network's parameters."""
        return self._config

    @property
    def average_hops(self) -> float:
        """Average Manhattan distance between two random tiles in the grid."""
        width = self._config.grid_width
        # E|x1-x2| for uniform integers in [0, w) is (w^2 - 1) / (3 w).
        per_axis = (width * width - 1) / (3.0 * width)
        return 2.0 * per_axis

    @property
    def average_latency_cycles(self) -> float:
        """Average one-way latency between two random tiles."""
        return self.average_hops * self._config.hop_latency_cycles

    def streaming_transfer_cycles(self, vectors: int, producers: int = 1) -> float:
        """Cycles to stream ``vectors`` 512-bit flits from ``producers``.

        Streaming transfers are pipelined, so latency is paid once and the
        cost is dominated by serialization at the narrowest point.
        """
        if vectors < 0 or producers <= 0:
            raise SimulationError("vectors must be >= 0 and producers > 0")
        if vectors == 0:
            return 0.0
        serialization = vectors / (self._config.injection_rate * producers)
        return self.average_latency_cycles + serialization

    def round_trip_cycles(self, round_trips: int) -> float:
        """Cycles for latency-bound request/response round trips.

        Used for un-pipelinable dependences (e.g. between BFS iterations)
        where each round trip must complete before the next begins.
        """
        if round_trips < 0:
            raise SimulationError("round_trips must be non-negative")
        return round_trips * 2.0 * self.average_latency_cycles

    def congestion_factor(self, offered_load: float) -> float:
        """Latency inflation under load (simple M/D/1-style model).

        Args:
            offered_load: Fraction of link capacity consumed (0..1).

        Returns:
            A multiplier (>= 1) applied to base latency.
        """
        if offered_load < 0:
            raise SimulationError("offered_load must be non-negative")
        load = min(offered_load, 0.95)
        return 1.0 + load / (2.0 * (1.0 - load))


def cross_tile_traffic_cycles(
    network: OnChipNetwork, requests_by_destination: Dict[int, int], lanes: int = 16
) -> float:
    """Cycles to deliver cross-tile request vectors given a destination mix.

    Args:
        network: The network model.
        requests_by_destination: Number of element requests destined to each
            tile; each tile's requests are packed ``lanes`` per vector flit.
        lanes: Vector width used for packing.
    """
    if lanes <= 0:
        raise SimulationError("lanes must be positive")
    total_cycles = 0.0
    for _destination, requests in requests_by_destination.items():
        if requests < 0:
            raise SimulationError("request counts must be non-negative")
        vectors = (requests + lanes - 1) // lanes
        total_cycles += network.streaming_transfer_cycles(vectors)
    return total_cycles
