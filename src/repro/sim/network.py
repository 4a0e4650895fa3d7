"""On-chip interconnection network model (Section 4.1).

Capstan's units communicate over a loosely timed hybrid static-dynamic
network with per-link buffering, providing 512-bit vector links and 32-bit
scalar links. What the applications' timing needs from it is hop latency
between tiles, paid by latency-bound round trips (un-pipelined iterative
algorithms such as BFS/SSSP, the "Network" stall source of Figure 7).
"""

from __future__ import annotations

from ..errors import SimulationError

#: Cycles per router hop, including link traversal.
HOP_LATENCY_CYCLES = 2


class OnChipNetwork:
    """Analytic model of the hybrid static-dynamic on-chip network.

    Args:
        grid_width: Tiles per row of the checkerboard (20 in the paper).
    """

    def __init__(self, grid_width: int = 20):
        if grid_width <= 0:
            raise SimulationError("grid_width must be positive")
        self._grid_width = grid_width

    @property
    def average_hops(self) -> float:
        """Average Manhattan distance between two random tiles in the grid."""
        width = self._grid_width
        # E|x1-x2| for uniform integers in [0, w) is (w^2 - 1) / (3 w).
        per_axis = (width * width - 1) / (3.0 * width)
        return 2.0 * per_axis

    @property
    def average_latency_cycles(self) -> float:
        """Average one-way latency between two random tiles."""
        return self.average_hops * HOP_LATENCY_CYCLES

    def round_trip_cycles(self, round_trips: int) -> float:
        """Cycles for latency-bound request/response round trips.

        Used for un-pipelinable dependences (e.g. between BFS iterations)
        where each round trip must complete before the next begins.
        """
        if round_trips < 0:
            raise SimulationError("round_trips must be non-negative")
        return round_trips * 2.0 * self.average_latency_cycles
