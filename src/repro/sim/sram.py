"""Statically banked on-chip SRAM model (the Plasticine memory baseline).

Plasticine's memories are statically banked: the compiler guarantees that no
two lanes access the same bank in a cycle, which works for affine dense
access patterns but collapses to one access per cycle for random sparse
accesses (Section 5, "Plasticine & Spatial"). There is also no
read-modify-write support, so a consistent random update must serialize the
read, the modify, and the write with multi-cycle bubbles.

This module provides that baseline memory model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError


@dataclass(frozen=True)
class StaticBankTiming:
    """Cycle costs of the statically banked baseline memory.

    Attributes:
        rmw_bubble_cycles: Pipeline bubble between the read and write of a
            dependent read-modify-write sequence.
    """

    rmw_bubble_cycles: int = 4

    def random_read_cycles(self, accesses: int) -> int:
        """Random reads: one access per cycle (15 of 16 banks idle)."""
        if accesses < 0:
            raise SimulationError("accesses must be non-negative")
        return accesses

    def random_rmw_cycles(self, updates: int) -> int:
        """Random read-modify-writes: serialized with a dependence bubble."""
        if updates < 0:
            raise SimulationError("updates must be non-negative")
        return updates * (1 + self.rmw_bubble_cycles)
