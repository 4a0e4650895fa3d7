"""Memory ordering modes for the sparse memory unit (Table 3).

Capstan offers three ordering strictness levels for the SpMU's reordering
pipeline, plus the arbitrated baseline that Plasticine-style memories use:

* ``UNORDERED`` — accesses complete once, in arbitrary order. This is the
  default and the fastest mode.
* ``ADDRESS_ORDERED`` — accesses to the *same address* complete in program
  order; accesses to different addresses may still be reordered. Required
  for SSSP distance updates and deterministic floating-point accumulation.
* ``FULLY_ORDERED`` — accesses complete strictly in program order.
* ``ARBITRATED`` — the baseline: one vector's accesses are executed to
  completion (serialised on bank conflicts) before the next vector starts;
  there is no cross-vector reordering.
"""

from __future__ import annotations

from enum import Enum


class OrderingMode(Enum):
    """SpMU access-ordering strictness (Table 3 plus the arbitrated baseline)."""

    UNORDERED = "unordered"
    ADDRESS_ORDERED = "address-ordered"
    FULLY_ORDERED = "fully-ordered"
    ARBITRATED = "arbitrated"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value
