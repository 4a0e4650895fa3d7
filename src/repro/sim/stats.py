"""Stall accounting and cycle breakdowns (Figure 7).

The paper explains each application's efficiency by attributing every
lane-cycle to one of: useful work (Active), scanner overhead on all-zero
vectors (Scan), DRAM load/store time (Load/Store), under-filled vectors
(Vector Length), uneven tiles (Imbalance), on-chip network effects
(Network), SRAM bank conflicts (SRAM), and DRAM bandwidth/latency (DRAM).
:class:`StallBreakdown` is the shared container the application timing
models fill in and the Figure 7 harness renders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

#: Breakdown categories in the order Figure 7 plots them.
STALL_CATEGORIES = (
    "active",
    "scan",
    "load_store",
    "vector_length",
    "imbalance",
    "network",
    "sram",
    "dram",
)


@dataclass
class StallBreakdown:
    """Per-application cycle attribution (one Figure 7 bar).

    All values are in cycles; :meth:`fractions` normalizes them to the total
    for plotting. Categories follow the paper's synthetic-then-simulated
    methodology: the first five are computed analytically from the workload,
    and the last three are the increments observed when network, SRAM
    conflict, and DRAM models are added one at a time.
    """

    active: float = 0.0
    scan: float = 0.0
    load_store: float = 0.0
    vector_length: float = 0.0
    imbalance: float = 0.0
    network: float = 0.0
    sram: float = 0.0
    dram: float = 0.0

    @property
    def total_cycles(self) -> float:
        """Sum of all categories (the application's end-to-end cycles)."""
        return sum(getattr(self, name) for name in STALL_CATEGORIES)

    def fractions(self) -> Dict[str, float]:
        """Each category as a fraction of the total (sums to 1.0)."""
        total = self.total_cycles
        if total <= 0:
            return {name: 0.0 for name in STALL_CATEGORIES}
        return {name: getattr(self, name) / total for name in STALL_CATEGORIES}

    @property
    def activity_factor(self) -> float:
        """Fraction of cycles doing useful work (the Active bar segment)."""
        total = self.total_cycles
        return self.active / total if total else 0.0


@dataclass
class RunMetrics:
    """End-to-end metrics for one application run on one platform.

    Attributes:
        app: Application name (e.g. ``"spmv-csr"``).
        dataset: Dataset name (e.g. ``"bcsstk30"``).
        platform: Platform name (e.g. ``"capstan-hbm2e"``).
        cycles: Total execution cycles on the platform's clock.
        clock_ghz: Platform clock, for converting cycles to time.
        breakdown: Optional stall breakdown (Capstan runs only).
        extra: Free-form auxiliary metrics (bytes moved, ops executed...).
    """

    app: str
    dataset: str
    platform: str
    cycles: float
    clock_ghz: float
    breakdown: StallBreakdown | None = None
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def runtime_seconds(self) -> float:
        """Wall-clock runtime implied by the cycle count."""
        return self.cycles / (self.clock_ghz * 1e9)

    def speedup_over(self, other: "RunMetrics") -> float:
        """This run's speedup relative to ``other`` (times faster)."""
        if self.runtime_seconds <= 0:
            return float("inf")
        return other.runtime_seconds / self.runtime_seconds


def geometric_mean(values: List[float]) -> float:
    """Geometric mean used throughout the evaluation tables."""
    filtered = [v for v in values if v > 0]
    if not filtered:
        return 0.0
    log_sum = sum(math.log(v) for v in filtered)
    return float(math.exp(log_sum / len(filtered)))
