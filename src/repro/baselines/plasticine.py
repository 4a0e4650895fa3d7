"""Plasticine baseline timing model (Section 5, "Plasticine & Spatial").

Plasticine is the dense RDA Capstan extends. It shares the grid, clock,
vector lanes, and DRAM system, but:

* memories are *statically banked*: a random sparse access pattern gets one
  access per cycle per memory (15 of the 16 banks idle);
* there is no read-modify-write support: a consistent random update must
  serialize read -> modify -> write with a multi-cycle dependence bubble;
* there is no sparse-iteration (scanner) hardware, so sparse loop headers
  execute one comparison/dequeue decision per cycle (scalar);
* several Capstan applications (cross-tile sparse updates, sparse DRAM
  updates, sparse iteration) cannot be mapped efficiently at all; the
  evaluation only reports Plasticine numbers for the applications the paper
  maps (CSR/COO/CSC SpMV, PR-Pull, BiCGStab).

The model re-costs a :class:`~repro.apps.profile.WorkloadProfile` under
those constraints.
"""

from __future__ import annotations

from ..apps.profile import WorkloadProfile
from ..config import CLOCK_GHZ, CapstanConfig
from ..sim.dram import DRAMModel, TrafficSummary
from ..sim.sram import StaticBankTiming
from ..sim.stats import RunMetrics

#: Applications the paper maps to Plasticine (Table 12's Plasticine row).
PLASTICINE_MAPPABLE_APPS = {
    "spmv-csr",
    "spmv-coo",
    "spmv-csc",
    "pagerank-pull",
    "bicgstab",
}


#: Plasticine shares Capstan's Table 7 grid, vector lanes, clock and HBM2E
#: memory.
_GRID = CapstanConfig()

#: Platform label in reports.
NAME = "plasticine-hbm2e"


def is_mappable(profile: WorkloadProfile) -> bool:
    """Whether the paper maps this application to Plasticine at all."""
    return profile.app in PLASTICINE_MAPPABLE_APPS


def estimate_cycles(profile: WorkloadProfile) -> float:
    """Estimate Plasticine cycles for a workload profile.

    Sparse-iteration apps that the paper does not map raise ``ValueError``
    so callers cannot silently compare against a meaningless number.
    """
    if not is_mappable(profile):
        raise ValueError(
            f"{profile.app} cannot be mapped efficiently to Plasticine "
            "(no sparse iteration / RMW support)"
        )
    lanes = _GRID.lanes
    units = max(1, min(_GRID.compute_units, profile.outer_parallelism))
    timing = StaticBankTiming()

    # Dense compute is identical to Capstan: same lanes, same clock.
    active = profile.compute_iterations / (lanes * units)
    vector_slots = profile.vector_slots / units
    compute_cycles = max(active, vector_slots)

    # Sparse loop headers execute scalar comparisons: one element per cycle.
    scan_cycles = profile.scan_elements / units

    # Statically banked memories: one random access per memory per cycle,
    # and RMW updates pay the read-modify-write dependence bubble.
    sram_cycles = (
        timing.random_read_cycles(profile.sram_random_reads)
        + timing.random_rmw_cycles(profile.sram_random_updates)
    ) / units

    # DRAM traffic: same streaming volume; random DRAM updates must be
    # emulated with read-then-write bursts and full serialization.
    dram = DRAMModel(_GRID.memory)
    traffic = TrafficSummary(
        streaming_read_bytes=profile.dram_stream_read_bytes,
        streaming_write_bytes=profile.dram_stream_write_bytes,
        random_accesses=profile.dram_random_reads + 4 * profile.dram_random_updates,
    )
    dram_cycles = dram.traffic_cycles(traffic)

    # Imbalance and un-pipelined rounds behave as on Capstan.
    imbalance = compute_cycles * profile.imbalance_fraction
    load_store = profile.total_stream_bytes / 4.0 / (lanes * units)

    return (
        compute_cycles
        + scan_cycles
        + sram_cycles
        + max(dram_cycles, load_store)
        + imbalance
    )


def run_metrics(profile: WorkloadProfile) -> RunMetrics:
    """Wrap the cycle estimate in a :class:`RunMetrics` record."""
    return RunMetrics(
        app=profile.app,
        dataset=profile.dataset,
        platform=NAME,
        cycles=estimate_cycles(profile),
        clock_ghz=CLOCK_GHZ,
    )
