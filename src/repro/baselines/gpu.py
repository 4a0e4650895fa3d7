"""Nvidia V100 GPU baseline (cuSPARSE / Gunrock).

The paper's GPU baseline runs cuSPARSE for sparse linear algebra and
Gunrock for graph kernels on a V100 (900 GB/s HBM2, 80 SMs at ~1.4 GHz).
This analytic roofline model captures the effects the comparison depends
on:

* sparse kernels on GPUs are memory-bandwidth bound, so streaming traffic
  divides by the 900 GB/s HBM2 bandwidth;
* irregular gathers/scatters achieve a fraction of that bandwidth because
  each 4 B element drags a 32 B sector through the memory system;
* atomics to hot addresses serialize at the L2;
* un-fused kernel sequences (BiCGStab, per-level graph frontiers) pay a
  kernel-launch latency per round.
"""

from __future__ import annotations

from ..apps.profile import WorkloadProfile
from ..sim.stats import RunMetrics


# Analytic V100 model.

#: Streaming multiprocessors.
SMS = 80
#: Sustained SM clock.
CLOCK_GHZ = 1.4
#: HBM2 bandwidth.
DRAM_BANDWIDTH_GBPS = 900.0
#: Sustained sparse-kernel operations per cycle per SM (far below the dense
#: peak).
FLOPS_PER_CYCLE_PER_SM = 8.0
#: Bytes moved per random element access (L2 sector).
SECTOR_BYTES = 48.0
#: Atomic updates the L2 can retire per cycle under moderate contention.
ATOMIC_THROUGHPUT_PER_CYCLE = 8.0
#: Cycles of launch + sync overhead per sequential round (at the SM clock).
KERNEL_LAUNCH_CYCLES = 15_000.0
#: Platform label in reports.
NAME = "gpu-v100"


def estimate_cycles(profile: WorkloadProfile) -> float:
    """Estimate V100 cycles (at the GPU clock) for a workload profile."""
    bytes_per_cycle = DRAM_BANDWIDTH_GBPS / CLOCK_GHZ

    compute = profile.compute_iterations / (FLOPS_PER_CYCLE_PER_SM * SMS)
    streaming = profile.total_stream_bytes / bytes_per_cycle
    # Random element accesses: on-chip data on Capstan is DRAM-resident and
    # cache-resident (at best) on the GPU; charge a sector per access at a
    # derated random-access bandwidth.
    random_accesses = profile.sram_random_accesses + profile.dram_random_accesses
    random = random_accesses * SECTOR_BYTES / (bytes_per_cycle * 0.6)
    atomics = (
        profile.sram_random_updates + profile.dram_random_updates
    ) / ATOMIC_THROUGHPUT_PER_CYCLE
    launches = profile.sequential_rounds * KERNEL_LAUNCH_CYCLES
    return max(compute, streaming) + random + atomics + launches


def run_metrics(profile: WorkloadProfile) -> RunMetrics:
    """Wrap the GPU cycle estimate in a :class:`RunMetrics` record."""
    return RunMetrics(
        app=profile.app,
        dataset=profile.dataset,
        platform=NAME,
        cycles=estimate_cycles(profile),
        clock_ghz=CLOCK_GHZ,
    )
