"""Multi-core CPU baseline (TACO / GraphIt on a 4-socket Xeon E7-8890 v3).

The paper's CPU baseline runs TACO-generated sparse kernels and GraphIt
graph kernels with 128 threads on four Xeon E7-8890 v3 sockets. Without
that machine, this module provides:

* functional reference kernels built on ``scipy`` / ``numpy`` (used to
  validate the Capstan implementations), and
* an analytic timing model of the four-socket system: aggregate DRAM
  bandwidth, per-core issue throughput, synchronization overhead per
  parallel region, and reduced efficiency for irregular (random) accesses.

The model is calibrated so the *shape* of Table 12's CPU row reproduces:
bandwidth-bound kernels (SpMV, PageRank) land tens of times slower than
Capstan-HBM2E, latency/atomic-heavy kernels (COO, M+M) land hundreds of
times slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..apps.profile import WorkloadProfile
from ..formats.convert import to_scipy_csr
from ..sim.stats import RunMetrics


@dataclass(frozen=True)
class CPUPlatform:
    """Analytic model of the paper's four-socket Xeon baseline.

    Attributes:
        cores: Physical cores across all sockets (4 x 18 = 72; the paper
            runs 128 threads with SMT, which we fold into efficiency).
        clock_ghz: Sustained all-core clock.
        dram_bandwidth_gbps: Aggregate four-socket DRAM bandwidth.
        flops_per_cycle_per_core: Sustained sparse-kernel operations per
            cycle per core (sparse codes are nowhere near peak AVX).
        random_access_penalty: Effective cycles per random (cache-missing)
            memory access.
        atomic_penalty: Effective cycles per contended atomic update.
        sync_overhead_cycles: Cycles per parallel-region barrier
            (kernel-launch / OpenMP overhead); multiplied by the number of
            sequential rounds.
    """

    cores: int = 72
    clock_ghz: float = 2.5
    dram_bandwidth_gbps: float = 272.0
    flops_per_cycle_per_core: float = 0.5
    random_access_penalty: float = 40.0
    atomic_penalty: float = 120.0
    sync_overhead_cycles: float = 40_000.0
    name: str = "cpu-xeon-e7-8890v3"


def estimate_cycles(profile: WorkloadProfile, platform: Optional[CPUPlatform] = None) -> float:
    """Estimate CPU cycles (at the CPU clock) for a workload profile."""
    platform = platform or CPUPlatform()
    cores = platform.cores

    compute = profile.compute_iterations / (platform.flops_per_cycle_per_core * cores)
    random_accesses = profile.sram_random_accesses + profile.dram_random_reads
    random = random_accesses * platform.random_access_penalty / cores
    atomics = (
        (profile.sram_random_updates + profile.dram_random_updates)
        * platform.atomic_penalty
        / cores
    )
    bytes_total = profile.total_stream_bytes + 64.0 * profile.dram_random_accesses
    bytes_per_cycle = platform.dram_bandwidth_gbps / platform.clock_ghz
    bandwidth = bytes_total / bytes_per_cycle
    sync = profile.sequential_rounds * platform.sync_overhead_cycles
    # Un-fused kernels (the BiCGStab comparison) also pay per-kernel
    # bandwidth: intermediate vectors bounce through DRAM between kernels.
    return max(compute + random + atomics, bandwidth) + sync


def run_metrics(profile: WorkloadProfile, platform: Optional[CPUPlatform] = None) -> RunMetrics:
    """Wrap the CPU cycle estimate in a :class:`RunMetrics` record."""
    platform = platform or CPUPlatform()
    cycles = estimate_cycles(profile, platform)
    return RunMetrics(
        app=profile.app,
        dataset=profile.dataset,
        platform=platform.name,
        cycles=cycles,
        clock_ghz=platform.clock_ghz,
    )


# --------------------------------------------------------------------------- #
# Functional reference kernels (the TACO / GraphIt substitutes)
# --------------------------------------------------------------------------- #


def reference_spmv_csr(matrix, vector: np.ndarray) -> np.ndarray:
    """scipy CSR SpMV, the TACO-equivalent reference."""
    return to_scipy_csr(matrix) @ np.asarray(vector, dtype=np.float64)


def reference_spmspm(matrix_a, matrix_b) -> np.ndarray:
    """scipy sparse-sparse matrix product reference."""
    return np.asarray((to_scipy_csr(matrix_a) @ to_scipy_csr(matrix_b)).todense())
