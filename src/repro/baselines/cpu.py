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

import numpy as np

from ..apps.profile import WorkloadProfile
from ..formats.convert import to_scipy_csr
from ..sim.stats import RunMetrics


# Analytic model of the paper's four-socket Xeon baseline.

#: Physical cores across all sockets (4 x 18 = 72; the paper runs 128
#: threads with SMT, which the efficiencies below fold in).
CORES = 72
#: Sustained all-core clock.
CLOCK_GHZ = 2.5
#: Aggregate four-socket DRAM bandwidth.
DRAM_BANDWIDTH_GBPS = 272.0
#: Sustained sparse-kernel operations per cycle per core (sparse codes are
#: nowhere near peak AVX).
FLOPS_PER_CYCLE_PER_CORE = 0.5
#: Effective cycles per random (cache-missing) memory access.
RANDOM_ACCESS_PENALTY = 40.0
#: Effective cycles per contended atomic update.
ATOMIC_PENALTY = 120.0
#: Cycles per parallel-region barrier (kernel-launch / OpenMP overhead),
#: paid once per sequential round.
SYNC_OVERHEAD_CYCLES = 40_000.0
#: Platform label in reports.
NAME = "cpu-xeon-e7-8890v3"


def estimate_cycles(profile: WorkloadProfile) -> float:
    """Estimate CPU cycles (at the CPU clock) for a workload profile."""
    compute = profile.compute_iterations / (FLOPS_PER_CYCLE_PER_CORE * CORES)
    random_accesses = profile.sram_random_accesses + profile.dram_random_reads
    random = random_accesses * RANDOM_ACCESS_PENALTY / CORES
    atomics = (
        (profile.sram_random_updates + profile.dram_random_updates)
        * ATOMIC_PENALTY
        / CORES
    )
    bytes_total = profile.total_stream_bytes + 64.0 * profile.dram_random_accesses
    bytes_per_cycle = DRAM_BANDWIDTH_GBPS / CLOCK_GHZ
    bandwidth = bytes_total / bytes_per_cycle
    sync = profile.sequential_rounds * SYNC_OVERHEAD_CYCLES
    # Un-fused kernels (the BiCGStab comparison) also pay per-kernel
    # bandwidth: intermediate vectors bounce through DRAM between kernels.
    return max(compute + random + atomics, bandwidth) + sync


def run_metrics(profile: WorkloadProfile) -> RunMetrics:
    """Wrap the CPU cycle estimate in a :class:`RunMetrics` record."""
    return RunMetrics(
        app=profile.app,
        dataset=profile.dataset,
        platform=NAME,
        cycles=estimate_cycles(profile),
        clock_ghz=CLOCK_GHZ,
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
