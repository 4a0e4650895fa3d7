"""Applications expressed with Capstan's sparse-iteration primitives (Table 2).

Importing this package also populates the experiment registry
(:mod:`repro.runtime.registry`): each application module registers an
``AppSpec`` naming its Table 6 datasets and input preparation, which is what
``repro.eval`` and the ``repro-eval`` runner dispatch on.

An application whose module shares its name (``bfs``, ``bicgstab``,
``spmspm``, ``sssp``) is imported from that module, e.g.
``from repro.apps.bfs import bfs``: the package attribute of that name is the
module.
"""

from .bfs import reference_bfs_levels
from .bicgstab import BiCGStabResult
from .common import BACKENDS, AppRun, best_source, check_backend
from .conv import sparse_convolution
from .pagerank import pagerank_edge, pagerank_pull, reference_pagerank
from .profile import WorkloadProfile, vector_slots_batch, vector_slots_for
from .scan_model import (
    ScanCost,
    data_scan_cost,
    scan_cost_growing_unions,
    scan_cost_pair,
    scan_cost_rows,
    scan_cost_single,
)
from .spadd import reference_add, sparse_add
from .spmspm import reference_spmspm
from .spmv import reference_spmv, spmv_coo, spmv_csc, spmv_csr
from .sssp import reference_sssp
from .timing import CapstanPlatform, default_platform, estimate_cycles, ideal_platform, run_metrics

__all__ = [
    "AppRun",
    "BACKENDS",
    "best_source",
    "check_backend",
    "WorkloadProfile",
    "vector_slots_for",
    "vector_slots_batch",
    "ScanCost",
    "scan_cost_single",
    "scan_cost_pair",
    "scan_cost_rows",
    "scan_cost_growing_unions",
    "data_scan_cost",
    "spmv_csr",
    "spmv_coo",
    "spmv_csc",
    "reference_spmv",
    "pagerank_pull",
    "pagerank_edge",
    "reference_pagerank",
    "reference_bfs_levels",
    "reference_sssp",
    "sparse_add",
    "reference_add",
    "reference_spmspm",
    "sparse_convolution",
    "BiCGStabResult",
    "CapstanPlatform",
    "default_platform",
    "ideal_platform",
    "estimate_cycles",
    "run_metrics",
]
