"""Shared application plumbing: run results, tiling, and batch helpers.

The batch helpers here are the array-in/array-out building blocks of the
``vectorized`` profiling backend: ragged CSR/CSC slice expansion, batched
cross-tile accounting, and backend-name validation. Each one computes the
exact quantity its per-element loop counterpart does (asserted by
``tests/test_backend_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import WorkloadError
from ..formats.csr import CSRMatrix
from ..workloads.tiling import Partitioning, balanced_partition
from .profile import WorkloadProfile

#: Profiling-kernel backends every application accepts.
BACKEND_VECTORIZED = "vectorized"
BACKEND_REFERENCE = "reference"
BACKENDS = (BACKEND_VECTORIZED, BACKEND_REFERENCE)


def check_backend(backend: str) -> str:
    """Validate a profiling-backend name (raises :class:`WorkloadError`)."""
    if backend not in BACKENDS:
        raise WorkloadError(
            f"unknown profiling backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


@dataclass
class AppRun:
    """The outcome of one functional application run.

    Attributes:
        output: The application's numerical result (shape depends on the
            application; SpMV returns the output vector, SpMSpM a dense
            matrix, M+M a CSR matrix, BFS the parent array, ...).
        profile: The platform-independent execution profile for timing.
    """

    output: np.ndarray
    profile: WorkloadProfile


def best_source(matrix) -> int:
    """Pick a high-out-degree source vertex for BFS/SSSP.

    The synthetic graph generators can leave low-degree or isolated
    vertices; starting from the highest-out-degree vertex keeps traversals
    covering a meaningful fraction of the graph, as the paper's real
    datasets do.
    """
    degrees = np.bincount(matrix.rows, minlength=matrix.shape[0])
    return int(np.argmax(degrees))


def tile_rows_by_nnz(matrix: CSRMatrix, tiles: int) -> Partitioning:
    """Balanced row partition weighted by per-row non-zeros."""
    return balanced_partition(matrix.row_lengths().astype(np.float64), tiles)


def tile_work_from_partition(partitioning: Partitioning) -> List[float]:
    """Per-tile work totals used for the imbalance model."""
    return partitioning.tile_weights().tolist()


def cross_tile_fraction_rows(matrix: CSRMatrix, partitioning: Partitioning) -> float:
    """Fraction of column accesses that leave the issuing row's tile.

    This estimates how much of an application's random on-chip traffic
    crosses tiles when rows are distributed by ``partitioning`` and the
    accessed vector is distributed the same way. This is the per-row loop
    form used by the reference backend; :func:`cross_tile_fraction_rows_batch`
    computes the identical fraction in one pass.
    """
    assignments = partitioning.assignments
    cols_per_tile = max(1, matrix.shape[1] // max(1, partitioning.tiles))
    cross = 0
    total = 0
    for row in range(matrix.shape[0]):
        cols, _ = matrix.row_slice(row)
        if not cols.size:
            continue
        total += cols.size
        owner = assignments[row]
        col_tiles = np.minimum(cols // cols_per_tile, partitioning.tiles - 1)
        cross += int(np.count_nonzero(col_tiles != owner))
    return cross / total if total else 0.0


def cross_tile_fraction_rows_batch(matrix: CSRMatrix, partitioning: Partitioning) -> float:
    """Batch form of :func:`cross_tile_fraction_rows` (one vectorized pass)."""
    total = matrix.nnz
    if not total:
        return 0.0
    cols_per_tile = max(1, matrix.shape[1] // max(1, partitioning.tiles))
    owners = np.repeat(partitioning.assignments, matrix.row_lengths())
    col_tiles = np.minimum(matrix.col_indices // cols_per_tile, partitioning.tiles - 1)
    return int(np.count_nonzero(col_tiles != owners)) / total


def expand_slices(
    pointers: np.ndarray, selected: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten compressed (CSR/CSC) slices into one gather-index array.

    Args:
        pointers: A compressed pointer array (``row_pointers``/``col_pointers``).
        selected: Slice ids to expand, in order (``None`` expands all, in order).

    Returns:
        ``(flat, lengths)`` where ``lengths[i]`` is the size of the i-th
        selected slice and ``flat`` concatenates the index ranges
        ``pointers[s]:pointers[s+1]`` of every selected slice, so
        ``col_indices[flat]`` gathers all their stored entries at once.
    """
    if selected is None:
        starts = pointers[:-1]
        lengths = np.diff(pointers)
    else:
        starts = pointers[selected]
        lengths = pointers[np.asarray(selected) + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), lengths.astype(np.int64)
    offsets = np.cumsum(lengths) - lengths
    flat = np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, lengths)
    return flat, lengths.astype(np.int64)
