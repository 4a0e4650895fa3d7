"""Synthetic sparse matrix and graph generators.

The paper evaluates on SuiteSparse and SNAP datasets that are not available
offline. Each generator here produces a matrix with a controlled size,
non-zero count, and *structure class*, because the performance effects
Capstan's evaluation studies (vectorization of clustered non-zeros, bank
conflicts from power-law degree distributions, load imbalance across tiles)
depend on structure, not on the exact values:

* :func:`banded_fem_matrix` -- clustered near the diagonal, like the
  ``bcsstk30`` / ``Trefethen_20000`` FEM and operator matrices;
* :func:`circuit_matrix` -- mostly near-diagonal with a few dense
  rows/columns, like ``ckt11752_dc_1``;
* :func:`power_law_graph` -- heavy-tailed degree distribution, like
  ``web-Stanford`` and ``flickr``;
* :func:`road_network_graph` -- bounded-degree planar-ish grid, like
  ``usroads-48``;
* :func:`uniform_random_matrix` -- unstructured control case.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import WorkloadError
from ..formats.bitvector import BitVector
from ..formats.coo import COOMatrix
from ..formats.csr import CSRMatrix


def _dedupe(rows: np.ndarray, cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Remove duplicate (row, col) pairs."""
    keys = rows.astype(np.int64) * (cols.max() + 1 if cols.size else 1) + cols
    _, unique_index = np.unique(keys, return_index=True)
    return rows[unique_index], cols[unique_index]


def uniform_random_matrix(
    rows: int, cols: int, nnz: int, seed: int = 0, values: str = "uniform"
) -> COOMatrix:
    """A matrix with ``nnz`` uniformly random non-zero positions."""
    if rows <= 0 or cols <= 0:
        raise WorkloadError("matrix dimensions must be positive")
    if nnz < 0 or nnz > rows * cols:
        raise WorkloadError("nnz out of range")
    rng = np.random.default_rng(seed)
    # Oversample to survive de-duplication, then trim.
    target = nnz
    r = rng.integers(0, rows, size=int(target * 1.3) + 16)
    c = rng.integers(0, cols, size=int(target * 1.3) + 16)
    r, c = _dedupe(r, c)
    r, c = r[:target], c[:target]
    vals = _make_values(rng, r.size, values)
    return COOMatrix((rows, cols), r, c, vals)


def banded_fem_matrix(
    n: int, nnz: int, bandwidth: Optional[int] = None, seed: int = 0
) -> COOMatrix:
    """A symmetric-structure matrix with non-zeros clustered near the diagonal.

    Mimics finite-element and operator matrices (``bcsstk30``,
    ``Trefethen_20000``): each stored entry lies within ``bandwidth`` of the
    diagonal, and the diagonal itself is fully populated.
    """
    if n <= 0:
        raise WorkloadError("matrix dimension must be positive")
    if nnz < n:
        raise WorkloadError("banded matrix needs at least n non-zeros (the diagonal)")
    rng = np.random.default_rng(seed)
    if bandwidth is None:
        # Choose a bandwidth that keeps the band about one-third occupied.
        per_row = max(1, nnz // n)
        bandwidth = max(2, 3 * per_row // 2)
    diag_rows = np.arange(n, dtype=np.int64)
    extra = max(0, nnz - n)
    rows = rng.integers(0, n, size=int(extra * 1.5) + 16)
    offsets = rng.integers(-bandwidth, bandwidth + 1, size=rows.size)
    cols = np.clip(rows + offsets, 0, n - 1)
    off_rows, off_cols = _dedupe(rows, cols)
    off_diagonal = off_rows != off_cols
    off_rows, off_cols = off_rows[off_diagonal], off_cols[off_diagonal]
    keep_off = max(0, nnz - n)
    rows = np.concatenate([diag_rows, off_rows[:keep_off]])
    cols = np.concatenate([diag_rows, off_cols[:keep_off]])
    order = np.argsort(rows * n + cols)
    rows, cols = rows[order], cols[order]
    vals = _make_values(rng, rows.size, "spd")
    return COOMatrix((n, n), rows, cols, vals)


def circuit_matrix(n: int, nnz: int, dense_nodes: int = 8, seed: int = 0) -> COOMatrix:
    """A circuit-simulation-like matrix: near-diagonal plus a few dense rows.

    Circuit matrices (``ckt11752_dc_1``) are mostly tridiagonal-ish with a
    handful of supply/ground nodes connected to many others.
    """
    if n <= 2:
        raise WorkloadError("matrix dimension must exceed 2")
    rng = np.random.default_rng(seed)
    diag = np.arange(n, dtype=np.int64)
    upper = np.arange(n - 1, dtype=np.int64)
    rows = [diag, upper, upper + 1]
    cols = [diag, upper + 1, upper]
    budget = nnz - (3 * n - 2)
    if budget > 0 and dense_nodes > 0:
        hubs = rng.choice(n, size=min(dense_nodes, n), replace=False)
        per_hub = max(1, budget // (2 * hubs.size))
        for hub in hubs.tolist():
            targets = rng.integers(0, n, size=per_hub)
            rows.append(np.full(per_hub, hub, dtype=np.int64))
            cols.append(targets)
            rows.append(targets)
            cols.append(np.full(per_hub, hub, dtype=np.int64))
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    r, c = _dedupe(r, c)
    vals = _make_values(rng, r.size, "spd")
    return COOMatrix((n, n), r, c, vals)


def power_law_graph(
    nodes: int, edges: int, exponent: float = 2.1, seed: int = 0
) -> COOMatrix:
    """A directed graph with a power-law in/out degree distribution.

    Mimics web and social graphs (``web-Stanford``, ``flickr``): a few
    vertices have very high degree, most have low degree. The adjacency
    matrix is returned as COO with weight 1 + uniform jitter (usable as
    SSSP edge weights).
    """
    if nodes <= 1 or edges <= 0:
        raise WorkloadError("graph must have >1 node and >0 edges")
    rng = np.random.default_rng(seed)
    # Sample endpoints with Zipf-like preference so degree is heavy-tailed.
    ranks = np.arange(1, nodes + 1, dtype=np.float64)
    weights = ranks ** (-exponent / 2.0)
    weights /= weights.sum()
    permutation = rng.permutation(nodes)
    target = edges
    src = rng.choice(nodes, size=int(target * 1.4) + 16, p=weights)
    dst = rng.choice(nodes, size=src.size, p=weights)
    src, dst = permutation[src], permutation[dst]
    keep = src != dst
    src, dst = src[keep], dst[keep]
    src, dst = _dedupe(src, dst)
    src, dst = src[:target], dst[:target]
    vals = 1.0 + rng.random(src.size)
    return COOMatrix((nodes, nodes), src, dst, vals)


def road_network_graph(nodes: int, edges: int, seed: int = 0) -> COOMatrix:
    """A road-network-like graph: low, bounded degree and high diameter.

    Mimics ``usroads-48``: vertices laid out on a grid, connected to
    geometric neighbours, plus a few long-range shortcuts.
    """
    if nodes <= 4 or edges <= 0:
        raise WorkloadError("road network needs >4 nodes and >0 edges")
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(nodes)))
    src_list = []
    dst_list = []
    for node in range(nodes):
        x, y = node % side, node // side
        for dx, dy in ((1, 0), (0, 1)):
            nx, ny = x + dx, y + dy
            neighbor = ny * side + nx
            if nx < side and neighbor < nodes:
                src_list.append(node)
                dst_list.append(neighbor)
                src_list.append(neighbor)
                dst_list.append(node)
    src = np.asarray(src_list, dtype=np.int64)
    dst = np.asarray(dst_list, dtype=np.int64)
    # Trim or extend with random shortcuts to hit the edge budget.
    if src.size > edges:
        keep = rng.choice(src.size, size=edges, replace=False)
        src, dst = src[keep], dst[keep]
    elif src.size < edges:
        extra = edges - src.size
        shortcut_src = rng.integers(0, nodes, size=extra)
        shortcut_dst = rng.integers(0, nodes, size=extra)
        src = np.concatenate([src, shortcut_src])
        dst = np.concatenate([dst, shortcut_dst])
    keep = src != dst
    src, dst = _dedupe(src[keep], dst[keep])
    vals = 1.0 + rng.random(src.size)
    return COOMatrix((nodes, nodes), src, dst, vals)


def sparse_vector(length: int, density: float, seed: int = 0) -> np.ndarray:
    """A dense array with approximately ``density`` fraction of non-zeros."""
    if not 0.0 <= density <= 1.0:
        raise WorkloadError("density must be in [0, 1]")
    rng = np.random.default_rng(seed)
    data = np.zeros(length, dtype=np.float64)
    nnz = int(round(length * density))
    if nnz:
        positions = rng.choice(length, size=nnz, replace=False)
        data[positions] = rng.random(nnz) + 0.1
    return data


def sparse_bitvector(length: int, density: float, seed: int = 0) -> BitVector:
    """A random :class:`BitVector` built without a dense intermediate.

    Draws the identical positions and values as :func:`sparse_vector` with
    the same arguments (``BitVector.from_dense(sparse_vector(...))`` gives
    an equal vector), but feeds the index/value arrays straight into the
    packed bit-vector construction -- the natural generator for scanner and
    format microbenchmarks over large, very sparse spaces.
    """
    if not 0.0 <= density <= 1.0:
        raise WorkloadError("density must be in [0, 1]")
    rng = np.random.default_rng(seed)
    nnz = int(round(length * density))
    if not nnz:
        return BitVector.empty(length)
    positions = rng.choice(length, size=nnz, replace=False)
    values = rng.random(nnz) + 0.1
    return BitVector(length, positions, values)


def _make_values(rng: np.random.Generator, count: int, kind: str) -> np.ndarray:
    """Generate non-zero values: uniform (0.1, 1.1) or SPD-friendly."""
    if kind == "uniform":
        return rng.random(count) + 0.1
    if kind == "spd":
        # Values in (0.5, 1.5); diagonal dominance is added by callers that
        # need SPD systems (the BiCGStab workload).
        return rng.random(count) + 0.5
    raise WorkloadError(f"unknown value kind {kind!r}")


def make_diagonally_dominant(matrix: COOMatrix) -> CSRMatrix:
    """Return a CSR copy with the diagonal boosted to ensure dominance.

    Krylov solvers (BiCGStab) need a well conditioned system; boosting the
    diagonal above the row sums guarantees convergence without changing the
    sparsity structure.
    """
    rows, cols, values = matrix.to_coo_arrays()
    n = min(matrix.shape)
    row_sums = np.zeros(matrix.shape[0], dtype=np.float64)
    np.add.at(row_sums, rows, np.abs(values))
    diag_rows = np.arange(n, dtype=np.int64)
    diag_vals = row_sums[:n] + 1.0
    all_rows = np.concatenate([rows, diag_rows])
    all_cols = np.concatenate([cols, diag_rows])
    all_vals = np.concatenate([values, diag_vals])
    return CSRMatrix.from_coo_arrays(matrix.shape, all_rows, all_cols, all_vals)
