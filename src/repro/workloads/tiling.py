"""Workload tiling and partitioning (the Metis substitute).

The paper tiles graph datasets with Metis, weighting nodes by edge count to
produce load-balanced tiles, and tiles linear algebra datasets round-robin
by rows, columns, or non-zeros. Metis is not available offline; the greedy
balanced partitioner here provides the property the performance model
depends on -- balanced per-tile edge counts -- and the imbalance metric it
reports feeds the Figure 7 "Imbalance" category.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import WorkloadError
from ..formats.csr import CSRMatrix


@dataclass(frozen=True)
class Partitioning:
    """An assignment of work items (rows / nodes / non-zeros) to tiles.

    Attributes:
        assignments: ``assignments[i]`` is the tile owning item ``i``.
        tiles: Number of tiles.
        weights: Per-item weights used when balancing.
    """

    assignments: np.ndarray
    tiles: int
    weights: np.ndarray

    def tile_weights(self) -> np.ndarray:
        """Total weight per tile."""
        totals = np.zeros(self.tiles, dtype=np.float64)
        np.add.at(totals, self.assignments, self.weights)
        return totals

    @property
    def imbalance(self) -> float:
        """Max tile weight divided by the mean tile weight (1.0 is perfect)."""
        totals = self.tile_weights()
        mean = totals.mean() if totals.size else 0.0
        if mean == 0:
            return 1.0
        return float(totals.max() / mean)

    @property
    def imbalance_fraction(self) -> float:
        """Extra critical-path work caused by imbalance, as a fraction."""
        return max(0.0, self.imbalance - 1.0)


def round_robin_partition(
    items: int, tiles: int, weights: Sequence[float] | None = None
) -> Partitioning:
    """Round-robin assignment of items to tiles (the linear-algebra tiler)."""
    if items < 0 or tiles <= 0:
        raise WorkloadError("items must be >= 0 and tiles > 0")
    assignments = np.arange(items, dtype=np.int64) % tiles
    weight_array = (
        np.asarray(weights, dtype=np.float64)
        if weights is not None
        else np.ones(items, dtype=np.float64)
    )
    if weight_array.size != items:
        raise WorkloadError("weights must match item count")
    return Partitioning(assignments=assignments, tiles=tiles, weights=weight_array)


def balanced_partition(weights: Sequence[float], tiles: int) -> Partitioning:
    """Greedy balanced partition: heaviest item to the lightest tile.

    This is the Metis substitute for graph tiling with edge-count weights:
    it produces near-balanced tiles (typically within a few percent of the
    optimum for heavy-tailed weight distributions). The lightest tile is
    tracked in a heap keyed ``(total, tile)``, which selects the same tile
    as an argmin over totals (lowest index among ties) at a fraction of
    the cost.
    """
    weight_array = np.asarray(weights, dtype=np.float64)
    if tiles <= 0:
        raise WorkloadError("tiles must be positive")
    if np.any(weight_array < 0):
        raise WorkloadError("weights must be non-negative")
    assignment_of = [0] * weight_array.size
    order = np.argsort(-weight_array, kind="stable")
    heap = [(0.0, tile) for tile in range(tiles)]
    item_weights = weight_array.tolist()
    for item in order.tolist():
        total, tile = heapq.heappop(heap)
        assignment_of[item] = tile
        heapq.heappush(heap, (total + item_weights[item], tile))
    assignments = np.asarray(assignment_of, dtype=np.int64)
    return Partitioning(assignments=assignments, tiles=tiles, weights=weight_array)


def partition_graph_by_edges(matrix: CSRMatrix, tiles: int) -> Partitioning:
    """Partition a graph's vertices with edge-count weights (paper's tiling)."""
    return balanced_partition(matrix.row_lengths().astype(np.float64), tiles)


def partition_rows_round_robin(matrix: CSRMatrix, tiles: int) -> Partitioning:
    """Round-robin row partition with non-zero weights (linear algebra)."""
    return round_robin_partition(
        matrix.shape[0], tiles, matrix.row_lengths().astype(np.float64)
    )


def cross_tile_fraction(matrix: CSRMatrix, partitioning: Partitioning) -> float:
    """Fraction of edges whose endpoints live in different tiles.

    Drives the shuffle-network traffic model (Table 11): graph partitioning
    reduces cross-partition communication, but power-law graphs always keep
    a substantial cross-tile fraction.
    """
    if partitioning.assignments.size != matrix.shape[0]:
        raise WorkloadError("partitioning must cover every row/vertex")
    assignments = partitioning.assignments
    cross = 0
    total = 0
    for row in range(matrix.shape[0]):
        cols, _ = matrix.row_slice(row)
        total += cols.size
        if cols.size:
            cross += int(np.count_nonzero(assignments[cols] != assignments[row]))
    return cross / total if total else 0.0
