"""Compressed sparse column (CSC) matrix format (Table 1).

CSC is dense along columns and compressed along rows within each column. It
enables skipping whole columns that would be multiplied by a zero input
element, which is how the CSC SpMV, BFS, and SSSP applications in Table 2
exploit input sparsity.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import FormatError
from .base import SparseMatrixFormat, check_indices, check_pointers, check_shape


class CSCMatrix(SparseMatrixFormat):
    """A CSC matrix: column pointers, row indices, and values."""

    def __init__(
        self,
        shape: Tuple[int, int],
        col_pointers: np.ndarray,
        row_indices: np.ndarray,
        values: np.ndarray,
    ):
        self._shape = check_shape(shape)
        values = np.asarray(values, dtype=np.float64)
        row_indices = check_indices(row_indices, self._shape[0], "row_indices")
        if values.shape != row_indices.shape:
            raise FormatError("values and row_indices must have matching length")
        self._col_pointers = check_pointers(
            col_pointers, self._shape[1], values.size, "col_pointers"
        )
        self._row_indices = row_indices
        self._values = values
        self._check_sorted_cols()

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSCMatrix":
        """Build a CSC matrix from a dense 2-D array, dropping zeros."""
        array = np.asarray(dense, dtype=np.float64)
        if array.ndim != 2:
            raise FormatError("from_dense requires a 2-D array")
        rows, cols = array.shape
        col_pointers = [0]
        row_indices = []
        values = []
        for c in range(cols):
            nonzero = np.nonzero(array[:, c])[0]
            row_indices.extend(nonzero.tolist())
            values.extend(array[nonzero, c].tolist())
            col_pointers.append(len(row_indices))
        return cls(
            (rows, cols),
            np.asarray(col_pointers, dtype=np.int64),
            np.asarray(row_indices, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
        )

    @classmethod
    def from_coo_arrays(
        cls,
        shape: Tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
    ) -> "CSCMatrix":
        """Build a CSC matrix from unordered COO triplets (duplicates summed)."""
        shape = check_shape(shape)
        rows = check_indices(rows, shape[0], "rows")
        cols = check_indices(cols, shape[1], "cols")
        values = np.asarray(values, dtype=np.float64)
        if not (rows.size == cols.size == values.size):
            raise FormatError("rows, cols, and values must have matching length")
        if rows.size:
            keys = cols * shape[0] + rows
            # Canonical triplets (already (col, row)-sorted, duplicate-free)
            # skip the sort-and-reduce entirely; copy so the matrix never
            # aliases the caller's arrays.
            if keys.size < 2 or np.all(keys[1:] > keys[:-1]):
                rows, cols, values = rows.copy(), cols.copy(), values.copy()
            else:
                order = np.lexsort((rows, cols))
                rows, cols, values = rows[order], cols[order], values[order]
                keys = keys[order]
                unique_keys, inverse = np.unique(keys, return_inverse=True)
                summed = np.zeros(unique_keys.size, dtype=np.float64)
                np.add.at(summed, inverse, values)
                cols = (unique_keys // shape[0]).astype(np.int64)
                rows = (unique_keys % shape[0]).astype(np.int64)
                values = summed
        col_pointers = np.zeros(shape[1] + 1, dtype=np.int64)
        np.add.at(col_pointers, cols + 1, 1)
        col_pointers = np.cumsum(col_pointers)
        return cls(shape, col_pointers, rows, values)

    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self._values.size)

    @property
    def col_pointers(self) -> np.ndarray:
        """Column pointer array of length ``cols + 1``."""
        return self._col_pointers.copy()

    @property
    def row_indices(self) -> np.ndarray:
        """Row indices of stored entries, column-major order."""
        return self._row_indices.copy()

    @property
    def values(self) -> np.ndarray:
        """Values of stored entries, column-major order."""
        return self._values.copy()

    def col_slice(self, col: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(row_indices, values)`` for ``col``."""
        self._check_col(col)
        start, end = self._col_pointers[col], self._col_pointers[col + 1]
        return self._row_indices[start:end].copy(), self._values[start:end].copy()

    def col_lengths(self) -> np.ndarray:
        """Stored entries per column."""
        return np.diff(self._col_pointers)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self._shape, dtype=np.float64)
        for col in range(self._shape[1]):
            start, end = self._col_pointers[col], self._col_pointers[col + 1]
            dense[self._row_indices[start:end], col] = self._values[start:end]
        return dense

    def to_coo_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rows, cols, values)`` arrays of all stored entries."""
        cols = np.repeat(
            np.arange(self._shape[1], dtype=np.int64), np.diff(self._col_pointers)
        )
        return self._row_indices.copy(), cols, self._values.copy()

    def __repr__(self) -> str:
        return f"CSCMatrix(shape={self._shape}, nnz={self.nnz})"

    def _check_col(self, col: int) -> None:
        if col < 0 or col >= self._shape[1]:
            raise FormatError(f"col {col} out of range for shape {self._shape}")

    def _check_sorted_cols(self) -> None:
        if self._row_indices.size < 2:
            return
        # Row indices must be strictly increasing within each column; a
        # non-increasing adjacent pair is only legal exactly at a column start.
        violations = self._row_indices[1:] <= self._row_indices[:-1]
        boundaries = self._col_pointers[1:-1]
        interior = boundaries[(boundaries > 0) & (boundaries < self._row_indices.size)]
        violations[interior - 1] = False
        bad = np.flatnonzero(violations)
        if bad.size:
            col = int(np.searchsorted(self._col_pointers, bad[0], side="right")) - 1
            raise FormatError(
                f"column {col} row indices must be strictly increasing"
            )
