"""Compressed sparse row (CSR) matrix format (Table 1).

CSR is dense along rows (one entry per row in the pointer array) and
compressed along columns within each row. It is the input format for the
CSR SpMV, PageRank-pull, M+M, and SpMSpM applications in Table 2.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import FormatError
from .base import SparseMatrixFormat, check_indices, check_pointers, check_shape
from .bitvector import BitVector


class CSRMatrix(SparseMatrixFormat):
    """A CSR matrix: row pointers, column indices, and values."""

    def __init__(
        self,
        shape: Tuple[int, int],
        row_pointers: np.ndarray,
        col_indices: np.ndarray,
        values: np.ndarray,
    ):
        self._shape = check_shape(shape)
        values = np.asarray(values, dtype=np.float64)
        col_indices = check_indices(col_indices, self._shape[1], "col_indices")
        if values.shape != col_indices.shape:
            raise FormatError("values and col_indices must have matching length")
        self._row_pointers = check_pointers(
            row_pointers, self._shape[0], values.size, "row_pointers"
        )
        self._col_indices = col_indices
        self._values = values
        self._check_sorted_rows()

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Build a CSR matrix from a dense 2-D array, dropping zeros."""
        array = np.asarray(dense, dtype=np.float64)
        if array.ndim != 2:
            raise FormatError("from_dense requires a 2-D array")
        rows, cols = array.shape
        row_pointers = [0]
        col_indices = []
        values = []
        for r in range(rows):
            nonzero = np.nonzero(array[r])[0]
            col_indices.extend(nonzero.tolist())
            values.extend(array[r, nonzero].tolist())
            row_pointers.append(len(col_indices))
        return cls(
            (rows, cols),
            np.asarray(row_pointers, dtype=np.int64),
            np.asarray(col_indices, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
        )

    @classmethod
    def from_coo_arrays(
        cls,
        shape: Tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
    ) -> "CSRMatrix":
        """Build a CSR matrix from unordered COO triplets (duplicates summed)."""
        shape = check_shape(shape)
        rows = check_indices(rows, shape[0], "rows")
        cols = check_indices(cols, shape[1], "cols")
        values = np.asarray(values, dtype=np.float64)
        if not (rows.size == cols.size == values.size):
            raise FormatError("rows, cols, and values must have matching length")
        if rows.size:
            keys = rows * shape[1] + cols
            # Canonical triplets (already (row, col)-sorted, duplicate-free,
            # e.g. from COOMatrix) skip the sort-and-reduce entirely; copy
            # so the matrix never aliases the caller's arrays.
            if keys.size < 2 or np.all(keys[1:] > keys[:-1]):
                rows, cols, values = rows.copy(), cols.copy(), values.copy()
            else:
                # Sum duplicates by sorting on (row, col) and segment-reducing.
                order = np.lexsort((cols, rows))
                rows, cols, values = rows[order], cols[order], values[order]
                keys = keys[order]
                unique_keys, inverse = np.unique(keys, return_inverse=True)
                summed = np.zeros(unique_keys.size, dtype=np.float64)
                np.add.at(summed, inverse, values)
                rows = (unique_keys // shape[1]).astype(np.int64)
                cols = (unique_keys % shape[1]).astype(np.int64)
                values = summed
        row_pointers = np.zeros(shape[0] + 1, dtype=np.int64)
        np.add.at(row_pointers, rows + 1, 1)
        row_pointers = np.cumsum(row_pointers)
        return cls(shape, row_pointers, cols, values)

    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self._values.size)

    @property
    def row_pointers(self) -> np.ndarray:
        """Row pointer array of length ``rows + 1``."""
        return self._row_pointers.copy()

    @property
    def col_indices(self) -> np.ndarray:
        """Column indices of stored entries, row-major order."""
        return self._col_indices.copy()

    @property
    def values(self) -> np.ndarray:
        """Values of stored entries, row-major order."""
        return self._values.copy()

    def row_slice(self, row: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(col_indices, values)`` for ``row``."""
        self._check_row(row)
        start, end = self._row_pointers[row], self._row_pointers[row + 1]
        return self._col_indices[start:end].copy(), self._values[start:end].copy()

    def row_bitvector(self, row: int) -> BitVector:
        """The row's occupancy and values as a bit-vector of width ``cols``."""
        cols, values = self.row_slice(row)
        return BitVector(self._shape[1], cols, values)

    def row_lengths(self) -> np.ndarray:
        """Stored entries per row, for load-balance / imbalance analysis."""
        return np.diff(self._row_pointers)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self._shape, dtype=np.float64)
        for row in range(self._shape[0]):
            start, end = self._row_pointers[row], self._row_pointers[row + 1]
            dense[row, self._col_indices[start:end]] = self._values[start:end]
        return dense

    def to_coo_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rows, cols, values)`` arrays of all stored entries."""
        rows = np.repeat(
            np.arange(self._shape[0], dtype=np.int64), np.diff(self._row_pointers)
        )
        return rows, self._col_indices.copy(), self._values.copy()

    def transpose_to_csr(self) -> "CSRMatrix":
        """Return the transpose, also in CSR form."""
        rows, cols, values = self.to_coo_arrays()
        return CSRMatrix.from_coo_arrays((self._shape[1], self._shape[0]), cols, rows, values)

    def storage_bytes(self) -> int:
        """Bytes to store pointers (32-bit), indices (32-bit), and values."""
        return 4 * (self._row_pointers.size + self._col_indices.size + self._values.size)

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self._shape}, nnz={self.nnz})"

    def _check_row(self, row: int) -> None:
        if row < 0 or row >= self._shape[0]:
            raise FormatError(f"row {row} out of range for shape {self._shape}")

    def _check_sorted_rows(self) -> None:
        if self._col_indices.size < 2:
            return
        # Column indices must be strictly increasing within each row; a
        # non-increasing adjacent pair is only legal exactly at a row start.
        violations = self._col_indices[1:] <= self._col_indices[:-1]
        boundaries = self._row_pointers[1:-1]
        interior = boundaries[(boundaries > 0) & (boundaries < self._col_indices.size)]
        violations[interior - 1] = False
        bad = np.flatnonzero(violations)
        if bad.size:
            row = int(np.searchsorted(self._row_pointers, bad[0], side="right")) - 1
            raise FormatError(
                f"row {row} column indices must be strictly increasing"
            )
