"""Coordinate (COO) matrix format (Table 1).

COO stores one ``(row, col, value)`` triplet per non-zero, which permits
iteration only over non-zero values -- not rows or columns -- and is the most
storage-efficient choice for extremely sparse matrices. It is the input
format for COO SpMV and PageRank-edge in Table 2, both of which rely on
random-access (atomic) updates to the output vector.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import FormatError
from .base import SparseMatrixFormat, check_indices, check_shape


class COOMatrix(SparseMatrixFormat):
    """A COO matrix: parallel row, column, and value arrays.

    Entries are stored sorted by ``(row, col)`` and duplicates are summed at
    construction so the representation is canonical.
    """

    def __init__(
        self,
        shape: Tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
    ):
        self._shape = check_shape(shape)
        rows = check_indices(rows, self._shape[0], "rows")
        cols = check_indices(cols, self._shape[1], "cols")
        values = np.asarray(values, dtype=np.float64)
        if not (rows.size == cols.size == values.size):
            raise FormatError("rows, cols, and values must have matching length")
        if rows.size:
            order = np.lexsort((cols, rows))
            rows, cols, values = rows[order], cols[order], values[order]
            keys = rows * self._shape[1] + cols
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            if unique_keys.size != keys.size:
                summed = np.zeros(unique_keys.size, dtype=np.float64)
                np.add.at(summed, inverse, values)
                rows = (unique_keys // self._shape[1]).astype(np.int64)
                cols = (unique_keys % self._shape[1]).astype(np.int64)
                values = summed
        self._rows = rows
        self._cols = cols
        self._values = values

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Build a COO matrix from a dense 2-D array, dropping zeros."""
        array = np.asarray(dense, dtype=np.float64)
        if array.ndim != 2:
            raise FormatError("from_dense requires a 2-D array")
        rows, cols = np.nonzero(array)
        return cls(array.shape, rows, cols, array[rows, cols])

    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self._values.size)

    @property
    def rows(self) -> np.ndarray:
        """Row indices of stored entries, sorted by ``(row, col)``."""
        return self._rows.copy()

    @property
    def cols(self) -> np.ndarray:
        """Column indices of stored entries, sorted by ``(row, col)``."""
        return self._cols.copy()

    @property
    def values(self) -> np.ndarray:
        """Values of stored entries, sorted by ``(row, col)``."""
        return self._values.copy()

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self._shape, dtype=np.float64)
        dense[self._rows, self._cols] = self._values
        return dense

    def to_coo_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rows, cols, values)`` arrays of all stored entries."""
        return self._rows.copy(), self._cols.copy(), self._values.copy()

    def __repr__(self) -> str:
        return f"COOMatrix(shape={self._shape}, nnz={self.nnz})"
