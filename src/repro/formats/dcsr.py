"""Doubly-compressed sparse row/column (DCSR / DCSC) formats (Table 1).

DCSR compresses the row dimension as well: only rows containing at least one
non-zero are stored, each with its own compressed column list. DCSC is the
column-major mirror. These formats matter for hypersparse matrices where
most rows (or columns) are entirely empty.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import FormatError
from .base import SparseMatrixFormat, check_indices, check_pointers, check_shape
from .csr import CSRMatrix


class DCSRMatrix(SparseMatrixFormat):
    """A doubly-compressed sparse row matrix.

    Stores the indices of non-empty rows, a pointer array over those rows,
    and compressed column/value arrays.
    """

    def __init__(
        self,
        shape: Tuple[int, int],
        row_ids: np.ndarray,
        row_pointers: np.ndarray,
        col_indices: np.ndarray,
        values: np.ndarray,
    ):
        self._shape = check_shape(shape)
        self._row_ids = check_indices(row_ids, self._shape[0], "row_ids")
        if self._row_ids.size > 1 and np.any(np.diff(self._row_ids) <= 0):
            raise FormatError("row_ids must be strictly increasing")
        values = np.asarray(values, dtype=np.float64)
        col_indices = check_indices(col_indices, self._shape[1], "col_indices")
        if values.shape != col_indices.shape:
            raise FormatError("values and col_indices must have matching length")
        self._row_pointers = check_pointers(
            row_pointers, self._row_ids.size, values.size, "row_pointers"
        )
        if np.any(np.diff(self._row_pointers) == 0):
            raise FormatError("DCSR stored rows must be non-empty")
        self._col_indices = col_indices
        self._values = values

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "DCSRMatrix":
        """Build a DCSR matrix from a dense 2-D array, dropping zeros."""
        return cls.from_csr(CSRMatrix.from_dense(dense))

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "DCSRMatrix":
        """Build a DCSR matrix by dropping empty rows from a CSR matrix."""
        lengths = csr.row_lengths()
        row_ids = np.nonzero(lengths)[0].astype(np.int64)
        row_pointers = np.concatenate(
            ([0], np.cumsum(lengths[row_ids]))
        ).astype(np.int64)
        # Empty rows contribute no entries, so the compressed column/value
        # arrays carry over verbatim; only the pointer array re-indexes.
        return cls(csr.shape, row_ids, row_pointers, csr.col_indices, csr.values)

    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self._values.size)

    @property
    def stored_rows(self) -> int:
        """Number of non-empty rows actually stored."""
        return int(self._row_ids.size)

    @property
    def row_ids(self) -> np.ndarray:
        """Indices of the stored (non-empty) rows."""
        return self._row_ids.copy()

    def row_slice(self, stored_index: int) -> Tuple[int, np.ndarray, np.ndarray]:
        """Return ``(row_id, col_indices, values)`` of stored row ``stored_index``."""
        if stored_index < 0 or stored_index >= self.stored_rows:
            raise FormatError(f"stored row {stored_index} out of range")
        start = self._row_pointers[stored_index]
        end = self._row_pointers[stored_index + 1]
        return (
            int(self._row_ids[stored_index]),
            self._col_indices[start:end].copy(),
            self._values[start:end].copy(),
        )

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self._shape, dtype=np.float64)
        rows, cols, values = self.to_coo_arrays()
        dense[rows, cols] = values
        return dense

    def to_csr(self) -> CSRMatrix:
        """Expand back to plain CSR (reinstating empty rows)."""
        return CSRMatrix.from_dense(self.to_dense())

    def to_coo_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rows, cols, values)`` arrays of all stored entries."""
        rows = np.repeat(self._row_ids, np.diff(self._row_pointers))
        return rows, self._col_indices.copy(), self._values.copy()

    def storage_bytes(self) -> int:
        """Bytes for row ids, pointers, column indices, and values (32-bit)."""
        return 4 * (
            self._row_ids.size
            + self._row_pointers.size
            + self._col_indices.size
            + self._values.size
        )

    def __repr__(self) -> str:
        return (
            f"DCSRMatrix(shape={self._shape}, stored_rows={self.stored_rows}, "
            f"nnz={self.nnz})"
        )


class DCSCMatrix(SparseMatrixFormat):
    """A doubly-compressed sparse column matrix (column-major mirror of DCSR)."""

    def __init__(self, transpose_dcsr: DCSRMatrix, shape: Tuple[int, int]):
        self._shape = check_shape(shape)
        if transpose_dcsr.shape != (self._shape[1], self._shape[0]):
            raise FormatError("transpose_dcsr shape must be the transpose of shape")
        self._transposed = transpose_dcsr

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "DCSCMatrix":
        """Build a DCSC matrix from a dense 2-D array, dropping zeros."""
        array = np.asarray(dense, dtype=np.float64)
        if array.ndim != 2:
            raise FormatError("from_dense requires a 2-D array")
        return cls(DCSRMatrix.from_dense(array.T), array.shape)

    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return self._transposed.nnz

    @property
    def stored_cols(self) -> int:
        """Number of non-empty columns actually stored."""
        return self._transposed.stored_rows

    def col_slice(self, stored_index: int) -> Tuple[int, np.ndarray, np.ndarray]:
        """Return ``(col_id, row_indices, values)`` of stored column ``stored_index``."""
        return self._transposed.row_slice(stored_index)

    def to_dense(self) -> np.ndarray:
        return self._transposed.to_dense().T

    def to_coo_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rows, cols, values)`` arrays, ordered by ``(col, row)``."""
        cols, rows, values = self._transposed.to_coo_arrays()
        return rows, cols, values

    def storage_bytes(self) -> int:
        """Bytes for column ids, pointers, row indices, and values (32-bit)."""
        return self._transposed.storage_bytes()

    def __repr__(self) -> str:
        return (
            f"DCSCMatrix(shape={self._shape}, stored_cols={self.stored_cols}, "
            f"nnz={self.nnz})"
        )
