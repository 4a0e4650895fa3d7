"""Dense matrix and vector wrappers.

Dense storage is the degenerate "format" in the sparse-iteration taxonomy:
every dimension is iterated with a counter. It exists so applications can
mix dense operands (e.g. the input vector of CSR SpMV, PageRank rank
vectors) with compressed ones through a uniform interface.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import FormatError
from .base import SparseMatrixFormat, check_shape


class DenseMatrix(SparseMatrixFormat):
    """A dense 2-D matrix stored as a contiguous float64 array."""

    def __init__(self, data: np.ndarray):
        array = np.asarray(data, dtype=np.float64)
        if array.ndim != 2:
            raise FormatError(f"DenseMatrix requires a 2-D array, got ndim={array.ndim}")
        self._data = np.ascontiguousarray(array)

    @classmethod
    def zeros(cls, shape: Tuple[int, int]) -> "DenseMatrix":
        """Create an all-zero dense matrix of the given shape."""
        rows, cols = check_shape(shape)
        return cls(np.zeros((rows, cols), dtype=np.float64))

    @property
    def shape(self) -> Tuple[int, int]:
        return self._data.shape  # type: ignore[return-value]

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self._data))

    @property
    def data(self) -> np.ndarray:
        """The underlying dense array (read-only view)."""
        view = self._data.view()
        view.setflags(write=False)
        return view

    def to_dense(self) -> np.ndarray:
        return self._data.copy()

    def to_coo_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rows, cols, values)`` arrays of all stored entries."""
        rows, cols = np.nonzero(self._data)
        return (
            rows.astype(np.int64),
            cols.astype(np.int64),
            self._data[rows, cols],
        )

    def __repr__(self) -> str:
        return f"DenseMatrix(shape={self.shape}, nnz={self.nnz})"


class DenseVector:
    """A dense 1-D vector of float64 values."""

    def __init__(self, data: np.ndarray):
        array = np.asarray(data, dtype=np.float64)
        if array.ndim != 1:
            raise FormatError(f"DenseVector requires a 1-D array, got ndim={array.ndim}")
        self._data = np.ascontiguousarray(array)

    @classmethod
    def zeros(cls, length: int) -> "DenseVector":
        """Create an all-zero vector of ``length`` elements."""
        if length < 0:
            raise FormatError("vector length must be non-negative")
        return cls(np.zeros(length, dtype=np.float64))

    @property
    def length(self) -> int:
        """Number of elements in the vector."""
        return self._data.shape[0]

    @property
    def nnz(self) -> int:
        """Number of non-zero elements."""
        return int(np.count_nonzero(self._data))

    @property
    def density(self) -> float:
        """Fraction of elements that are non-zero."""
        return self.nnz / self.length if self.length else 0.0

    @property
    def data(self) -> np.ndarray:
        """The underlying dense array (read-only view)."""
        view = self._data.view()
        view.setflags(write=False)
        return view

    def nonzero_indices(self) -> np.ndarray:
        """Indices of non-zero elements in ascending order."""
        return np.nonzero(self._data)[0].astype(np.int64)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, index: int) -> float:
        return float(self._data[index])

    def __repr__(self) -> str:
        return f"DenseVector(length={self.length}, nnz={self.nnz})"
