"""Common base types shared by all sparse tensor formats.

Every 2-D format in :mod:`repro.formats` implements the
:class:`SparseMatrixFormat` interface: a shape, a non-zero count, conversion
to a dense ``numpy`` array and to scipy COO triplets, and element access.
Formats are immutable value objects; construction validates the underlying
arrays so downstream hardware models can assume well-formed inputs.
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

from ..errors import FormatError


class SparseMatrixFormat(abc.ABC):
    """Abstract interface implemented by every 2-D sparse matrix format."""

    @property
    @abc.abstractmethod
    def shape(self) -> Tuple[int, int]:
        """Matrix dimensions as ``(rows, cols)``."""

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of explicitly stored entries."""

    @abc.abstractmethod
    def to_dense(self) -> np.ndarray:
        """Materialize the matrix as a dense float64 array."""

    @abc.abstractmethod
    def to_coo_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rows, cols, values)`` arrays of all stored entries.

        This is every format's vectorized primitive; each implementation
        produces the arrays directly from its compressed storage, in its
        storage order (row-major for CSR and COO, column-major for CSC).
        """

    @property
    def density(self) -> float:
        """Fraction of entries that are explicitly stored."""
        rows, cols = self.shape
        total = rows * cols
        return self.nnz / total if total else 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrixFormat):
            return NotImplemented
        if self.shape != other.shape:
            return False
        return np.allclose(self.to_dense(), other.to_dense())

    def __hash__(self) -> int:  # pragma: no cover - formats are not hashable
        raise TypeError(f"{type(self).__name__} objects are unhashable")


def check_shape(shape: Tuple[int, int]) -> Tuple[int, int]:
    """Validate and normalize a 2-D shape tuple."""
    if len(shape) != 2:
        raise FormatError(f"expected a 2-D shape, got {shape!r}")
    rows, cols = int(shape[0]), int(shape[1])
    if rows < 0 or cols < 0:
        raise FormatError(f"shape dimensions must be non-negative, got {shape!r}")
    return rows, cols


def check_indices(indices: np.ndarray, bound: int, name: str) -> np.ndarray:
    """Validate an index array is integral and within ``[0, bound)``."""
    array = np.asarray(indices)
    if array.size and not np.issubdtype(array.dtype, np.integer):
        raise FormatError(f"{name} must be integers")
    array = array.astype(np.int64, copy=False)
    if array.size:
        if array.min() < 0:
            raise FormatError(f"{name} contains negative indices")
        if array.max() >= bound:
            raise FormatError(
                f"{name} contains index {int(array.max())} outside dimension {bound}"
            )
    return array


def check_pointers(pointers: np.ndarray, segments: int, nnz: int, name: str) -> np.ndarray:
    """Validate a compressed-format pointer array.

    Pointer arrays (CSR row pointers, CSC column pointers) must have exactly
    ``segments + 1`` monotonically non-decreasing entries that start at zero
    and end at ``nnz``.
    """
    array = np.asarray(pointers).astype(np.int64, copy=False)
    if array.ndim != 1 or array.size != segments + 1:
        raise FormatError(f"{name} must have {segments + 1} entries, got {array.size}")
    if array.size:
        if array[0] != 0:
            raise FormatError(f"{name} must start at 0, got {int(array[0])}")
        if array[-1] != nnz:
            raise FormatError(f"{name} must end at nnz={nnz}, got {int(array[-1])}")
        if np.any(np.diff(array) < 0):
            raise FormatError(f"{name} must be monotonically non-decreasing")
    return array
