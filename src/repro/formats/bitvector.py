"""Packed bit-vector sparse vector format (Figure 1).

A bit-vector stores one bit per logical position; set bits mark non-zero
positions, and the corresponding values are stored contiguously in a
compressed data array. Bit-vectors are the substrate for Capstan's
vectorized sparse iteration: the scanner intersects or unions two
bit-vectors and emits dense and compressed indices (Section 2.2).

The occupancy lives natively in packed ``uint64`` words
(:mod:`repro.formats.packed`), matching the on-chip storage layout; the
dense boolean mask is only materialized (and cached) when explicitly
requested. Construction is array-native: ``numpy`` index/value arrays pass
straight through without Python-list round trips, and all validation is
vectorized.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..errors import FormatError
from . import packed


def _as_index_array(indices) -> np.ndarray:
    """Coerce an array-like or iterable of positions to an int64 array."""
    if isinstance(indices, np.ndarray):
        return indices.astype(np.int64, copy=False)
    if not isinstance(indices, (list, tuple, range)):
        indices = list(indices)
    return np.asarray(indices, dtype=np.int64)


def _as_value_array(values) -> np.ndarray:
    """Coerce an array-like or iterable of values to a float64 array."""
    if isinstance(values, np.ndarray):
        return values.astype(np.float64, copy=False)
    if not isinstance(values, (list, tuple, range)):
        values = list(values)
    return np.asarray(values, dtype=np.float64)


class BitVector:
    """A sparse vector stored as a packed bit mask plus compressed values.

    Attributes:
        length: Logical length of the vector (number of bit positions).
    """

    __slots__ = ("_length", "_indices", "_values", "_words", "_mask")

    def __init__(
        self,
        length: int,
        indices: Iterable[int],
        values: Optional[Iterable[float]] = None,
    ):
        if length < 0:
            raise FormatError("bit-vector length must be non-negative")
        self._length = int(length)
        index_array = _as_index_array(indices)
        if index_array.ndim != 1:
            raise FormatError("bit-vector indices must be one-dimensional")
        if index_array.size:
            if index_array.min() < 0 or index_array.max() >= self._length:
                raise FormatError("bit-vector indices out of range")
        order = np.argsort(index_array, kind="stable")
        sorted_indices = index_array[order]
        if sorted_indices.size > 1 and np.any(np.diff(sorted_indices) == 0):
            raise FormatError("bit-vector indices must be unique")
        self._indices = sorted_indices
        if values is None:
            self._values = np.ones(self._indices.size, dtype=np.float64)
        else:
            value_array = _as_value_array(values)
            if value_array.size != index_array.size:
                raise FormatError("bit-vector values must match indices in length")
            self._values = value_array[order]
        self._words: Optional[np.ndarray] = None
        self._mask: Optional[np.ndarray] = None

    @classmethod
    def _from_trusted(
        cls,
        length: int,
        sorted_indices: np.ndarray,
        values: Optional[np.ndarray] = None,
        words: Optional[np.ndarray] = None,
    ) -> "BitVector":
        """Internal fast path: pre-validated sorted indices, no copies.

        The batched format converter validates whole grids at once and
        hands each vector its slice (and packed words) directly.
        """
        vector = cls.__new__(cls)
        vector._length = int(length)
        vector._indices = sorted_indices
        if values is None:
            vector._values = np.ones(sorted_indices.size, dtype=np.float64)
        else:
            vector._values = values
        vector._words = words
        vector._mask = None
        return vector

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitVector":
        """Build a bit-vector from a dense 1-D array, dropping zeros."""
        array = np.asarray(dense, dtype=np.float64)
        if array.ndim != 1:
            raise FormatError("from_dense requires a 1-D array")
        indices = np.nonzero(array)[0]
        return cls._from_trusted(
            array.shape[0], indices.astype(np.int64), array[indices]
        )

    @classmethod
    def empty(cls, length: int) -> "BitVector":
        """An all-zero bit-vector of the given length."""
        if length < 0:
            raise FormatError("bit-vector length must be non-negative")
        return cls._from_trusted(length, np.empty(0, dtype=np.int64))

    @property
    def length(self) -> int:
        """Logical number of positions."""
        return self._length

    @property
    def nnz(self) -> int:
        """Number of set bits."""
        return int(self._indices.size)

    @property
    def density(self) -> float:
        """Fraction of positions that are set."""
        return self.nnz / self._length if self._length else 0.0

    @property
    def indices(self) -> np.ndarray:
        """Sorted positions of set bits."""
        return self._indices.copy()

    @property
    def values(self) -> np.ndarray:
        """Compressed values, aligned with :attr:`indices`."""
        return self._values.copy()

    @property
    def mask(self) -> np.ndarray:
        """Boolean occupancy mask of length :attr:`length`."""
        return self._occupancy().copy()

    @property
    def words(self) -> np.ndarray:
        """Packed 64-bit occupancy words (the native storage layout)."""
        return self._packed().copy()

    def _occupancy(self) -> np.ndarray:
        """Cached dense mask; internal callers must not mutate it."""
        if self._mask is None:
            mask = np.zeros(self._length, dtype=bool)
            mask[self._indices] = True
            self._mask = mask
        return self._mask

    def _packed(self) -> np.ndarray:
        """Cached packed words; internal callers must not mutate them."""
        if self._words is None:
            self._words = packed.pack_indices(self._indices, self._length)
        return self._words

    def _sorted_indices(self) -> np.ndarray:
        """Internal no-copy view of the sorted set-bit positions."""
        return self._indices

    def to_dense(self) -> np.ndarray:
        """Expand to a dense float64 array."""
        dense = np.zeros(self._length, dtype=np.float64)
        dense[self._indices] = self._values
        return dense

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return (
            self._length == other._length
            and np.array_equal(self._indices, other._indices)
            and np.allclose(self._values, other._values)
        )

    def __repr__(self) -> str:
        return f"BitVector(length={self._length}, nnz={self.nnz})"
