"""Two-level bit-tree sparse vector format (Section 2.3, Figure 1).

Bit-vector sparsity breaks down for extremely sparse vectors (density well
below 1%): most scanned bits are zero, so vectorization gains nothing. The
bit-tree adds a top-level bit-vector whose set bits each point to a
fixed-size second-level bit-vector tile. A two-level tree with 512-bit tiles
can encode 262,144 positions in 512 top-level bits.

The tree's occupancy is stored as one dense ``(tiles, words_per_tile)``
``uint64`` matrix over the packed-word substrate
(:mod:`repro.formats.packed`): :meth:`BitTree.from_indices` packs every tile
in a single vectorized pass. The applications cost bit-tree traversal in
closed form (:mod:`repro.apps.scan_model`); this builder is what the
``formats`` benchmark times against the element-at-a-time
:func:`repro.formats.reference.bittree_from_indices_reference`.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError
from . import packed


class BitTree:
    """A two-level bit-tree over a logical vector of ``length`` positions."""

    def __init__(self, length: int, tile_bits: int = 512):
        if length < 0:
            raise FormatError("bit-tree length must be non-negative")
        if tile_bits <= 0:
            raise FormatError("tile_bits must be positive")
        self._length = int(length)
        self._tile_bits = int(tile_bits)
        self._words_per_tile = packed.word_count(self._tile_bits)
        self._indices = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=np.float64)
        self._words = np.zeros(
            (self.tile_count, self._words_per_tile), dtype=np.uint64
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray, tile_bits: int = 512) -> "BitTree":
        """Build a bit-tree from a dense 1-D array, dropping zeros."""
        array = np.asarray(dense, dtype=np.float64)
        if array.ndim != 1:
            raise FormatError("from_dense requires a 1-D array")
        indices = np.nonzero(array)[0].astype(np.int64)
        tree = cls(array.shape[0], tile_bits)
        tree._load_sorted(indices, array[indices])
        return tree

    @classmethod
    def from_indices(
        cls, length: int, indices: np.ndarray, values: np.ndarray, tile_bits: int = 512
    ) -> "BitTree":
        """Build a bit-tree from index/value arrays in one vectorized pass.

        Indices may be unsorted; duplicate indices keep the last value, and
        zero values are rejected, matching element-at-a-time :meth:`set`
        semantics.
        """
        tree = cls(length, tile_bits)
        index_array = np.asarray(indices, dtype=np.int64).reshape(-1)
        value_array = np.asarray(values, dtype=np.float64).reshape(-1)
        if index_array.size != value_array.size:
            raise FormatError("bit-tree indices and values must match in length")
        if index_array.size == 0:
            return tree
        if index_array.min() < 0 or index_array.max() >= tree._length:
            bad = index_array[(index_array < 0) | (index_array >= tree._length)][0]
            raise FormatError(f"index {int(bad)} out of range")
        if np.any(value_array == 0.0):
            raise FormatError("bit-tree entries must be non-zero")
        order = np.argsort(index_array, kind="stable")
        sorted_indices = index_array[order]
        sorted_values = value_array[order]
        # Stable sort keeps duplicates in input order; the last entry of
        # each equal run wins, like repeated set() calls.
        keep = np.concatenate((sorted_indices[1:] != sorted_indices[:-1], [True]))
        tree._load_sorted(sorted_indices[keep], sorted_values[keep])
        return tree

    def _load_sorted(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Install pre-validated sorted unique indices and pack all tiles."""
        self._indices = indices
        self._values = values
        if indices.size:
            # A position's bit in the flattened (tiles x words) matrix:
            # tile row times the padded tile width, plus the in-tile offset.
            flat_bits = (
                (indices // self._tile_bits) * (self._words_per_tile * packed.WORD_BITS)
                + indices % self._tile_bits
            )
            flat_words = packed.pack_indices(
                flat_bits, self.tile_count * self._words_per_tile * packed.WORD_BITS
            )
            self._words = flat_words.reshape(self.tile_count, self._words_per_tile)
        else:
            self._words = np.zeros(
                (self.tile_count, self._words_per_tile), dtype=np.uint64
            )

    @property
    def tile_count(self) -> int:
        """Number of tile slots covering the whole vector."""
        return (self._length + self._tile_bits - 1) // self._tile_bits

    @property
    def words(self) -> np.ndarray:
        """The dense ``(tiles, words_per_tile)`` packed occupancy matrix."""
        return self._words.copy()

    def set(self, index: int, value: float) -> None:
        """Set position ``index`` to ``value`` (value must be non-zero)."""
        if index < 0 or index >= self._length:
            raise FormatError(f"index {index} out of range")
        if value == 0.0:
            raise FormatError("bit-tree entries must be non-zero")
        slot = int(np.searchsorted(self._indices, index))
        if slot < self._indices.size and self._indices[slot] == index:
            self._values = self._values.copy()
            self._values[slot] = value
        else:
            self._indices = np.insert(self._indices, slot, index)
            self._values = np.insert(self._values, slot, value)
            tile_id = index // self._tile_bits
            self._words = self._words.copy()
            self._words[tile_id, (index % self._tile_bits) // packed.WORD_BITS] |= (
                np.uint64(1) << np.uint64((index % self._tile_bits) % packed.WORD_BITS)
            )

    def indices(self) -> np.ndarray:
        """All stored positions in ascending order."""
        return self._indices.copy()

    def values(self) -> np.ndarray:
        """Stored values aligned with :meth:`indices`."""
        return self._values.copy()
