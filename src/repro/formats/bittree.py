"""Two-level bit-tree sparse vector format (Section 2.3, Figure 1).

Bit-vector sparsity breaks down for extremely sparse vectors (density well
below 1%): most scanned bits are zero, so vectorization gains nothing. The
bit-tree adds a top-level bit-vector whose set bits each point to a
fixed-size second-level bit-vector tile. A two-level tree with 512-bit tiles
can encode 262,144 positions in 512 top-level bits.

Streaming iteration over two bit-trees uses a two-pass algorithm: the first
pass intersects/unions the top-level vectors to realign the second-level
tiles (dropping unmatched tiles for intersection, inserting zero tiles for
union), then nested sparse-sparse loops process the aligned tiles.

The tree's occupancy is stored as one dense ``(tiles, words_per_tile)``
``uint64`` matrix over the packed-word substrate
(:mod:`repro.formats.packed`): :meth:`BitTree.from_dense` and
:meth:`BitTree.from_indices` pack every tile in a single vectorized pass,
tile occupancy is a per-row popcount, and :func:`align_trees` realigns two
trees with array operations instead of Python set arithmetic.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..errors import FormatError
from . import packed
from .bitvector import BitVector


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
        self._tile_cache: Dict[int, BitVector] = {}

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
        self._tile_cache = {}

    @property
    def length(self) -> int:
        """Logical number of positions."""
        return self._length

    @property
    def tile_bits(self) -> int:
        """Positions covered by each second-level tile."""
        return self._tile_bits

    @property
    def tile_count(self) -> int:
        """Number of tile slots covering the whole vector."""
        return (self._length + self._tile_bits - 1) // self._tile_bits

    @property
    def nnz(self) -> int:
        """Number of stored non-zero positions."""
        return int(self._indices.size)

    @property
    def words(self) -> np.ndarray:
        """The dense ``(tiles, words_per_tile)`` packed occupancy matrix."""
        return self._words.copy()

    @property
    def occupied_tiles(self) -> int:
        """Number of second-level tiles with at least one set bit."""
        return int(self.occupied_tile_ids().size)

    def occupied_tile_ids(self) -> np.ndarray:
        """Sorted ids of tiles with at least one set bit."""
        if self._indices.size == 0:
            return np.empty(0, dtype=np.int64)
        tile_ids = self._indices // self._tile_bits
        keep = np.concatenate(([True], tile_ids[1:] != tile_ids[:-1]))
        return tile_ids[keep]

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
        self._tile_cache = {}

    def top_level(self) -> BitVector:
        """The top-level bit-vector: one bit per occupied tile slot."""
        return BitVector._from_trusted(self.tile_count, self.occupied_tile_ids())

    def tile_length(self, tile_id: int) -> int:
        """Logical positions covered by tile ``tile_id``."""
        if tile_id < 0 or tile_id >= self.tile_count:
            raise FormatError(f"tile {tile_id} out of range")
        return min(self._tile_bits, self._length - tile_id * self._tile_bits)

    def tile(self, tile_id: int) -> BitVector:
        """Return the second-level tile ``tile_id`` (empty if unoccupied)."""
        cached = self._tile_cache.get(tile_id)
        if cached is not None:
            return cached
        tile_len = self.tile_length(tile_id)
        base = tile_id * self._tile_bits
        start = int(np.searchsorted(self._indices, base))
        end = int(np.searchsorted(self._indices, base + self._tile_bits))
        vector = BitVector._from_trusted(
            tile_len,
            self._indices[start:end] - base,
            self._values[start:end],
            self._words[tile_id, : packed.word_count(tile_len)],
        )
        self._tile_cache[tile_id] = vector
        return vector

    def iter_tiles(self) -> Iterator[Tuple[int, BitVector]]:
        """Yield ``(tile_id, tile)`` for occupied tiles in ascending order."""
        for tile_id in self.occupied_tile_ids().tolist():
            yield tile_id, self.tile(tile_id)

    def to_dense(self) -> np.ndarray:
        """Expand to a dense float64 array."""
        dense = np.zeros(self._length, dtype=np.float64)
        dense[self._indices] = self._values
        return dense

    def to_bitvector(self) -> BitVector:
        """Flatten the tree into a single (long) bit-vector."""
        return BitVector._from_trusted(
            self._length, self._indices.copy(), self._values.copy()
        )

    def indices(self) -> np.ndarray:
        """All stored positions in ascending order."""
        return self._indices.copy()

    def values(self) -> np.ndarray:
        """Stored values aligned with :meth:`indices`."""
        return self._values.copy()

    def storage_bits(self) -> int:
        """Bits to store the top-level vector, occupied tiles, and values."""
        top = self.tile_count
        occupied = self.occupied_tile_ids()
        tiles = int(
            np.minimum(
                self._tile_bits, self._length - occupied * self._tile_bits
            ).sum()
        )
        values = 32 * self.nnz
        return top + tiles + values

    def __repr__(self) -> str:
        return (
            f"BitTree(length={self._length}, tile_bits={self._tile_bits}, "
            f"tiles={self.occupied_tiles}, nnz={self.nnz})"
        )


def align_trees(
    left: BitTree, right: BitTree, mode: str = "union"
) -> List[Tuple[int, BitVector, BitVector]]:
    """Realign two bit-trees' second-level tiles (the first streaming pass).

    The top-level combination is pure array arithmetic over the trees'
    occupied-tile id arrays; only the selected tiles are materialized.

    Args:
        left: First operand.
        right: Second operand.
        mode: ``"union"`` keeps tiles occupied in either tree, inserting
            zero tiles for the missing side; ``"intersect"`` keeps only tiles
            occupied in both trees.

    Returns:
        A list of ``(tile_id, left_tile, right_tile)`` triples ordered by
        tile id, ready for nested sparse-sparse iteration.
    """
    if left.length != right.length or left.tile_bits != right.tile_bits:
        raise FormatError("bit-trees must have matching length and tile size")
    if mode not in ("union", "intersect"):
        raise FormatError(f"unknown alignment mode {mode!r}")
    left_ids = left.occupied_tile_ids()
    right_ids = right.occupied_tile_ids()
    if mode == "union":
        selected = np.union1d(left_ids, right_ids)
    else:
        selected = np.intersect1d(left_ids, right_ids, assume_unique=True)
    return [
        (tile_id, left.tile(tile_id), right.tile(tile_id))
        for tile_id in selected.tolist()
    ]
