"""Pointer-to-bit-vector format conversion hardware (Section 3.4).

Capstan's scanners operate on bit-vectors, but compressed pointer lists are
often more bandwidth-efficient to store in DRAM. Converting pointers to
bit-vectors inside the SpMU would require multiple read-modify-writes to
the same word (bank conflicts), so dedicated conversion hardware in the
compute tile performs the conversion as pointers stream in.

The model converts pointer tiles into bit-vector tiles, counts conversion
cycles (one pointer per lane per cycle), and reports the word-level write
conflicts that the dedicated hardware avoids relative to doing the same
conversion through the SpMU.

:meth:`FormatConverter.convert_many` is batched: it validates the whole
tile set at once, packs every tile's occupancy words in one pass over the
packed-word substrate, and aggregates :class:`ConversionStats` (including
the SpMU conflict count, a single vectorized distinct-key reduction) without
per-tile Python work. The per-tile loop is retained as
:meth:`FormatConverter.convert_many_reference` for equivalence pinning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .._budget import resolve_memory_budget
from ..errors import FormatError, SimulationError
from ..formats import packed
from ..formats.bitvector import BitVector


@dataclass(frozen=True)
class ConversionStats:
    """Cost accounting for one pointer-to-bit-vector conversion.

    Attributes:
        pointers: Pointers converted.
        cycles: Conversion cycles (``ceil(pointers / lanes)``).
        words_written: 32-bit bit-vector words produced.
        spmu_word_conflicts: Same-word updates that would have collided had
            the conversion been done with SpMU read-modify-writes instead.
    """

    pointers: int
    cycles: int
    words_written: int
    spmu_word_conflicts: int


def conversion_tile_bytes(length: int, pointers: int) -> int:
    """Working-set bytes one tile adds to a batched conversion (cost model).

    The tile's packed words plus the flat sort/id temporaries of its
    ``pointers`` entries; :meth:`FormatConverter.convert_many` chunks tiles
    so that each chunk's sum stays within the memory budget.
    """
    return packed.word_count(length) * 8 + pointers * 48 + 128


class FormatConverter:
    """Streaming pointer-to-bit-vector converter attached to a compute tile."""

    def __init__(self, lanes: int = 16, word_bits: int = 32):
        if lanes <= 0:
            raise SimulationError("lanes must be positive")
        if word_bits <= 0:
            raise SimulationError("word_bits must be positive")
        self._lanes = lanes
        self._word_bits = word_bits

    @property
    def lanes(self) -> int:
        """Pointers consumed per conversion cycle."""
        return self._lanes

    def _words_per_tile(self, length: int) -> int:
        """Output words per converted tile of ``length`` bit positions."""
        return (length + self._word_bits - 1) // self._word_bits

    def convert(
        self,
        length: int,
        pointers: np.ndarray,
        values: Optional[np.ndarray] = None,
    ) -> Tuple[BitVector, ConversionStats]:
        """Convert a pointer tile into a bit-vector tile.

        Args:
            length: Logical length of the output bit-vector.
            pointers: Sorted or unsorted unique pointer indices.
            values: Optional values aligned with ``pointers`` (defaults to 1).

        Returns:
            The bit-vector and the conversion cost statistics.
        """
        pointer_array = np.asarray(pointers, dtype=np.int64)
        if pointer_array.size and (
            pointer_array.min() < 0 or pointer_array.max() >= length
        ):
            raise SimulationError("pointer outside bit-vector length")
        if values is not None:
            value_array = np.asarray(values, dtype=np.float64)
            if value_array.size != pointer_array.size:
                raise SimulationError("values must align with pointers")
        else:
            value_array = None
        vector = BitVector(length, pointer_array, value_array)
        cycles = int(np.ceil(pointer_array.size / self._lanes)) if pointer_array.size else 0
        stats = ConversionStats(
            pointers=int(pointer_array.size),
            cycles=cycles,
            words_written=self._words_per_tile(length),
            spmu_word_conflicts=self._count_spmu_conflicts(pointer_array),
        )
        return vector, stats

    def convert_many(
        self,
        length: int,
        pointer_tiles: Iterable[np.ndarray],
        *,
        memory_budget: Optional[int] = None,
    ) -> Tuple[List[BitVector], ConversionStats]:
        """Convert a sequence of pointer tiles, aggregating the statistics.

        All tiles share one validation pass, one packed-word build, and one
        conflict reduction; statistics (cycles, words written, conflicts)
        come out of closed-form array expressions instead of a per-tile
        accumulation loop.

        Args:
            length: Logical length of every output bit-vector.
            pointer_tiles: Pointer tiles; any iterable (consumed lazily when
                chunking, so generators stream without materializing).
            memory_budget: Byte budget for the batched build's working set;
                tiles are converted chunk by chunk under it. Conversion
                state restarts at tile boundaries and the statistics are
                per-tile sums, so the chunked result is identical to the
                unchunked one. ``None`` defers to ``REPRO_MEMORY_BUDGET``.
        """
        budget = resolve_memory_budget(memory_budget)
        if budget is None:
            return self._convert_chunk(
                length, [np.asarray(tile, dtype=np.int64) for tile in pointer_tiles]
            )

        vectors: List[BitVector] = []
        totals = np.zeros(4, dtype=np.int64)
        chunk: List[np.ndarray] = []
        chunk_bytes = 0

        def _flush() -> None:
            nonlocal chunk, chunk_bytes
            chunk_vectors, stats = self._convert_chunk(length, chunk)
            vectors.extend(chunk_vectors)
            totals[0] += stats.pointers
            totals[1] += stats.cycles
            totals[2] += stats.words_written
            totals[3] += stats.spmu_word_conflicts
            chunk = []
            chunk_bytes = 0

        for tile in pointer_tiles:
            tile_array = np.asarray(tile, dtype=np.int64)
            tile_bytes = conversion_tile_bytes(length, tile_array.size)
            if chunk and chunk_bytes + tile_bytes > budget:
                _flush()
            chunk.append(tile_array)
            chunk_bytes += tile_bytes
        if chunk:
            _flush()
        return vectors, ConversionStats(
            pointers=int(totals[0]),
            cycles=int(totals[1]),
            words_written=int(totals[2]),
            spmu_word_conflicts=int(totals[3]),
        )

    def _convert_chunk(
        self, length: int, tile_arrays: List[np.ndarray]
    ) -> Tuple[List[BitVector], ConversionStats]:
        """The single-pass batched build over one chunk of tiles."""
        if any(tile.ndim != 1 for tile in tile_arrays):
            raise FormatError("bit-vector indices must be one-dimensional")
        sizes = np.asarray([tile.size for tile in tile_arrays], dtype=np.int64)
        n_tiles = int(sizes.size)
        if n_tiles == 0:
            return [], ConversionStats(0, 0, 0, 0)
        flat = (
            np.concatenate(tile_arrays)
            if sizes.sum()
            else np.empty(0, dtype=np.int64)
        )
        if flat.size and (flat.min() < 0 or flat.max() >= length):
            raise SimulationError("pointer outside bit-vector length")
        tile_ids = np.repeat(np.arange(n_tiles, dtype=np.int64), sizes)
        order = np.lexsort((flat, tile_ids))
        sorted_flat = flat[order]
        sorted_tiles = tile_ids[order]
        if flat.size > 1:
            duplicate = (sorted_flat[1:] == sorted_flat[:-1]) & (
                sorted_tiles[1:] == sorted_tiles[:-1]
            )
            if np.any(duplicate):
                raise FormatError("bit-vector indices must be unique")

        # One flat packed build covering every tile: bit position = tile row
        # times the padded tile width, plus the in-tile pointer.
        words_per_tile64 = packed.word_count(length)
        flat_bits = sorted_tiles * (words_per_tile64 * packed.WORD_BITS) + sorted_flat
        all_words = packed.pack_indices(
            flat_bits, n_tiles * words_per_tile64 * packed.WORD_BITS
        ).reshape(n_tiles, words_per_tile64)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        vectors = [
            BitVector._from_trusted(
                length,
                sorted_flat[offsets[i] : offsets[i + 1]],
                None,
                all_words[i],
            )
            for i in range(n_tiles)
        ]

        stats = ConversionStats(
            pointers=int(sizes.sum()),
            cycles=int(((sizes + self._lanes - 1) // self._lanes).sum()),
            words_written=n_tiles * self._words_per_tile(length),
            spmu_word_conflicts=self._count_conflicts_batch(flat, tile_ids, sizes),
        )
        return vectors, stats

    def convert_many_reference(
        self, length: int, pointer_tiles: Sequence[np.ndarray]
    ) -> Tuple[List[BitVector], ConversionStats]:
        """The retained tile-at-a-time conversion loop (equivalence reference)."""
        vectors: List[BitVector] = []
        pointers = 0
        cycles = 0
        words = 0
        conflicts = 0
        for tile in pointer_tiles:
            pointer_array = np.asarray(tile, dtype=np.int64)
            if pointer_array.size and (
                pointer_array.min() < 0 or pointer_array.max() >= length
            ):
                raise SimulationError("pointer outside bit-vector length")
            vectors.append(BitVector(length, pointer_array))
            pointers += int(pointer_array.size)
            cycles += (
                int(np.ceil(pointer_array.size / self._lanes))
                if pointer_array.size
                else 0
            )
            words += self._words_per_tile(length)
            conflicts += self._count_spmu_conflicts_reference(pointer_array)
        return vectors, ConversionStats(
            pointers=pointers,
            cycles=cycles,
            words_written=words,
            spmu_word_conflicts=conflicts,
        )

    def _count_spmu_conflicts(self, pointers: np.ndarray) -> int:
        """Same-word collisions a vectorized SpMU conversion would incur.

        Processing ``lanes`` pointers per cycle, any two pointers in the same
        cycle that touch the same 32-bit word would serialize in the SpMU.
        Conflicts are total pointers minus distinct ``(cycle, word)`` keys,
        counted in one vectorized unique pass.
        """
        if pointers.size == 0:
            return 0
        chunk_ids = np.arange(pointers.size, dtype=np.int64) // self._lanes
        words = pointers // self._word_bits
        keys = chunk_ids * self._words_per_tile(int(pointers.max()) + 1) + words
        return int(pointers.size - np.unique(keys).size)

    def _count_conflicts_batch(
        self, flat: np.ndarray, tile_ids: np.ndarray, sizes: np.ndarray
    ) -> int:
        """Aggregate SpMU conflicts across all tiles in one unique pass.

        Lane chunking restarts at every tile boundary, exactly as the
        per-tile conversion loop would chunk each tile independently.
        """
        if flat.size == 0:
            return 0
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        within_tile = np.arange(flat.size, dtype=np.int64) - offsets[tile_ids]
        chunk_ids = within_tile // self._lanes
        words = flat // self._word_bits
        words_bound = self._words_per_tile(int(flat.max()) + 1)
        chunks_bound = int(chunk_ids.max()) + 1
        keys = (tile_ids * chunks_bound + chunk_ids) * words_bound + words
        return int(flat.size - np.unique(keys).size)

    def _count_spmu_conflicts_reference(self, pointers: np.ndarray) -> int:
        """The retained per-chunk conflict loop (equivalence reference)."""
        conflicts = 0
        for start in range(0, pointers.size, self._lanes):
            chunk_words = pointers[start : start + self._lanes] // self._word_bits
            unique = np.unique(chunk_words)
            conflicts += int(chunk_words.size - unique.size)
        return conflicts
