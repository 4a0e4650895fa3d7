"""Packed-word bitset kernels: the array-native bit-vector substrate.

Capstan stores occupancy as packed bit-vectors in SRAM words and operates on
whole words at a time (Sections 2.2-2.3). This module is the software mirror
of that storage: :class:`~repro.formats.bitvector.BitVector`,
:class:`~repro.formats.bittree.BitTree`, the scanner batch path and the
format converter all keep their occupancy as ``uint64`` word arrays built
and probed by these vectorized ``numpy`` kernels:

* :func:`word_count` -- words covering a bit length;
* :func:`pack_indices` -- set-bit positions into packed words;
* :func:`test_bits` -- membership of positions in a packed word array.

:func:`repro.formats.reference.pack_indices_reference` is the per-index
loop that property tests pin :func:`pack_indices` against.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError

#: Bits per packed word: the substrate packs into 64-bit words natively.
WORD_BITS = 64


def word_count(length: int, word_bits: int = WORD_BITS) -> int:
    """Number of ``word_bits``-bit words covering ``length`` bit positions."""
    if word_bits <= 0 or word_bits > 64:
        raise FormatError("word_bits must be in (0, 64]")
    if length < 0:
        raise FormatError("length must be non-negative")
    return (length + word_bits - 1) // word_bits


def pack_indices(
    indices: np.ndarray, length: int, word_bits: int = WORD_BITS
) -> np.ndarray:
    """Pack sorted-or-unsorted unique set-bit positions into words.

    Args:
        indices: Unique positions in ``[0, length)``.
        length: Logical bit length of the packed vector.
        word_bits: Word width; 64 is the native substrate width, 32 mirrors
            the on-chip SRAM word layout.

    Returns:
        A ``uint64`` array of ``word_count(length, word_bits)`` words, bit
        ``i % word_bits`` of word ``i // word_bits`` set for each index.
    """
    words = np.zeros(word_count(length, word_bits), dtype=np.uint64)
    index_array = np.asarray(indices, dtype=np.int64)
    if index_array.size == 0:
        return words
    if index_array.min() < 0 or index_array.max() >= length:
        raise FormatError("bit index out of range for packed length")
    if index_array.size > 1 and np.any(np.diff(index_array) < 0):
        index_array = np.sort(index_array)
    word_ids = index_array // word_bits
    bits = np.uint64(1) << (index_array % word_bits).astype(np.uint64)
    # Indices are sorted, so equal word ids form runs; OR each run in one
    # reduceat pass and scatter into the occupied words.
    starts = np.flatnonzero(
        np.concatenate(([True], word_ids[1:] != word_ids[:-1]))
    )
    words[word_ids[starts]] = np.bitwise_or.reduceat(bits, starts)
    return words


def test_bits(words: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Boolean membership of each position in the packed word array."""
    array = np.asarray(words, dtype=np.uint64)
    pos = np.asarray(positions, dtype=np.int64)
    if pos.size == 0:
        return np.zeros(0, dtype=bool)
    if pos.min() < 0 or pos.max() >= array.size * WORD_BITS:
        raise FormatError("bit position outside the packed words")
    bits = (array[pos // WORD_BITS] >> (pos % WORD_BITS).astype(np.uint64)) & np.uint64(1)
    return bits.astype(bool)
