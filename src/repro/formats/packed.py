"""Packed-word bitset kernels: the array-native sparse format substrate.

Capstan stores occupancy as packed bit-vectors in SRAM words and operates on
whole words at a time (Sections 2.2-2.3): the scanner ANDs/ORs words, counts
set bits with popcount trees, and turns prefix-sum ranks into compressed
indices. This module is the software mirror of that substrate -- every
kernel is a vectorized ``numpy`` operation over ``uint64`` word arrays, and
everything downstream (:class:`~repro.formats.bitvector.BitVector`,
:class:`~repro.formats.bittree.BitTree`, the scanner batch path, the format
converter) is built on it.

Kernels:

* :func:`pack_indices` / :func:`pack_mask` -- set-bit positions or a boolean
  mask into packed ``uint64`` words;
* :func:`unpack_words` -- packed words back into a boolean mask;
* :func:`indices_from_words` -- packed words into sorted set-bit positions;
* :func:`popcount` -- per-word set-bit counts;
* :func:`rank_words` / :func:`rank` -- prefix-sum rank (set bits strictly
  before a word / a position), the compressed-index lookup;
* :func:`select` -- position of the ``k``-th set bit, rank's inverse;
* :func:`test_bits` -- membership of positions in a packed word array;
* :func:`intersect_words` / :func:`union_words` -- word-wise AND / OR.

Object-at-a-time reference implementations of the same kernels live in
:mod:`repro.formats.reference`; property tests pin the two element for
element.
"""

from __future__ import annotations

import sys

import numpy as np

from ..errors import FormatError

#: Bits per packed word: the substrate packs into 64-bit words natively.
WORD_BITS = 64

_LITTLE_ENDIAN = sys.byteorder == "little"


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


def pack_mask(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean occupancy mask into native 64-bit words."""
    array = np.asarray(mask, dtype=bool)
    if array.ndim != 1:
        raise FormatError("pack_mask requires a 1-D mask")
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian fallback
        return pack_indices(np.flatnonzero(array), array.size)
    words = np.zeros(word_count(array.size), dtype=np.uint64)
    if array.size:
        packed_bytes = np.packbits(array, bitorder="little")
        words.view(np.uint8)[: packed_bytes.size] = packed_bytes
    return words


def unpack_words(words: np.ndarray, length: int) -> np.ndarray:
    """Expand native 64-bit packed words into a boolean mask of ``length``."""
    array = np.ascontiguousarray(words, dtype=np.uint64)
    if length < 0:
        raise FormatError("length must be non-negative")
    if array.size * WORD_BITS < length:
        raise FormatError("packed words do not cover the requested length")
    if length == 0:
        return np.zeros(0, dtype=bool)
    if _LITTLE_ENDIAN:
        return np.unpackbits(
            array.view(np.uint8), count=length, bitorder="little"
        ).astype(bool)
    shifts = np.arange(WORD_BITS, dtype=np.uint64)  # pragma: no cover
    bits = (array[:, None] >> shifts) & np.uint64(1)  # pragma: no cover
    return bits.reshape(-1)[:length].astype(bool)  # pragma: no cover


def indices_from_words(words: np.ndarray, length: int) -> np.ndarray:
    """Sorted set-bit positions of a packed word array."""
    return np.flatnonzero(unpack_words(words, length)).astype(np.int64)


_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-word set-bit counts (the scanner's popcount tree)."""
    array = np.asarray(words, dtype=np.uint64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(array).astype(np.int64)
    if array.size == 0:  # pragma: no cover - numpy < 2.0 fallback
        return np.zeros(array.shape, dtype=np.int64)
    bits = np.unpackbits(  # pragma: no cover - numpy < 2.0 fallback
        np.ascontiguousarray(array).view(np.uint8)
    )
    counts = bits.reshape(array.size, 8 * array.itemsize).sum(  # pragma: no cover
        axis=1, dtype=np.int64
    )
    return counts.reshape(array.shape)  # pragma: no cover


def rank_words(words: np.ndarray) -> np.ndarray:
    """Set bits strictly before each word: an exclusive popcount prefix sum.

    ``rank_words(words)[w]`` is the compressed-array offset of word ``w``'s
    first set bit, exactly the per-word base the hardware prefix-sum network
    produces.
    """
    counts = popcount(words)
    ranks = np.empty(counts.size + 1, dtype=np.int64)
    ranks[0] = 0
    np.cumsum(counts, out=ranks[1:])
    return ranks[:-1]


def rank(words: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Set bits strictly before each position (the compressed-index lookup)."""
    array = np.asarray(words, dtype=np.uint64)
    pos = np.asarray(positions, dtype=np.int64)
    if pos.size and (pos.min() < 0 or pos.max() >= array.size * WORD_BITS):
        raise FormatError("rank position outside the packed words")
    word_ids = pos // WORD_BITS
    offsets = (pos % WORD_BITS).astype(np.uint64)
    below = array[word_ids] & ((np.uint64(1) << offsets) - np.uint64(1))
    return rank_words(array)[word_ids] + popcount(below)


def select(words: np.ndarray, ranks: np.ndarray, length: int) -> np.ndarray:
    """Position of the ``k``-th set bit for each ``k`` in ``ranks``."""
    set_positions = indices_from_words(words, length)
    rank_array = np.asarray(ranks, dtype=np.int64)
    if rank_array.size and (
        rank_array.min() < 0 or rank_array.max() >= set_positions.size
    ):
        raise FormatError("select rank exceeds the number of set bits")
    return set_positions[rank_array]


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


def intersect_words(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Word-wise AND of two packed occupancy arrays."""
    left, right = _check_same_words(a, b)
    return left & right


def union_words(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Word-wise OR of two packed occupancy arrays."""
    left, right = _check_same_words(a, b)
    return left | right


def _check_same_words(a: np.ndarray, b: np.ndarray):
    left = np.asarray(a, dtype=np.uint64)
    right = np.asarray(b, dtype=np.uint64)
    if left.shape != right.shape:
        raise FormatError(
            f"packed word arrays differ in shape: {left.shape} vs {right.shape}"
        )
    return left, right
