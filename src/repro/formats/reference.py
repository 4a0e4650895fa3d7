"""Retained object-at-a-time reference implementations of the format layer.

The packed-word substrate (:mod:`repro.formats.packed`) and the array-native
:class:`~repro.formats.bitvector.BitVector` / :class:`~repro.formats.bittree.BitTree`
builders replaced element-at-a-time Python loops. Those loops are preserved
here, unchanged in behaviour, for two purposes:

* property tests pin each vectorized builder element-for-element against
  its reference twin (``tests/test_packed_formats.py``), and
* ``benchmarks/bench_runner.py`` times the bit-tree build against its
  reference for the ``formats`` section of ``BENCH_runner.json``.

Nothing in the library's hot paths calls into this module.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import FormatError
from .bittree import BitTree


def pack_indices_reference(
    indices: np.ndarray, length: int, word_bits: int = 64
) -> np.ndarray:
    """Per-index loop version of :func:`repro.formats.packed.pack_indices`."""
    if word_bits <= 0 or word_bits > 64:
        raise FormatError("word_bits must be in (0, 64]")
    words = np.zeros((length + word_bits - 1) // word_bits, dtype=np.uint64)
    for index in np.asarray(indices, dtype=np.int64).tolist():
        if index < 0 or index >= length:
            raise FormatError("bit index out of range for packed length")
        words[index // word_bits] |= np.uint64(1) << np.uint64(index % word_bits)
    return words


def bittree_from_indices_reference(
    length: int,
    indices: np.ndarray,
    values: np.ndarray,
    tile_bits: int = 512,
) -> BitTree:
    """The seed-era object-at-a-time bit-tree build: one ``set()`` per entry."""
    tree = BitTree(length, tile_bits)
    for index, value in zip(
        np.asarray(indices).tolist(), np.asarray(values).tolist()
    ):
        tree.set(int(index), float(value))
    return tree


def bitvector_construct_reference(
    length: int,
    indices,
    values=None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The seed-era list-round-trip bit-vector construction.

    Performs exactly the work the pre-substrate ``BitVector.__init__`` did --
    ``list()`` round trips, a second full sort for the duplicate check, and
    an eagerly materialized dense occupancy mask -- and returns the
    ``(sorted_indices, sorted_values, mask)`` artifacts for comparison
    against the array-native construction path.
    """
    index_array = np.asarray(list(indices), dtype=np.int64)
    if index_array.size:
        if index_array.min() < 0 or index_array.max() >= length:
            raise FormatError("bit-vector indices out of range")
        if np.any(np.diff(np.sort(index_array)) == 0):
            raise FormatError("bit-vector indices must be unique")
    order = np.argsort(index_array, kind="stable")
    sorted_indices = index_array[order]
    if values is None:
        sorted_values = np.ones(sorted_indices.size, dtype=np.float64)
    else:
        value_array = np.asarray(list(values), dtype=np.float64)
        if value_array.size != index_array.size:
            raise FormatError("bit-vector values must match indices in length")
        sorted_values = value_array[order]
    mask = np.zeros(length, dtype=bool)
    mask[sorted_indices] = True
    return sorted_indices, sorted_values, mask


__all__ = [
    "bittree_from_indices_reference",
    "bitvector_construct_reference",
    "pack_indices_reference",
]
