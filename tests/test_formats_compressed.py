"""Tests for the bit-vector and bit-tree formats."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.formats import BitTree, BitVector


class TestBitVector:
    def test_from_dense(self):
        bv = BitVector.from_dense(np.array([0.0, 1.0, 0.0, 2.0]))
        assert bv.nnz == 2
        assert bv.indices.tolist() == [1, 3]
        assert bv.values.tolist() == [1.0, 2.0]

    def test_mask_and_roundtrip(self):
        dense = np.array([0.0, 1.0, 0.0, 2.0, 0.0])
        bv = BitVector.from_dense(dense)
        assert bv.mask.tolist() == [False, True, False, True, False]
        assert np.array_equal(bv.to_dense(), dense)

    def test_duplicate_indices_rejected(self):
        with pytest.raises(FormatError):
            BitVector(4, [1, 1])

    @given(st.lists(st.integers(min_value=0, max_value=127), unique=True, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, indices):
        bv = BitVector(128, indices)
        assert sorted(indices) == bv.indices.tolist()
        assert np.count_nonzero(bv.to_dense()) == len(indices)


class TestBitTree:
    def test_from_dense_roundtrip(self):
        dense = np.zeros(2048)
        dense[[3, 600, 1500]] = [1.0, 2.0, 3.0]
        tree = BitTree.from_dense(dense)
        assert tree.indices().tolist() == [3, 600, 1500]
        assert tree.values().tolist() == [1.0, 2.0, 3.0]
        assert np.flatnonzero(tree.words.any(axis=1)).tolist() == [0, 1, 2]

    @pytest.mark.parametrize(
        "length, tile_bits",
        [(2048, 512), (1000, 512), (130, 64), (77, 10)],
    )
    def test_tile_geometry(self, length, tile_bits):
        indices = np.random.default_rng(length).choice(length, size=length // 9, replace=False)
        values = np.arange(1.0, indices.size + 1.0)
        tree = BitTree.from_indices(length, indices, values, tile_bits)
        assert tree.tile_count == -(-length // tile_bits)
        words = tree.words
        assert words.shape == (tree.tile_count, -(-tile_bits // 64))
        # Each position's bit sits in its tile's row at the in-tile offset.
        bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
        tiles, offsets = np.nonzero(bits)
        assert (tiles * tile_bits + offsets).tolist() == np.sort(indices).tolist()
        assert tree.indices().tolist() == np.sort(indices).tolist()

    def test_set_rejects_zero(self):
        tree = BitTree(1024)
        with pytest.raises(FormatError):
            tree.set(0, 0.0)
