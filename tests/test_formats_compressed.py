"""Tests for DCSR/DCSC, BCSR, banded, bit-vector, and bit-tree formats."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.formats import (
    BandedMatrix,
    BCSRMatrix,
    BitTree,
    BitVector,
    DCSCMatrix,
    CSRMatrix,
    DCSRMatrix,
    align_trees,
)


class TestDCSR:
    def test_drops_empty_rows(self, small_dense):
        matrix = DCSRMatrix.from_dense(small_dense)
        assert matrix.stored_rows == 3
        assert matrix.row_ids.tolist() == [0, 2, 3]

    def test_roundtrip(self, small_dense):
        assert np.array_equal(DCSRMatrix.from_dense(small_dense).to_dense(), small_dense)

    def test_from_csr_keeps_entries_and_drops_empty_rows(self):
        dense = np.zeros((6, 5))
        dense[[1, 1, 4], [0, 3, 2]] = [1.0, 2.0, 3.0]
        matrix = DCSRMatrix.from_csr(CSRMatrix.from_dense(dense))
        assert matrix.row_ids.tolist() == [1, 4]
        assert matrix.nnz == 3
        assert np.array_equal(matrix.to_dense(), dense)

    def test_row_slice(self, small_dense):
        matrix = DCSRMatrix.from_dense(small_dense)
        row_id, cols, values = matrix.row_slice(1)
        assert row_id == 2
        assert cols.tolist() == [0, 1, 3]
        assert values.tolist() == [3.0, 4.0, 5.0]

    def test_storage_smaller_than_csr_for_hypersparse(self):
        dense = np.zeros((100, 100))
        dense[3, 7] = 1.0
        dcsr = DCSRMatrix.from_dense(dense)
        assert dcsr.storage_bytes() < CSRMatrix.from_dense(dense).storage_bytes()

    def test_out_of_range_slice(self, small_dense):
        with pytest.raises(FormatError):
            DCSRMatrix.from_dense(small_dense).row_slice(99)


class TestDCSC:
    def test_roundtrip(self, small_dense):
        assert np.array_equal(DCSCMatrix.from_dense(small_dense).to_dense(), small_dense)

    def test_stored_cols(self, small_dense):
        matrix = DCSCMatrix.from_dense(small_dense)
        assert matrix.stored_cols == 4  # every column of the fixture is non-empty

    def test_iter_nonzeros_matches(self, small_dense):
        matrix = DCSCMatrix.from_dense(small_dense)
        triples = set(matrix.iter_nonzeros())
        expected = {(r, c, small_dense[r, c]) for r, c in zip(*np.nonzero(small_dense))}
        assert triples == expected


class TestBCSR:
    def test_roundtrip(self):
        dense = np.zeros((8, 8))
        dense[0:2, 0:2] = 1.0
        dense[4, 6] = 3.0
        matrix = BCSRMatrix.from_dense(dense, block_size=2)
        assert np.array_equal(matrix.to_dense(), dense)

    def test_block_count_and_fill(self):
        dense = np.zeros((4, 4))
        dense[0, 0] = 1.0
        matrix = BCSRMatrix.from_dense(dense, block_size=2)
        assert matrix.block_count == 1
        assert matrix.stored_elements == 4
        assert matrix.block_fill_ratio() == pytest.approx(0.25)

    def test_dimension_must_divide(self):
        with pytest.raises(FormatError):
            BCSRMatrix.from_dense(np.zeros((5, 4)), block_size=2)

    def test_nnz_excludes_padding_zeros(self):
        dense = np.zeros((4, 4))
        dense[0, 0] = 1.0
        dense[1, 1] = 2.0
        matrix = BCSRMatrix.from_dense(dense, block_size=2)
        assert matrix.nnz == 2


class TestBanded:
    def test_roundtrip_tridiagonal(self):
        dense = np.diag(np.arange(1.0, 6.0)) + np.diag(np.ones(4), 1)
        matrix = BandedMatrix.from_dense(dense, offsets=[0, 1])
        assert np.array_equal(matrix.to_dense(), dense)

    def test_offsets_sorted(self):
        dense = np.eye(4)
        matrix = BandedMatrix.from_dense(dense, offsets=[0])
        assert matrix.offsets == [0]

    def test_missing_diagonal_raises(self):
        matrix = BandedMatrix.from_dense(np.eye(3), offsets=[0])
        with pytest.raises(FormatError):
            matrix.diagonal(1)

    def test_negative_offset(self):
        dense = np.diag(np.ones(3), -1)
        matrix = BandedMatrix.from_dense(dense, offsets=[-1])
        assert np.array_equal(matrix.to_dense(), dense)


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

    def test_intersect_union_masks(self):
        a = BitVector(6, [0, 2, 4])
        b = BitVector(6, [2, 3, 4])
        assert np.nonzero(a.intersect_mask(b))[0].tolist() == [2, 4]
        assert np.nonzero(a.union_mask(b))[0].tolist() == [0, 2, 3, 4]

    def test_compressed_position(self):
        bv = BitVector(8, [1, 4, 6])
        assert bv.compressed_position(4) == 1
        with pytest.raises(FormatError):
            bv.compressed_position(2)

    def test_packed_words(self):
        bv = BitVector(40, [0, 33])
        words = bv.packed_words(32)
        assert words[0] == 1
        assert words[1] == 2

    def test_duplicate_indices_rejected(self):
        with pytest.raises(FormatError):
            BitVector(4, [1, 1])

    def test_length_mismatch_rejected(self):
        a = BitVector(4, [0])
        b = BitVector(5, [0])
        with pytest.raises(FormatError):
            a.intersect_mask(b)

    def test_storage_bits(self):
        bv = BitVector(64, [0, 1, 2])
        assert bv.storage_bits() == 64 + 3 * 32

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
        assert np.array_equal(tree.to_dense(), dense)
        assert tree.occupied_tiles == 3

    def test_top_level(self):
        dense = np.zeros(2048)
        dense[[3, 600]] = 1.0
        tree = BitTree.from_dense(dense)
        assert tree.top_level().indices.tolist() == [0, 1]

    def test_storage_beats_bitvector_when_hypersparse(self):
        dense = np.zeros(262_144)
        dense[5] = 1.0
        tree = BitTree.from_dense(dense)
        bv = BitVector.from_dense(dense)
        assert tree.storage_bits() < bv.storage_bits()

    @pytest.mark.parametrize(
        "length, tile_bits",
        [(2048, 512), (1000, 512), (130, 64), (77, 10)],
    )
    def test_tile_geometry(self, length, tile_bits):
        indices = np.random.default_rng(length).choice(length, size=length // 9, replace=False)
        values = np.arange(1.0, indices.size + 1.0)
        tree = BitTree.from_indices(length, indices, values, tile_bits)
        assert tree.tile_count == -(-length // tile_bits)
        # Tiles cover the vector exactly; only the last may be short.
        lengths = [tree.tile_length(t) for t in range(tree.tile_count)]
        assert sum(lengths) == length
        assert all(n == tile_bits for n in lengths[:-1])
        assert tree.occupied_tile_ids().tolist() == np.unique(indices // tile_bits).tolist()
        flat = tree.to_bitvector()
        assert flat.length == length
        assert np.array_equal(flat.to_dense(), tree.to_dense())
        with pytest.raises(FormatError):
            tree.tile_length(tree.tile_count)

    def test_set_rejects_zero(self):
        tree = BitTree(1024)
        with pytest.raises(FormatError):
            tree.set(0, 0.0)

    def test_align_union_and_intersect(self):
        a = BitTree.from_dense(np.concatenate([np.ones(10), np.zeros(1014)]))
        b_dense = np.zeros(1024)
        b_dense[600] = 1.0
        b = BitTree.from_dense(b_dense)
        union = align_trees(a, b, "union")
        intersect = align_trees(a, b, "intersect")
        assert [tile_id for tile_id, _, _ in union] == [0, 1]
        assert intersect == []

    def test_align_rejects_mismatched(self):
        with pytest.raises(FormatError):
            align_trees(BitTree(1024), BitTree(2048))
