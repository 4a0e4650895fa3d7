"""Tests for the CSR, CSC, and COO formats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats import COOMatrix, CSCMatrix, CSRMatrix


class TestCSRMatrix:
    def test_from_dense_roundtrip(self, small_dense):
        matrix = CSRMatrix.from_dense(small_dense)
        assert np.array_equal(matrix.to_dense(), small_dense)

    def test_nnz_and_shape(self, small_csr):
        assert small_csr.nnz == 6
        assert small_csr.shape == (4, 4)

    def test_row_lengths(self, small_csr):
        assert small_csr.row_lengths().tolist() == [2, 0, 3, 1]

    def test_row_slice(self, small_csr):
        cols, values = small_csr.row_slice(2)
        assert cols.tolist() == [0, 1, 3]
        assert values.tolist() == [3.0, 4.0, 5.0]

    def test_from_coo_arrays_sums_duplicates(self):
        matrix = CSRMatrix.from_coo_arrays(
            (2, 2),
            np.array([0, 0, 1]),
            np.array([1, 1, 0]),
            np.array([1.0, 2.0, 3.0]),
        )
        assert matrix.to_dense()[0, 1] == 3.0
        assert matrix.nnz == 2

    def test_coo_arrays_row_major(self, small_csr):
        rows, cols, values = small_csr.to_coo_arrays()
        assert rows.tolist() == [0, 0, 2, 2, 2, 3]
        assert cols.tolist() == [0, 2, 0, 1, 3, 1]
        assert values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_invalid_pointers_rejected(self):
        with pytest.raises(FormatError):
            CSRMatrix((2, 2), np.array([0, 1]), np.array([0]), np.array([1.0]))

    def test_out_of_range_column_rejected(self):
        with pytest.raises(FormatError):
            CSRMatrix((2, 2), np.array([0, 1, 1]), np.array([5]), np.array([1.0]))

    def test_unsorted_row_rejected(self):
        with pytest.raises(FormatError):
            CSRMatrix((1, 4), np.array([0, 2]), np.array([3, 1]), np.array([1.0, 2.0]))

    def test_storage_bytes(self, small_csr):
        assert small_csr.storage_bytes() == 4 * (5 + 6 + 6)

    def test_row_out_of_range(self, small_csr):
        with pytest.raises(FormatError):
            small_csr.row_slice(10)


class TestCSCMatrix:
    def test_from_dense_roundtrip(self, small_dense):
        matrix = CSCMatrix.from_dense(small_dense)
        assert np.array_equal(matrix.to_dense(), small_dense)

    def test_col_lengths(self, small_csc):
        assert small_csc.col_lengths().tolist() == [2, 2, 1, 1]

    def test_col_slice(self, small_csc):
        rows, values = small_csc.col_slice(1)
        assert rows.tolist() == [2, 3]
        assert values.tolist() == [4.0, 6.0]

    def test_from_coo_matches_dense(self, random_dense_matrix):
        rows, cols = np.nonzero(random_dense_matrix)
        values = random_dense_matrix[rows, cols]
        matrix = CSCMatrix.from_coo_arrays(random_dense_matrix.shape, rows, cols, values)
        assert np.allclose(matrix.to_dense(), random_dense_matrix)

    def test_col_out_of_range(self, small_csc):
        with pytest.raises(FormatError):
            small_csc.col_slice(99)


class TestCOOMatrix:
    def test_from_dense_roundtrip(self, small_dense):
        matrix = COOMatrix.from_dense(small_dense)
        assert np.array_equal(matrix.to_dense(), small_dense)

    def test_canonical_sorted(self, small_coo):
        keys = small_coo.rows * 4 + small_coo.cols
        assert np.all(np.diff(keys) > 0)

    def test_duplicates_summed(self):
        matrix = COOMatrix(
            (2, 2), np.array([0, 0]), np.array([0, 0]), np.array([1.0, 4.0])
        )
        assert matrix.nnz == 1
        assert matrix.to_dense()[0, 0] == 5.0

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(FormatError):
            COOMatrix((2, 2), np.array([0]), np.array([0, 1]), np.array([1.0]))

    def test_equality_across_formats(self, small_csr, small_coo):
        assert small_csr == small_coo
