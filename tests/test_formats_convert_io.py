"""Tests for format conversions and Matrix-Market I/O."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import (
    read_matrix_market,
    roundtrip_matches,
    to_coo,
    to_csc,
    to_csr,
    to_scipy_csr,
    write_matrix_market,
)
from repro.formats.coo import COOMatrix


class TestConversions:
    def test_csr_to_csc_to_coo_cycle(self, small_csr, small_dense):
        csc = to_csc(small_csr)
        coo = to_coo(csc)
        back = to_csr(coo)
        assert np.array_equal(back.to_dense(), small_dense)

    def test_identity_conversions_return_same_object(self, small_csr, small_coo):
        assert to_csr(small_csr) is small_csr
        assert to_coo(small_coo) is small_coo

    def test_scipy_csr_matches_dense(self, small_coo, small_dense):
        scipy_matrix = to_scipy_csr(small_coo)
        assert scipy_matrix.format == "csr"
        assert np.array_equal(scipy_matrix.toarray(), small_dense)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=0, max_value=13),
                st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_format_lattice_preserves_values(self, triples):
        rows = np.array([t[0] for t in triples], dtype=np.int64)
        cols = np.array([t[1] for t in triples], dtype=np.int64)
        vals = np.array([t[2] for t in triples], dtype=np.float64)
        coo = COOMatrix((12, 14), rows, cols, vals)
        dense = coo.to_dense()
        assert np.allclose(to_csr(coo).to_dense(), dense)
        assert np.allclose(to_csc(coo).to_dense(), dense)
        assert np.allclose(to_scipy_csr(coo).toarray(), dense)


class TestMatrixMarketIO:
    def test_roundtrip(self, small_coo, tmp_path):
        assert roundtrip_matches(small_coo, tmp_path / "m.mtx")

    def test_write_read_csr(self, small_csr, tmp_path):
        path = tmp_path / "csr.mtx"
        write_matrix_market(small_csr, path)
        loaded = read_matrix_market(path)
        assert np.allclose(loaded.to_dense(), small_csr.to_dense())

    def test_read_symmetric(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 2\n"
            "1 1 5.0\n"
            "3 1 2.0\n"
        )
        matrix = read_matrix_market(path)
        dense = matrix.to_dense()
        assert dense[0, 0] == 5.0
        assert dense[2, 0] == 2.0 and dense[0, 2] == 2.0

    def test_read_pattern(self, tmp_path):
        path = tmp_path / "pat.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 1\n"
            "2 1\n"
        )
        matrix = read_matrix_market(path)
        assert matrix.to_dense()[1, 0] == 1.0

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("1 1 0\n")
        from repro.errors import FormatError

        with pytest.raises(FormatError):
            read_matrix_market(path)

    def test_truncated_entries_rejected(self, tmp_path):
        path = tmp_path / "trunc.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n")
        from repro.errors import FormatError

        with pytest.raises(FormatError):
            read_matrix_market(path)

    def test_ragged_entry_lines_rejected(self, tmp_path):
        # Token count coincidentally matches 2 entries x 3 columns, but the
        # lines themselves are ragged; the reference parser's error stands.
        path = tmp_path / "ragged.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n4 6 2\n1 2\n2 3 4 5\n"
        )
        from repro.errors import FormatError

        with pytest.raises(FormatError):
            read_matrix_market(path)
