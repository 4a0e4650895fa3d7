"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import spmu as spmu_module
from repro.formats import COOMatrix, CSCMatrix, CSRMatrix
from repro.runtime.cache import ThroughputStore
from repro.workloads import load_dataset


@pytest.fixture
def small_dense():
    """A small dense matrix with a mix of zero and non-zero entries."""
    return np.array(
        [
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [3.0, 4.0, 0.0, 5.0],
            [0.0, 6.0, 0.0, 0.0],
        ]
    )


@pytest.fixture
def small_csr(small_dense):
    """CSR form of the small dense matrix."""
    return CSRMatrix.from_dense(small_dense)


@pytest.fixture
def small_csc(small_dense):
    """CSC form of the small dense matrix."""
    return CSCMatrix.from_dense(small_dense)


@pytest.fixture
def small_coo(small_dense):
    """COO form of the small dense matrix."""
    return COOMatrix.from_dense(small_dense)


@pytest.fixture(scope="session")
def tiny_graph():
    """A small synthetic power-law graph dataset used by app tests."""
    return load_dataset("web-Stanford", scale=1 / 512, seed=3)


@pytest.fixture(scope="session")
def tiny_matrix_dataset():
    """A small synthetic FEM-like matrix dataset used by app tests."""
    return load_dataset("Trefethen_20000", scale=1 / 128, seed=3)


@pytest.fixture(scope="session")
def random_dense_matrix():
    """A reproducible random dense matrix for roundtrip tests."""
    rng = np.random.default_rng(42)
    matrix = rng.random((24, 31))
    matrix[matrix < 0.7] = 0.0
    return matrix


@pytest.fixture
def isolated_store(tmp_path, monkeypatch):
    """Point the throughput store at a fresh directory with an empty memo."""
    monkeypatch.setenv("REPRO_THROUGHPUT_CACHE", str(tmp_path / "throughput"))
    monkeypatch.delenv("REPRO_THROUGHPUT_CACHE_DISABLE", raising=False)
    monkeypatch.setattr(spmu_module, "_THROUGHPUT_CACHE", {})
    return ThroughputStore()
