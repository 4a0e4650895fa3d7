"""Conversions between the sparse matrix formats the applications build.

Every format converts through its ``to_coo_arrays`` primitive.
:func:`to_scipy_csr` hands a matrix to scipy for the CPU baselines'
reference kernels (:mod:`repro.baselines.cpu`); it imports scipy itself,
so the normal import path never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .base import SparseMatrixFormat
from .coo import COOMatrix
from .csc import CSCMatrix
from .csr import CSRMatrix

if TYPE_CHECKING:
    import scipy.sparse


def to_csr(matrix: SparseMatrixFormat) -> CSRMatrix:
    """Convert any supported matrix format to CSR."""
    if isinstance(matrix, CSRMatrix):
        return matrix
    rows, cols, values = matrix.to_coo_arrays()
    return CSRMatrix.from_coo_arrays(matrix.shape, rows, cols, values)


def to_csc(matrix: SparseMatrixFormat) -> CSCMatrix:
    """Convert any supported matrix format to CSC."""
    if isinstance(matrix, CSCMatrix):
        return matrix
    rows, cols, values = matrix.to_coo_arrays()
    return CSCMatrix.from_coo_arrays(matrix.shape, rows, cols, values)


def to_coo(matrix: SparseMatrixFormat) -> COOMatrix:
    """Convert any supported matrix format to COO."""
    if isinstance(matrix, COOMatrix):
        return matrix
    rows, cols, values = matrix.to_coo_arrays()
    return COOMatrix(matrix.shape, rows, cols, values)


def to_scipy_csr(matrix: SparseMatrixFormat) -> scipy.sparse.csr_matrix:
    """Convert any supported matrix format to a ``scipy.sparse.csr_matrix``."""
    from scipy import sparse

    rows, cols, values = matrix.to_coo_arrays()
    return sparse.coo_matrix((values, (rows, cols)), shape=matrix.shape).tocsr()
