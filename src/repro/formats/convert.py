"""Conversions between sparse formats.

Capstan's format-conversion hardware (Section 3.4) turns compressed pointer
lists into bit-vectors so the scanner can compute intersections; this module
provides that conversion and the rest of the format lattice in software,
including scipy interoperability used by the baselines.
"""

from __future__ import annotations

from typing import Union

import numpy as np
from scipy import sparse as sp

from ..errors import ConversionError
from .base import SparseMatrixFormat
from .bcsr import BCSRMatrix, BandedMatrix
from .bittree import BitTree
from .bitvector import BitVector
from .coo import COOMatrix
from .csc import CSCMatrix
from .csr import CSRMatrix
from .dcsr import DCSCMatrix, DCSRMatrix
from .dense import DenseMatrix, DenseVector

AnyMatrix = Union[
    DenseMatrix, CSRMatrix, CSCMatrix, COOMatrix, DCSRMatrix, DCSCMatrix, BCSRMatrix, BandedMatrix
]


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


def to_dcsr(matrix: SparseMatrixFormat) -> DCSRMatrix:
    """Convert any supported matrix format to DCSR."""
    if isinstance(matrix, DCSRMatrix):
        return matrix
    return DCSRMatrix.from_csr(to_csr(matrix))


def to_dense_matrix(matrix: SparseMatrixFormat) -> DenseMatrix:
    """Convert any supported matrix format to a dense matrix."""
    if isinstance(matrix, DenseMatrix):
        return matrix
    return DenseMatrix(matrix.to_dense())


def to_scipy_csr(matrix: SparseMatrixFormat) -> sp.csr_matrix:
    """Convert any supported matrix format to a ``scipy.sparse.csr_matrix``."""
    rows, cols, values = matrix.to_coo_arrays()
    return sp.coo_matrix((values, (rows, cols)), shape=matrix.shape).tocsr()


def from_scipy(matrix: sp.spmatrix, fmt: str = "csr") -> AnyMatrix:
    """Build one of our formats from a scipy sparse matrix.

    Args:
        matrix: Any scipy sparse matrix.
        fmt: Target format name: ``csr``, ``csc``, ``coo``, ``dcsr`` or
            ``dense``.
    """
    coo = matrix.tocoo()
    shape = coo.shape
    rows = coo.row.astype(np.int64)
    cols = coo.col.astype(np.int64)
    values = coo.data.astype(np.float64)
    if fmt == "csr":
        return CSRMatrix.from_coo_arrays(shape, rows, cols, values)
    if fmt == "csc":
        return CSCMatrix.from_coo_arrays(shape, rows, cols, values)
    if fmt == "coo":
        return COOMatrix(shape, rows, cols, values)
    if fmt == "dcsr":
        return DCSRMatrix.from_csr(CSRMatrix.from_coo_arrays(shape, rows, cols, values))
    if fmt == "dense":
        return DenseMatrix(np.asarray(matrix.todense(), dtype=np.float64))
    raise ConversionError(f"unknown target format {fmt!r}")


def vector_to_bitvector(vector: Union[DenseVector, np.ndarray]) -> BitVector:
    """Convert a dense vector to the packed bit-vector format.

    This mirrors the pointer-to-bit-vector format-conversion hardware: the
    output occupies one bit per position plus compressed values.
    """
    if isinstance(vector, DenseVector):
        return BitVector.from_dense(vector.data)
    return BitVector.from_dense(np.asarray(vector, dtype=np.float64))


def pointers_to_bitvector(length: int, pointers: np.ndarray) -> BitVector:
    """Convert a compressed pointer list into an occupancy bit-vector.

    Args:
        length: Logical length of the resulting bit-vector.
        pointers: Sorted, unique indices of the non-zero positions.
    """
    pointers = np.asarray(pointers, dtype=np.int64)
    if pointers.size and (pointers.min() < 0 or pointers.max() >= length):
        raise ConversionError("pointer out of range for bit-vector length")
    return BitVector(length, pointers)


def bitvector_to_bittree(vector: BitVector, tile_bits: int = 512) -> BitTree:
    """Convert a bit-vector into the two-level bit-tree format."""
    return BitTree.from_indices(vector.length, vector.indices, vector.values, tile_bits)


def bittree_to_bitvector(tree: BitTree) -> BitVector:
    """Flatten a bit-tree back into a single bit-vector."""
    return tree.to_bitvector()
