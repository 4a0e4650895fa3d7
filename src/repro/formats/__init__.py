"""Sparse tensor storage formats (Table 1, Figure 1 of the paper).

This subpackage implements the storage formats Capstan is designed around:
dense matrices/vectors, CSR, CSC, COO, DCSR/DCSC, BCSR, banded, packed
bit-vectors, and two-level bit-trees, plus conversions and Matrix-Market I/O.
"""

from . import packed
from .base import SparseMatrixFormat
from .bcsr import BCSRMatrix, BandedMatrix
from .bittree import BitTree, align_trees
from .bitvector import BitVector
from .convert import (
    bittree_to_bitvector,
    bitvector_to_bittree,
    from_scipy,
    pointers_to_bitvector,
    to_coo,
    to_csc,
    to_csr,
    to_dcsr,
    to_dense_matrix,
    to_scipy_csr,
    vector_to_bitvector,
)
from .coo import COOMatrix
from .csc import CSCMatrix
from .csr import CSRMatrix
from .dcsr import DCSCMatrix, DCSRMatrix
from .dense import DenseMatrix, DenseVector
from .io import read_matrix_market, roundtrip_matches, write_matrix_market

__all__ = [
    "SparseMatrixFormat",
    "DenseMatrix",
    "DenseVector",
    "CSRMatrix",
    "CSCMatrix",
    "COOMatrix",
    "DCSRMatrix",
    "DCSCMatrix",
    "BCSRMatrix",
    "BandedMatrix",
    "BitVector",
    "BitTree",
    "align_trees",
    "to_csr",
    "to_csc",
    "to_coo",
    "to_dcsr",
    "to_dense_matrix",
    "to_scipy_csr",
    "from_scipy",
    "vector_to_bitvector",
    "pointers_to_bitvector",
    "bitvector_to_bittree",
    "bittree_to_bitvector",
    "packed",
    "read_matrix_market",
    "write_matrix_market",
    "roundtrip_matches",
]
