"""Sparse tensor storage formats (Table 1, Figure 1 of the paper).

The formats the reproduced applications build: CSR, CSC and COO matrices,
packed bit-vectors, and the two-level bit-tree builder, plus conversions
between the matrix formats and Matrix-Market I/O.
"""

from . import packed
from .base import SparseMatrixFormat
from .bittree import BitTree
from .bitvector import BitVector
from .convert import to_coo, to_csc, to_csr, to_scipy_csr
from .coo import COOMatrix
from .csc import CSCMatrix
from .csr import CSRMatrix
from .io import read_matrix_market, roundtrip_matches, write_matrix_market

__all__ = [
    "SparseMatrixFormat",
    "CSRMatrix",
    "CSCMatrix",
    "COOMatrix",
    "BitVector",
    "BitTree",
    "to_csr",
    "to_csc",
    "to_coo",
    "to_scipy_csr",
    "packed",
    "read_matrix_market",
    "write_matrix_market",
    "roundtrip_matches",
]
