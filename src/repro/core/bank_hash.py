"""Address-to-bank mapping schemes for the SpMU (Section 3.1).

Sparse applications with strided access patterns (e.g. convolution) are
pathological for a naive linear bank mapping: any stride of ``2**n`` with
``n >= log2(banks)`` maps every access to the same bank. Capstan therefore
hashes the address by XOR-folding 4-bit nibbles (``a[0:4] ^ a[4:8] ^ a[8:12]
^ a[12:16]``), which guarantees that any stride maps to sequential banks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def linear_bank(address: int, banks: int) -> int:
    """Naive mapping: low ``log2(banks)`` address bits select the bank."""
    return int(address) % banks


def hashed_bank(address: int, banks: int) -> int:
    """XOR-folded nibble hash used by Capstan.

    The 16 low address bits are split into four 4-bit nibbles and XORed
    together; the result is reduced modulo the bank count. For the paper's
    16-bank configuration each nibble is exactly ``log2(banks)`` bits, so
    this is the hash described in Section 3.1.
    """
    addr = int(address) & 0xFFFF
    folded = (addr & 0xF) ^ ((addr >> 4) & 0xF) ^ ((addr >> 8) & 0xF) ^ ((addr >> 12) & 0xF)
    # Fold in higher address bits so capacities beyond 64K words still spread.
    folded ^= (int(address) >> 16) & 0xF
    return folded % banks


def hashed_banks_array(addresses: np.ndarray, banks: int) -> np.ndarray:
    """Vectorized :func:`hashed_bank` over an integer address array."""
    addr = np.asarray(addresses, dtype=np.int64)
    folded = (
        (addr & 0xF)
        ^ ((addr >> 4) & 0xF)
        ^ ((addr >> 8) & 0xF)
        ^ ((addr >> 12) & 0xF)
        ^ ((addr >> 16) & 0xF)
    )
    return (folded % banks).astype(np.int64)


def linear_banks_array(addresses: np.ndarray, banks: int) -> np.ndarray:
    """Vectorized :func:`linear_bank` over an integer address array."""
    return (np.asarray(addresses, dtype=np.int64) % banks).astype(np.int64)


#: Every bank mapping scheme name, Capstan's first.
BANK_MAPPINGS = ("hash", "linear")

BankMapper = Callable[[int, int], int]

ArrayBankMapper = Callable[[np.ndarray, int], np.ndarray]


def get_bank_mapper_array(name: str) -> ArrayBankMapper:
    """Look up the vectorized bank mapper by name: ``"hash"`` or ``"linear"``."""
    if name == "hash":
        return hashed_banks_array
    if name == "linear":
        return linear_banks_array
    raise ValueError(f"unknown bank mapping scheme {name!r}")


def get_bank_mapper(name: str) -> BankMapper:
    """Look up a bank mapper by name: ``"hash"`` or ``"linear"``."""
    if name == "hash":
        return hashed_bank
    if name == "linear":
        return linear_bank
    raise ValueError(f"unknown bank mapping scheme {name!r}")
