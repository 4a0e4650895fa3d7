"""Address-order Bloom filter (Section 3.1.2).

When the SpMU runs in address-ordered mode, an incoming request must stall
before entering the reordering pipeline if it *may* conflict with a pending
in-queue request to the same address. An exact check would need a CAM over
every queued address; Capstan instead uses a small (128-entry) Bloom filter,
accepting occasional false-positive stalls in exchange for area.
"""

from __future__ import annotations

from typing import Iterable


class BloomFilter:
    """A counting Bloom filter over integer addresses.

    A counting variant is used so entries can be removed when their request
    leaves the pipeline, matching the hardware's insert-on-enqueue /
    clear-on-dequeue behaviour.
    """

    def __init__(self, entries: int = 128, hashes: int = 2):
        if entries <= 0:
            raise ValueError("entries must be positive")
        if hashes <= 0:
            raise ValueError("hashes must be positive")
        self._entries = entries
        self._hashes = hashes
        self._counters = [0] * entries
        self._inserted = 0

    @property
    def entries(self) -> int:
        """Number of counter slots."""
        return self._entries

    @property
    def inserted(self) -> int:
        """Number of addresses currently tracked (inserts minus removes)."""
        return self._inserted

    def _slots(self, address: int) -> Iterable[int]:
        address = int(address)
        for i in range(self._hashes):
            # Knuth-style multiplicative hashing with per-hash salts keeps the
            # model simple and deterministic.
            yield ((address * 2654435761 + i * 0x9E3779B9) >> 7) % self._entries

    def insert(self, address: int) -> None:
        """Record ``address`` as pending."""
        for slot in self._slots(address):
            self._counters[slot] += 1
        self._inserted += 1

    def remove(self, address: int) -> None:
        """Remove one pending occurrence of ``address``.

        Removing an address that was never inserted leaves the filter in an
        inconsistent state, so this raises instead of silently underflowing.
        """
        slots = list(self._slots(address))
        if any(self._counters[slot] == 0 for slot in slots):
            raise ValueError(f"address {address} was not inserted")
        for slot in slots:
            self._counters[slot] -= 1
        self._inserted -= 1

    def may_contain(self, address: int) -> bool:
        """Whether ``address`` may be pending (no false negatives)."""
        return all(self._counters[slot] > 0 for slot in self._slots(address))
