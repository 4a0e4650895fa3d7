"""Read-only compressed dense DRAM loads (Section 3.4, Figure 5c).

Applications that stream tiles of pointers (COO row/column ids, CSC row
ids) see closely spaced values, which compress well. Capstan uses a
packet-based base/offset format: each 64 B burst is encoded as a one-byte
header (base size, offset size), a base value, and fixed-width offsets.
Compression is read-only, pre-computed, and restricted to tile boundaries,
which keeps the hardware a simple decompressor in the DRAM AG.

The model here implements the encoder/decoder bit-exactly (for integer
pointer data) and reports compression ratios that feed the DRAM traffic
model for the Figure 5c sensitivity study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import SimulationError

#: Words of 32-bit data covered by one compression packet (one 64 B burst).
WORDS_PER_PACKET = 16


@dataclass(frozen=True)
class CompressedPacket:
    """One encoded burst.

    Attributes:
        base: The packet's base value.
        offset_bits: Bits used for each offset (0 means all values equal base).
        offsets: Offsets of each word from the base value.
    """

    base: int
    offset_bits: int
    offsets: Tuple[int, ...]

    @property
    def encoded_bits(self) -> int:
        """Size of the encoded packet: 8-bit header + 32-bit base + offsets."""
        return 8 + 32 + self.offset_bits * len(self.offsets)

    @property
    def encoded_bytes(self) -> int:
        """Encoded size rounded up to whole bytes."""
        return (self.encoded_bits + 7) // 8


@dataclass(frozen=True)
class CompressionReport:
    """Summary of compressing one array.

    Attributes:
        original_bytes: Uncompressed size (4 bytes per word).
        compressed_bytes: Total encoded size across packets.
        packets: Number of packets produced.
    """

    original_bytes: int
    compressed_bytes: int
    packets: int

    @property
    def ratio(self) -> float:
        """Compression ratio (original / compressed); >= 1 is a win."""
        if self.compressed_bytes == 0:
            return 1.0
        return self.original_bytes / self.compressed_bytes


def _required_offset_bits(values: np.ndarray, base: int) -> int:
    """Smallest supported offset width that covers ``values - base``."""
    if values.size == 0:
        return 0
    spread = int(values.max()) - base
    if spread < 0:
        raise SimulationError("base must be the packet minimum")
    if spread == 0:
        return 0
    bits = int(spread).bit_length()
    # Hardware supports a small menu of offset widths; round up to the next.
    for width in (4, 8, 12, 16, 20, 24, 32):
        if bits <= width:
            return width
    return 32


def compress_pointer_array(values: np.ndarray) -> Tuple[List[CompressedPacket], CompressionReport]:
    """Encode a 32-bit pointer array into base/offset packets.

    Args:
        values: Non-negative integer pointer values (e.g. COO row ids).

    Returns:
        The packet list and a :class:`CompressionReport`.
    """
    array = np.asarray(values)
    if array.size and array.min() < 0:
        raise SimulationError("pointer values must be non-negative")
    array = array.astype(np.int64, copy=False)
    packets: List[CompressedPacket] = []
    compressed_bytes = 0
    for start in range(0, array.size, WORDS_PER_PACKET):
        chunk = array[start : start + WORDS_PER_PACKET]
        base = int(chunk.min()) if chunk.size else 0
        offset_bits = _required_offset_bits(chunk, base)
        offsets = tuple(int(v) - base for v in chunk.tolist())
        packet = CompressedPacket(base=base, offset_bits=offset_bits, offsets=offsets)
        packets.append(packet)
        compressed_bytes += packet.encoded_bytes
    report = CompressionReport(
        original_bytes=4 * int(array.size),
        compressed_bytes=compressed_bytes,
        packets=len(packets),
    )
    return packets, report


#: The hardware's menu of supported offset widths, and the exclusive upper
#: bound of the spread each width covers.
_OFFSET_WIDTHS = np.array([0, 4, 8, 12, 16, 20, 24, 32], dtype=np.int64)
_SPREAD_BOUNDS = np.array(
    [1] + [1 << width for width in (4, 8, 12, 16, 20, 24)], dtype=np.int64
)


def compression_report(values: np.ndarray) -> CompressionReport:
    """Report-only fast path of :func:`compress_pointer_array`.

    Computes the identical :class:`CompressionReport` without materializing
    any packets, by reducing every 16-word burst in one vectorized pass
    (the profiling kernels only need the ratio, not the encoding).
    """
    array = np.asarray(values)
    if array.size and array.min() < 0:
        raise SimulationError("pointer values must be non-negative")
    array = array.astype(np.int64, copy=False)
    if array.size == 0:
        return CompressionReport(original_bytes=0, compressed_bytes=0, packets=0)
    full = (array.size // WORDS_PER_PACKET) * WORDS_PER_PACKET
    chunked = array[:full].reshape(-1, WORDS_PER_PACKET)
    spreads = chunked.max(axis=1) - chunked.min(axis=1)
    sizes = np.full(chunked.shape[0], WORDS_PER_PACKET, dtype=np.int64)
    if full < array.size:
        tail = array[full:]
        spreads = np.concatenate((spreads, [int(tail.max()) - int(tail.min())]))
        sizes = np.concatenate((sizes, [tail.size]))
    offset_bits = _OFFSET_WIDTHS[np.searchsorted(_SPREAD_BOUNDS, spreads, side="right")]
    encoded_bits = 8 + 32 + offset_bits * sizes
    compressed = int(((encoded_bits + 7) // 8).sum())
    return CompressionReport(
        original_bytes=4 * int(array.size),
        compressed_bytes=compressed,
        packets=int(sizes.size),
    )


def decompress_packets(packets: List[CompressedPacket]) -> np.ndarray:
    """Decode packets back to the original pointer array."""
    values: List[int] = []
    for packet in packets:
        for offset in packet.offsets:
            if offset < 0:
                raise SimulationError("negative offset in compressed packet")
            if packet.offset_bits and offset >= (1 << packet.offset_bits):
                raise SimulationError("offset exceeds packet offset width")
            if packet.offset_bits == 0 and offset != 0:
                raise SimulationError("non-zero offset in zero-width packet")
            values.append(packet.base + offset)
    return np.asarray(values, dtype=np.int64)


def compression_ratio(values: np.ndarray) -> float:
    """Convenience wrapper returning only the compression ratio."""
    _, report = compress_pointer_array(values)
    return report.ratio
