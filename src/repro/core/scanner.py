"""Sparse loop headers: the bit-vector scanner (Section 3.3).

The scanner implements Capstan's vectorized sparse iteration. Each cycle the
bit-vector scanner:

1. computes the intersection or union of two input bit-vector tiles,
2. selects the first ``output_vectorization`` (16) set bits of the result,
3. encodes them into dense indices ``j``,
4. looks up prefix sums over each input to produce compressed indices
   ``jA`` / ``jB`` (or ``-1`` for a side that is absent, union mode only),
   and the running dense counter ``j'``.

The data scanner is the scalar fallback that finds one non-zero 32-bit
element in a 16-element vector per cycle; it is used in outer loops only,
and :func:`~repro.apps.scan_model.data_scan_cost` models its cycles.

This module provides both a *functional* scan (produce all iteration tuples
for correctness) and a *timing* scan (how many cycles the hardware needs to
stream a pair of bit-vectors through a scanner of a given configuration),
which together drive the applications and the Figure 6 sensitivity study.

Both are array-native: :meth:`BitVectorScanner.scan_batch` combines the
operands' packed occupancy words and returns a columnar :class:`ScanBatch`
(dense index / ordinal / compressed index arrays), and all cycle accounting
is a bincount over set-bit positions. The element-at-a-time paths are
retained (:meth:`BitVectorScanner.scan_reference`,
:func:`scan_timing_from_mask_reference`) so property tests can pin the two
representations tuple for tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from .._budget import plan_chunks, resolve_memory_budget
from ..config import ScannerConfig
from ..errors import SimulationError
from ..formats import packed
from ..formats.bitvector import BitVector

#: Working-set bytes one dense position contributes to a chunked scan
#: (candidate slices, membership masks, and compressed-index temporaries).
SCAN_BYTES_PER_POSITION = 64


class ScanMode(Enum):
    """Set operation applied to the two scanned bit-vectors."""

    INTERSECT = "intersect"
    UNION = "union"
    SINGLE = "single"


@dataclass(frozen=True)
class ScanElement:
    """One sparse loop iteration produced by the scanner.

    Attributes:
        dense_index: The dense position ``j`` in the original index space.
        ordinal: The running counter ``j'`` over scan outputs (0, 1, 2, ...).
        index_a: Compressed index ``jA`` into the first operand's value
            array, or ``-1`` if the bit is absent from that operand.
        index_b: Compressed index ``jB`` into the second operand's value
            array, or ``-1`` if absent (or the scan is single-operand).
    """

    dense_index: int
    ordinal: int
    index_a: int
    index_b: int


@dataclass(frozen=True)
class ScanBatch:
    """All iteration tuples of one scan, in columnar array form.

    The hardware emits scan outputs as vectors, not scalars; this is the
    software mirror: four aligned arrays instead of a list of per-element
    objects. :meth:`elements` converts to the legacy representation.

    Attributes:
        dense_index: Dense positions ``j`` in ascending order.
        ordinal: Running counters ``j'`` (``0..n-1``).
        index_a: Compressed indices into operand A (``-1`` where absent).
        index_b: Compressed indices into operand B (``-1`` where absent).
    """

    dense_index: np.ndarray
    ordinal: np.ndarray
    index_a: np.ndarray
    index_b: np.ndarray

    def __len__(self) -> int:
        return int(self.dense_index.size)

    def elements(self) -> List[ScanElement]:
        """The batch as the legacy list of :class:`ScanElement` tuples."""
        return [
            ScanElement(
                dense_index=dense, ordinal=ordinal, index_a=a, index_b=b
            )
            for dense, ordinal, a, b in zip(
                self.dense_index.tolist(),
                self.ordinal.tolist(),
                self.index_a.tolist(),
                self.index_b.tolist(),
            )
        ]


@dataclass(frozen=True)
class ScanTiming:
    """Cycle cost of streaming a scan through the scanner hardware.

    Attributes:
        cycles: Total scanner-occupied cycles.
        elements: Number of iteration tuples produced.
        bit_chunks: Number of ``bit_width`` input chunks consumed.
        output_limited_cycles: Cycles where the output vectorization (not
            the input width) was the bottleneck.
        empty_chunks: Input chunks that contained no set bits (pure
            scanning overhead; these are the "Scan" stalls of Figure 7).
    """

    cycles: int
    elements: int
    bit_chunks: int
    output_limited_cycles: int
    empty_chunks: int

    @property
    def elements_per_cycle(self) -> float:
        """Average iteration throughput of the scan."""
        return self.elements / self.cycles if self.cycles else 0.0


class BitVectorScanner:
    """Vectorized sparse loop header operating on bit-vector operands."""

    def __init__(self, config: Optional[ScannerConfig] = None):
        self._config = config or ScannerConfig()
        self._config.validate()

    @property
    def config(self) -> ScannerConfig:
        """The scanner's width/vectorization configuration."""
        return self._config

    def scan_batch(
        self,
        vector_a: BitVector,
        vector_b: Optional[BitVector] = None,
        mode: ScanMode = ScanMode.INTERSECT,
        *,
        memory_budget: Optional[int] = None,
    ) -> ScanBatch:
        """Produce all iteration tuples of a sparse loop as a columnar batch.

        Args:
            vector_a: First operand.
            vector_b: Second operand; required unless ``mode`` is ``SINGLE``.
            mode: Intersection, union, or single-operand scan.
            memory_budget: Byte budget for the combine's working set; the
                dense position space is streamed in ranges under it. Range
                outputs are position-disjoint and ordered, so concatenation
                reproduces the unchunked batch exactly. ``None`` defers to
                ``REPRO_MEMORY_BUDGET``.

        Returns:
            A :class:`ScanBatch` ordered by dense index: one row per
            iteration of the sparse loop the scanner heads.
        """
        budget = resolve_memory_budget(memory_budget)
        if budget is not None and mode is not ScanMode.SINGLE and vector_b is not None:
            width = plan_chunks(vector_a.length, SCAN_BYTES_PER_POSITION, budget).chunk_items
            combined, index_a, index_b = self._combine_arrays_chunked(
                vector_a, vector_b, mode, width
            )
        else:
            # SINGLE mode copies one operand's indices -- there is no
            # combine working set to bound, so it always runs unchunked.
            combined, index_a, index_b = self._combine_arrays(
                vector_a, vector_b, mode
            )
        return ScanBatch(
            dense_index=combined,
            ordinal=np.arange(combined.size, dtype=np.int64),
            index_a=index_a,
            index_b=index_b,
        )

    def scan(
        self,
        vector_a: BitVector,
        vector_b: Optional[BitVector] = None,
        mode: ScanMode = ScanMode.INTERSECT,
    ) -> List[ScanElement]:
        """Produce the full list of iteration tuples for a sparse loop.

        A compatibility view over :meth:`scan_batch`: the same tuples, as a
        list of per-element objects.
        """
        return self.scan_batch(vector_a, vector_b, mode).elements()

    def scan_reference(
        self,
        vector_a: BitVector,
        vector_b: Optional[BitVector] = None,
        mode: ScanMode = ScanMode.INTERSECT,
    ) -> List[ScanElement]:
        """The retained element-at-a-time scan loop (equivalence reference)."""
        mask, a_positions, b_positions = self._combine_reference(
            vector_a, vector_b, mode
        )
        elements: List[ScanElement] = []
        set_bits = np.nonzero(mask)[0]
        for ordinal, dense_index in enumerate(set_bits.tolist()):
            elements.append(
                ScanElement(
                    dense_index=int(dense_index),
                    ordinal=ordinal,
                    index_a=int(a_positions[dense_index]),
                    index_b=int(b_positions[dense_index]),
                )
            )
        return elements

    def count(
        self,
        vector_a: BitVector,
        vector_b: Optional[BitVector] = None,
        mode: ScanMode = ScanMode.INTERSECT,
    ) -> int:
        """Number of iterations the scan would produce.

        The hardware writes this count into the counter chain in the first
        cycle so one scanner can feed multiple counter levels.
        """
        self._check_operands(vector_a, vector_b, mode)
        if mode is ScanMode.SINGLE or vector_b is None:
            return vector_a.nnz
        if mode is ScanMode.INTERSECT:
            return int(
                packed.popcount(vector_a._packed() & vector_b._packed()).sum()
            )
        return int(packed.popcount(vector_a._packed() | vector_b._packed()).sum())

    def timing(
        self,
        vector_a: BitVector,
        vector_b: Optional[BitVector] = None,
        mode: ScanMode = ScanMode.INTERSECT,
    ) -> ScanTiming:
        """Cycle cost of streaming this scan through the configured scanner.

        The scanner consumes ``bit_width`` bits of the (combined) mask per
        cycle and emits at most ``output_vectorization`` set bits per cycle;
        a chunk with more set bits than the output width occupies multiple
        cycles, and an all-zero chunk still costs one cycle.
        """
        combined = self._combined_indices(vector_a, vector_b, mode)
        return timing_from_indices(combined, vector_a.length, self._config)

    def _check_operands(
        self,
        vector_a: BitVector,
        vector_b: Optional[BitVector],
        mode: ScanMode,
    ) -> None:
        if mode is ScanMode.SINGLE or vector_b is None:
            if mode is not ScanMode.SINGLE and vector_b is None:
                raise SimulationError("two-operand scan requires vector_b")
            return
        if vector_a.length != vector_b.length:
            raise SimulationError(
                f"scan operands must have equal length: "
                f"{vector_a.length} vs {vector_b.length}"
            )
        if mode not in (ScanMode.INTERSECT, ScanMode.UNION):
            raise SimulationError(f"unsupported scan mode {mode}")

    def _combined_indices(
        self,
        vector_a: BitVector,
        vector_b: Optional[BitVector],
        mode: ScanMode,
    ) -> np.ndarray:
        """Combined set-bit positions only (the timing/count fast path)."""
        self._check_operands(vector_a, vector_b, mode)
        a_indices = vector_a._sorted_indices()
        if mode is ScanMode.SINGLE or vector_b is None:
            return a_indices
        if mode is ScanMode.INTERSECT:
            if a_indices.size == 0:
                return a_indices
            return a_indices[packed.test_bits(vector_b._packed(), a_indices)]
        return np.union1d(a_indices, vector_b._sorted_indices())

    def _combine_arrays(
        self,
        vector_a: BitVector,
        vector_b: Optional[BitVector],
        mode: ScanMode,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Combined set-bit positions and per-element compressed indices."""
        self._check_operands(vector_a, vector_b, mode)
        a_indices = vector_a._sorted_indices()
        if mode is ScanMode.SINGLE or vector_b is None:
            return (
                a_indices.copy(),
                np.arange(a_indices.size, dtype=np.int64),
                np.full(a_indices.size, -1, dtype=np.int64),
            )
        b_indices = vector_b._sorted_indices()
        if mode is ScanMode.INTERSECT:
            # Membership via the packed substrate: test A's set bits
            # against B's occupancy words.
            if vector_a.length:
                in_b = packed.test_bits(vector_b._packed(), a_indices)
            else:
                in_b = np.zeros(0, dtype=bool)
            combined = a_indices[in_b]
            index_a = np.flatnonzero(in_b).astype(np.int64)
            index_b = np.searchsorted(b_indices, combined).astype(np.int64)
            return combined, index_a, index_b
        combined = np.union1d(a_indices, b_indices)
        if vector_a.length:
            in_a = packed.test_bits(vector_a._packed(), combined)
            in_b = packed.test_bits(vector_b._packed(), combined)
        else:
            in_a = in_b = np.zeros(0, dtype=bool)
        index_a = np.where(
            in_a, np.searchsorted(a_indices, combined), -1
        ).astype(np.int64)
        index_b = np.where(
            in_b, np.searchsorted(b_indices, combined), -1
        ).astype(np.int64)
        return combined, index_a, index_b

    def _combine_arrays_chunked(
        self,
        vector_a: BitVector,
        vector_b: BitVector,
        mode: ScanMode,
        width: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stream :meth:`_combine_arrays` over dense position ranges ``width`` wide.

        Each range combines only the candidate set bits it covers; ranges
        are disjoint and ascending and compressed indices are computed
        against the full operands, so concatenating the per-range outputs
        is bit-identical to the one-shot combine.
        """
        self._check_operands(vector_a, vector_b, mode)
        a_indices = vector_a._sorted_indices()
        b_indices = vector_b._sorted_indices()
        parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for start in range(0, vector_a.length, width):
            stop = min(start + width, vector_a.length)
            a_lo, a_hi = np.searchsorted(a_indices, [start, stop])
            a_slice = a_indices[a_lo:a_hi]
            if mode is ScanMode.INTERSECT:
                if a_slice.size == 0:
                    continue
                in_b = packed.test_bits(vector_b._packed(), a_slice)
                combined = a_slice[in_b]
                parts.append(
                    (
                        combined,
                        (a_lo + np.flatnonzero(in_b)).astype(np.int64),
                        np.searchsorted(b_indices, combined).astype(np.int64),
                    )
                )
                continue
            b_lo, b_hi = np.searchsorted(b_indices, [start, stop])
            combined = np.union1d(a_slice, b_indices[b_lo:b_hi])
            if combined.size == 0:
                continue
            in_a = packed.test_bits(vector_a._packed(), combined)
            in_b = packed.test_bits(vector_b._packed(), combined)
            parts.append(
                (
                    combined,
                    np.where(
                        in_a, np.searchsorted(a_indices, combined), -1
                    ).astype(np.int64),
                    np.where(
                        in_b, np.searchsorted(b_indices, combined), -1
                    ).astype(np.int64),
                )
            )
        if not parts:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        return (
            np.concatenate([part[0] for part in parts]),
            np.concatenate([part[1] for part in parts]),
            np.concatenate([part[2] for part in parts]),
        )

    def _combine_reference(
        self,
        vector_a: BitVector,
        vector_b: Optional[BitVector],
        mode: ScanMode,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The retained mask/prefix-sum combination (equivalence reference)."""
        if mode is ScanMode.SINGLE or vector_b is None:
            if mode is not ScanMode.SINGLE and vector_b is None:
                raise SimulationError("two-operand scan requires vector_b")
            mask = vector_a.mask
            a_positions = _prefix_positions(mask, mask)
            b_positions = np.full(mask.size, -1, dtype=np.int64)
            return mask, a_positions, b_positions
        if vector_a.length != vector_b.length:
            raise SimulationError(
                f"scan operands must have equal length: "
                f"{vector_a.length} vs {vector_b.length}"
            )
        mask_a = vector_a.mask
        mask_b = vector_b.mask
        if mode is ScanMode.INTERSECT:
            mask = mask_a & mask_b
        elif mode is ScanMode.UNION:
            mask = mask_a | mask_b
        else:
            raise SimulationError(f"unsupported scan mode {mode}")
        a_positions = _prefix_positions(mask_a, mask)
        b_positions = _prefix_positions(mask_b, mask)
        return mask, a_positions, b_positions


def timing_from_indices(
    set_indices: np.ndarray, space_length: int, config: ScannerConfig
) -> ScanTiming:
    """Scanner cycle accounting from combined set-bit positions.

    The shared vectorized core behind :func:`scan_timing_from_mask`,
    :meth:`BitVectorScanner.timing`, and the application scan model: one
    bincount over ``set_indices // bit_width`` yields every chunk's
    occupancy, from which cycles, output-limited cycles, and empty chunks
    all follow. A zero-length space still streams one (empty) chunk,
    matching the hardware's minimum one-cycle scan.
    """
    width = config.bit_width
    out_width = config.output_vectorization
    chunks = (max(space_length, 1) + width - 1) // width
    positions = np.asarray(set_indices, dtype=np.int64)
    if positions.size == 0:
        return ScanTiming(
            cycles=chunks,
            elements=0,
            bit_chunks=chunks,
            output_limited_cycles=0,
            empty_chunks=chunks,
        )
    counts = np.bincount(positions // width, minlength=chunks)
    occupied = counts > 0
    chunk_cycles = np.where(occupied, (counts + out_width - 1) // out_width, 1)
    output_limited = int((chunk_cycles[occupied] - 1).sum())
    return ScanTiming(
        cycles=int(chunk_cycles.sum()),
        elements=int(positions.size),
        bit_chunks=int(chunks),
        output_limited_cycles=output_limited,
        empty_chunks=int(np.count_nonzero(~occupied)),
    )


def scan_timing_from_mask(mask: np.ndarray, config: ScannerConfig) -> ScanTiming:
    """Compute scanner cycle cost for a combined occupancy mask.

    This is shared by the bit-vector scanner and by application timing
    models that already have the combined mask in hand.
    """
    mask = np.asarray(mask, dtype=bool)
    return timing_from_indices(np.flatnonzero(mask), mask.size, config)


def scan_timing_from_mask_reference(
    mask: np.ndarray, config: ScannerConfig
) -> ScanTiming:
    """The retained per-chunk timing loop (equivalence reference)."""
    mask = np.asarray(mask, dtype=bool)
    width = config.bit_width
    out_width = config.output_vectorization
    cycles = 0
    elements = 0
    bit_chunks = 0
    output_limited = 0
    empty_chunks = 0
    for start in range(0, max(mask.size, 1), width):
        chunk = mask[start : start + width]
        bit_chunks += 1
        set_bits = int(np.count_nonzero(chunk))
        if set_bits == 0:
            cycles += 1
            empty_chunks += 1
            continue
        chunk_cycles = (set_bits + out_width - 1) // out_width
        if chunk_cycles > 1:
            output_limited += chunk_cycles - 1
        cycles += chunk_cycles
        elements += set_bits
    return ScanTiming(
        cycles=cycles,
        elements=elements,
        bit_chunks=bit_chunks,
        output_limited_cycles=output_limited,
        empty_chunks=empty_chunks,
    )


def _prefix_positions(operand_mask: np.ndarray, output_mask: np.ndarray) -> np.ndarray:
    """Map each output position to its compressed index in the operand.

    Positions where the operand bit is clear map to ``-1`` (union mode).
    The hardware implements this with a prefix sum over the operand mask.
    """
    prefix = np.cumsum(operand_mask.astype(np.int64)) - 1
    positions = np.where(operand_mask, prefix, -1)
    # Positions outside the output mask are irrelevant; leave them as
    # computed so callers can index by dense position directly.
    return positions.astype(np.int64)
