"""Vectorized scanner cost model used by the applications.

The :class:`~repro.core.scanner.BitVectorScanner` is the bit-exact hardware
model; it materializes dense occupancy masks, which is fine for unit tests
but too slow for application-scale index spaces (hundreds of thousands of
positions). The helpers here compute the *same* cycle costs directly from
sorted index arrays with ``numpy`` bucket counting:

* the scanner consumes ``bit_width`` (256) bits of the combined occupancy
  mask per cycle;
* a chunk with more than ``output_vectorization`` (16) set bits takes
  multiple cycles;
* an all-zero chunk still takes a cycle (the Figure 7 "Scan" overhead);
* in bit-tree mode (Section 2.3), only 512-bit second-level tiles that
  contain a set bit are streamed, plus a top-level scan over the tile
  occupancy vector, so empty regions of very sparse spaces are skipped.

Equivalence with the hardware model is asserted by property-based tests in
``tests/test_scan_batch.py``.

A scanner sweep never re-executes an application. Inside
:func:`record_scans`, every top-level call of a scan-cost helper is costed
under each swept :class:`ScannerConfig` as it is made, and the
:class:`ScanTrace` keeps one merged cost per configuration
(:meth:`ScanTrace.cost`).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import ScannerConfig
from ..core.scanner import ScanMode, timing_from_indices
from ..errors import SimulationError
from ..formats.bittree import BitTree
from ..formats.bitvector import BitVector

#: Second-level tile size used by the bit-tree format.
BITTREE_TILE_BITS = 512


@dataclass(frozen=True)
class ScanCost:
    """Scanner cycle cost of one (or many aggregated) scan operations.

    Attributes:
        cycles: Scanner-busy cycles.
        empty_cycles: Cycles spent on chunks with no set bits.
        elements: Iteration tuples produced.
        chunks: Input chunks consumed.
    """

    cycles: int
    empty_cycles: int
    elements: int
    chunks: int

    def merge(self, other: "ScanCost") -> "ScanCost":
        """Sum two scan costs."""
        return ScanCost(
            cycles=self.cycles + other.cycles,
            empty_cycles=self.empty_cycles + other.empty_cycles,
            elements=self.elements + other.elements,
            chunks=self.chunks + other.chunks,
        )


_ZERO = ScanCost(cycles=0, empty_cycles=0, elements=0, chunks=0)


def zero_cost() -> ScanCost:
    """An empty scan cost record."""
    return _ZERO


class ScanTrace:
    """Merged scan cost of one recording under each of its scanner configurations.

    Every top-level scan-cost call is costed under all the configurations as
    it is made, so no operand outlives its call.
    """

    def __init__(self, configs: Sequence[ScannerConfig]) -> None:
        if not configs:
            raise SimulationError("record_scans needs at least one scanner configuration")
        self._totals: Dict[ScannerConfig, ScanCost] = dict.fromkeys(configs, _ZERO)

    def cost(self, config: ScannerConfig) -> ScanCost:
        """Merged cost of every recorded call under ``config``.

        Calls that named an explicit configuration keep it; the rest are
        costed as if the scanner had ``config``.
        """
        try:
            return self._totals[config]
        except KeyError:
            raise SimulationError(f"{config} was not one of the recorded configurations") from None

    def _record(self, helper: Callable[..., ScanCost], arguments: Dict[str, Any]) -> ScanCost:
        """Cost one call under every configuration; return its first cost."""
        if arguments.get("config") is not None:
            costs = dict.fromkeys(self._totals, helper(**arguments))
        else:
            costs = {config: helper(**dict(arguments, config=config)) for config in self._totals}
        for config, cost in costs.items():
            self._totals[config] = self._totals[config].merge(cost)
        return next(iter(costs.values()))


#: The trace of the innermost active :func:`record_scans`, if any. A context
#: variable, so concurrent threads and tasks never see each other's trace.
_ACTIVE_TRACE: ContextVar[Optional[ScanTrace]] = ContextVar("scan_trace", default=None)


@contextlib.contextmanager
def record_scans(configs: Sequence[ScannerConfig]) -> Iterator[ScanTrace]:
    """Cost the scan-cost calls made in this context under each of ``configs``.

    Each call returns its cost under ``configs[0]``, so the code inside runs
    as if the scanner had that configuration; the yielded trace holds the
    merged cost under every configuration. Recordings nest: an inner
    ``record_scans`` captures its own calls and the outer trace does not
    see them.
    """
    trace = ScanTrace(configs)
    token = _ACTIVE_TRACE.set(trace)
    try:
        yield trace
    finally:
        _ACTIVE_TRACE.reset(token)


def _recorded(helper: Callable[..., ScanCost]) -> Callable[..., ScanCost]:
    """Cost ``helper`` through the active trace, outermost calls only.

    The active trace is cleared while ``helper`` runs, so a helper built on
    another (``scan_cost_pair`` on ``scan_cost_single``) is recorded once.
    """
    signature = inspect.signature(helper)

    @functools.wraps(helper)
    def recording(*args: Any, **kwargs: Any) -> ScanCost:
        trace = _ACTIVE_TRACE.get()
        if trace is None:
            return helper(*args, **kwargs)
        token = _ACTIVE_TRACE.set(None)
        try:
            return trace._record(helper, signature.bind(*args, **kwargs).arguments)
        finally:
            _ACTIVE_TRACE.reset(token)

    return recording


def _chunk_cycles(
    set_indices: np.ndarray, space_length: int, config: ScannerConfig
) -> ScanCost:
    """Cycle cost of scanning a space of ``space_length`` bits densely.

    Delegates to the scanner's shared vectorized accounting core
    (:func:`repro.core.scanner.timing_from_indices`) so the application
    model and the hardware model count cycles through one code path.
    """
    if space_length <= 0:
        return _ZERO
    timing = timing_from_indices(set_indices, space_length, config)
    return ScanCost(
        cycles=timing.cycles,
        empty_cycles=timing.empty_chunks,
        elements=timing.elements,
        chunks=timing.bit_chunks,
    )


@_recorded
def scan_cost_single(
    indices: np.ndarray,
    space_length: int,
    config: Optional[ScannerConfig] = None,
    bittree: bool = False,
) -> ScanCost:
    """Scanner cost of iterating one sparse operand.

    Args:
        indices: Sorted (or unsorted) unique set-bit positions.
        space_length: Logical length of the scanned space.
        config: Scanner configuration (defaults to 256-in / 16-out).
        bittree: Use the two-level bit-tree traversal, which skips empty
            512-bit tiles at the cost of a top-level scan.
    """
    config = config or ScannerConfig()
    index_array = np.asarray(indices, dtype=np.int64)
    if index_array.size and (index_array.min() < 0 or index_array.max() >= space_length):
        raise SimulationError("scan index outside the scanned space")
    if not bittree:
        return _chunk_cycles(index_array, space_length, config)
    return _bittree_cost(index_array, space_length, config)


@_recorded
def scan_cost_pair(
    indices_a: np.ndarray,
    indices_b: np.ndarray,
    space_length: int,
    mode: ScanMode = ScanMode.UNION,
    config: Optional[ScannerConfig] = None,
    bittree: bool = False,
) -> ScanCost:
    """Scanner cost of a two-operand intersection or union scan.

    The scanner streams the *combined* occupancy mask, so the cost depends
    on the union (or intersection) of the operands' set bits.
    """
    config = config or ScannerConfig()
    a = np.asarray(indices_a, dtype=np.int64)
    b = np.asarray(indices_b, dtype=np.int64)
    if mode is ScanMode.UNION:
        combined = np.union1d(a, b)
    elif mode is ScanMode.INTERSECT:
        combined = np.intersect1d(a, b)
    else:
        combined = a
    # The scanner still has to *stream* the union of occupancy even when
    # intersecting (both operands' bits pass through the AND), so chunk
    # traversal is governed by the union; emitted elements follow `combined`.
    streamed = np.union1d(a, b) if mode in (ScanMode.UNION, ScanMode.INTERSECT) else a
    base = scan_cost_single(streamed, space_length, config, bittree)
    return ScanCost(
        cycles=base.cycles,
        empty_cycles=base.empty_cycles,
        elements=int(combined.size),
        chunks=base.chunks,
    )


def _bittree_cost(indices: np.ndarray, space_length: int, config: ScannerConfig) -> ScanCost:
    """Two-level bit-tree traversal cost: top-level scan plus occupied tiles."""
    tiles = (space_length + BITTREE_TILE_BITS - 1) // BITTREE_TILE_BITS
    if indices.size == 0:
        top = _chunk_cycles(np.empty(0, dtype=np.int64), tiles, config)
        return top
    tile_ids = np.unique(indices // BITTREE_TILE_BITS)
    top = _chunk_cycles(tile_ids, tiles, config)
    # Each occupied tile is scanned as a dense 512-bit region.
    counts = np.bincount(indices // BITTREE_TILE_BITS, minlength=tiles)[tile_ids]
    out = config.output_vectorization
    chunks_per_tile = (BITTREE_TILE_BITS + config.bit_width - 1) // config.bit_width
    # Occupied chunk cycles: approximate each tile's set bits as spread over
    # its chunks proportionally, which matches the dense computation when
    # tiles are a single chunk (512 <= bit_width) and is conservative
    # otherwise.
    per_tile_cycles = np.maximum(chunks_per_tile, (counts + out - 1) // out)
    tile_cycles = int(per_tile_cycles.sum())
    return ScanCost(
        cycles=top.cycles + tile_cycles,
        empty_cycles=top.empty_cycles,
        elements=int(indices.size),
        chunks=top.chunks + int(tile_ids.size) * chunks_per_tile,
    )


def _group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Start offsets of each run of equal values in a sorted key array."""
    if sorted_keys.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))


@_recorded
def scan_cost_rows(
    row_ids: np.ndarray,
    positions: np.ndarray,
    n_rows: int,
    space_length: int,
    config: Optional[ScannerConfig] = None,
    bittree: bool = False,
) -> ScanCost:
    """Aggregate scanner cost of one scan per row, computed in one pass.

    Equivalent to merging ``scan_cost_single(positions of row r, space_length)``
    over every row ``r`` in ``[0, n_rows)`` -- including rows with no
    positions, which still stream their (empty) occupancy chunks. Positions
    must be unique within each row (the callers scan union/occupancy sets).

    Args:
        row_ids: Row id per position (values in ``[0, n_rows)``).
        positions: Set-bit position per entry (values in ``[0, space_length)``).
        n_rows: Number of scans performed (one per row).
        space_length: Logical length of each scanned space.
        config: Scanner configuration (defaults to 256-in / 16-out).
        bittree: Use the two-level bit-tree traversal per row.
    """
    config = config or ScannerConfig()
    rows = np.asarray(row_ids, dtype=np.int64)
    pos = np.asarray(positions, dtype=np.int64)
    if rows.size != pos.size:
        raise SimulationError("row_ids and positions must have matching length")
    if n_rows < 0 or space_length < 0:
        raise SimulationError("n_rows and space_length must be non-negative")
    if pos.size and (pos.min() < 0 or pos.max() >= space_length):
        raise SimulationError("scan index outside the scanned space")
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise SimulationError("row id outside [0, n_rows)")
    if space_length == 0:
        return _ZERO
    if not bittree:
        return _flat_rows_cost(rows, pos, n_rows, space_length, config)
    return _bittree_rows_cost(rows, pos, n_rows, space_length, config)


def _occupied_chunk_cost(chunk_keys: np.ndarray, out: int) -> Tuple[int, int]:
    """(sum of ceil(count/out) over runs, number of runs) of sorted keys."""
    if chunk_keys.size == 0:
        return 0, 0
    starts = _group_starts(chunk_keys)
    counts = np.diff(np.concatenate((starts, [chunk_keys.size])))
    return int(((counts + out - 1) // out).sum()), int(starts.size)


def _flat_rows_cost(
    rows: np.ndarray, pos: np.ndarray, n_rows: int, space_length: int, config: ScannerConfig
) -> ScanCost:
    """Batch equivalent of per-row :func:`_chunk_cycles`."""
    width = config.bit_width
    out = config.output_vectorization
    chunks_per_row = (space_length + width - 1) // width
    keys = np.sort(rows * chunks_per_row + pos // width)
    occupied_cycles, occupied_chunks = _occupied_chunk_cost(keys, out)
    empty = n_rows * chunks_per_row - occupied_chunks
    return ScanCost(
        cycles=occupied_cycles + empty,
        empty_cycles=empty,
        elements=int(pos.size),
        chunks=n_rows * chunks_per_row,
    )


def _bittree_rows_cost(
    rows: np.ndarray, pos: np.ndarray, n_rows: int, space_length: int, config: ScannerConfig
) -> ScanCost:
    """Batch equivalent of per-row :func:`_bittree_cost`."""
    out = config.output_vectorization
    tiles_per_row = (space_length + BITTREE_TILE_BITS - 1) // BITTREE_TILE_BITS
    chunks_per_tile = (BITTREE_TILE_BITS + config.bit_width - 1) // config.bit_width
    # Second level: per-(row, tile) position counts; each occupied tile is
    # streamed densely, costing max(chunks_per_tile, ceil(count/out)).
    tile_keys = np.sort(rows * tiles_per_row + pos // BITTREE_TILE_BITS)
    starts = _group_starts(tile_keys)
    counts = np.diff(np.concatenate((starts, [tile_keys.size])))
    tile_cycles = int(np.maximum(chunks_per_tile, (counts + out - 1) // out).sum())
    occupied_tiles = int(starts.size)
    # Top level: each row scans its tile-occupancy vector of tiles_per_row
    # bits; the distinct (row, tile) runs above are exactly its set bits.
    distinct_tiles = tile_keys[starts] if starts.size else tile_keys
    top = _flat_rows_cost(
        distinct_tiles // tiles_per_row,
        distinct_tiles % tiles_per_row,
        n_rows,
        tiles_per_row,
        config,
    )
    return ScanCost(
        cycles=top.cycles + tile_cycles,
        empty_cycles=top.empty_cycles,
        elements=int(pos.size),
        chunks=top.chunks + occupied_tiles * chunks_per_tile,
    )


@_recorded
def scan_cost_growing_unions(
    row_ids: np.ndarray,
    positions: np.ndarray,
    first_steps: np.ndarray,
    steps_per_row: np.ndarray,
    space_length: int,
    config: Optional[ScannerConfig] = None,
) -> ScanCost:
    """Aggregate cost of scanning a per-row *growing* union once per step.

    Models the SpMSpM inner loop: within each row, step ``t`` unions a new
    operand into the row's accumulated index set and streams the combined
    occupancy, so step ``t`` scans ``U_t = U_{t-1} | operand_t``. Given, for
    every element of the final union ``U_k``, the first step at which it
    entered (1-based), this computes -- without materializing any
    intermediate union -- the exact merge of

        ``scan_cost_pair(operand_t, U_{t-1}, space_length, UNION)``

    over all steps of all rows, using the identity
    ``ceil(c/out) = sum_j [c > out*j]``: within one occupancy chunk whose
    sorted first-steps are ``s_0 <= s_1 <= ...``, the chunk's element count
    at step ``t`` exceeds ``out*j`` exactly for the ``k - s[out*j] + 1``
    steps ``t >= s[out*j]``.

    Args:
        row_ids: Row id per final-union element.
        positions: Set-bit position per final-union element (unique per row).
        first_steps: 1-based step at which each element entered its row's union.
        steps_per_row: Number of union steps per row (length = number of rows).
        space_length: Logical length of the scanned space.
        config: Scanner configuration (defaults to 256-in / 16-out).
    """
    config = config or ScannerConfig()
    rows = np.asarray(row_ids, dtype=np.int64)
    pos = np.asarray(positions, dtype=np.int64)
    first = np.asarray(first_steps, dtype=np.int64)
    steps = np.asarray(steps_per_row, dtype=np.int64)
    if not (rows.size == pos.size == first.size):
        raise SimulationError("row_ids, positions, and first_steps must match in length")
    if space_length <= 0:
        return _ZERO
    total_steps = int(steps.sum())
    if total_steps == 0:
        return _ZERO
    width = config.bit_width
    out = config.output_vectorization
    chunks_per_row = (space_length + width - 1) // width

    if rows.size == 0:
        # Steps with nothing ever unioned cannot occur (each step unions a
        # non-empty operand), but guard the degenerate call anyway.
        empty = total_steps * chunks_per_row
        return ScanCost(
            cycles=empty, empty_cycles=empty, elements=0, chunks=empty
        )

    k_per_element = steps[rows]  # steps executed by each element's row
    # Sort by (row, chunk) group, then by first step within the group.
    group = rows * chunks_per_row + pos // width
    order = np.lexsort((first, group))
    group_sorted = group[order]
    first_sorted = first[order]
    k_sorted = k_per_element[order]
    starts = _group_starts(group_sorted)
    sizes = np.diff(np.concatenate((starts, [group_sorted.size])))
    # Rank of each element within its (row, chunk) group.
    rank = np.arange(group_sorted.size) - np.repeat(starts, sizes)
    # ceil-sum part: elements at ranks 0, out, 2*out, ... each open one more
    # output beat for the k - s + 1 steps from their arrival on.
    threshold = rank % out == 0
    occupied_cycles = int((k_sorted[threshold] - first_sorted[threshold] + 1).sum())
    # Chunks are empty before their first element arrives (1 cycle each).
    chunk_occupied_steps = int((k_sorted[starts] - first_sorted[starts] + 1).sum())
    empty = total_steps * chunks_per_row - chunk_occupied_steps
    # Every step emits its full running union.
    elements = int((k_per_element - first + 1).sum())
    return ScanCost(
        cycles=occupied_cycles + empty,
        empty_cycles=empty,
        elements=elements,
        chunks=total_steps * chunks_per_row,
    )


SparseOperand = Union[BitVector, BitTree]


def _operand_indices(operand: SparseOperand) -> Tuple[np.ndarray, int]:
    """Set-bit positions and logical length of a bit-vector or bit-tree."""
    if isinstance(operand, BitTree):
        return operand.indices(), operand.length
    return operand.indices, operand.length


def scan_cost_operands(
    operand_a: SparseOperand,
    operand_b: Optional[SparseOperand] = None,
    mode: ScanMode = ScanMode.UNION,
    config: Optional[ScannerConfig] = None,
) -> ScanCost:
    """Scanner cost directly from bit-vector / bit-tree operands.

    Bit-tree operands use the two-level traversal (top-level scan plus
    occupied 512-bit tiles); mixed operand kinds are rejected because the
    hardware streams both inputs through one scanner configuration.
    """
    bittree = isinstance(operand_a, BitTree)
    if operand_b is not None and isinstance(operand_b, BitTree) != bittree:
        raise SimulationError("scan operands must share a format")
    for operand in (operand_a, operand_b):
        if isinstance(operand, BitTree) and operand.tile_bits != BITTREE_TILE_BITS:
            raise SimulationError(
                f"the scan model assumes {BITTREE_TILE_BITS}-bit tiles, "
                f"got {operand.tile_bits}"
            )
    indices_a, length_a = _operand_indices(operand_a)
    if operand_b is None:
        return scan_cost_single(indices_a, length_a, config, bittree)
    indices_b, length_b = _operand_indices(operand_b)
    if length_a != length_b:
        raise SimulationError(
            f"scan operands must have equal length: {length_a} vs {length_b}"
        )
    return scan_cost_pair(indices_a, indices_b, length_a, mode, config, bittree)


@_recorded
def data_scan_cost(
    values_nonzero: int, total_values: int, config: Optional[ScannerConfig] = None
) -> ScanCost:
    """Cost of the scalar data scanner over a value stream.

    The data scanner examines ``data_width`` values per cycle and emits one
    non-zero per cycle, so cost is ``max(non-zeros, chunks)``.
    """
    config = config or ScannerConfig()
    if total_values < 0 or values_nonzero < 0 or values_nonzero > total_values:
        raise SimulationError("invalid data scan counts")
    chunks = (total_values + config.data_width - 1) // config.data_width
    cycles = max(values_nonzero, chunks)
    return ScanCost(
        cycles=int(cycles),
        empty_cycles=int(max(0, chunks - values_nonzero)),
        elements=int(values_nonzero),
        chunks=int(chunks),
    )
