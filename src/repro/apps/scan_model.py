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

Every helper is a sweep: it costs a list of scanner configurations in one
pass, doing its configuration-independent work (conversion, validation,
unions, ordering) once, its grouping and sorting once per distinct
``bit_width`` (:func:`~repro.core.scanner.per_bit_width`), and only the
``ceil(count / output_vectorization)`` reduction per configuration. A
plain call is a sweep of one configuration. A scanner sweep never
re-executes an application: inside :func:`record_scans`, every top-level
call of a scan-cost helper sweeps all the recorded configurations as it
is made, and the :class:`ScanTrace` keeps one merged cost per
configuration (:meth:`ScanTrace.cost`).
"""

from __future__ import annotations

import contextlib
import dataclasses
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..config import ScannerConfig
from ..core.scanner import ScanMode, per_bit_width, timing_sweep
from ..errors import SimulationError

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
    it is made, in one sweep, so no operand outlives its call.
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

    def _record(
        self, sweep: Callable[..., List[ScanCost]], config: Optional[ScannerConfig], args: tuple
    ) -> ScanCost:
        """Cost one call under every configuration in one sweep; return its first cost."""
        if config is not None:
            costs = sweep([config], *args) * len(self._totals)
        else:
            costs = sweep(list(self._totals), *args)
        for recorded, cost in zip(self._totals, costs):
            self._totals[recorded] = self._totals[recorded].merge(cost)
        return costs[0]


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


def _cost(
    sweep: Callable[..., List[ScanCost]], config: Optional[ScannerConfig], *args: Any
) -> ScanCost:
    """One scan-cost call: a sweep of the active trace's configurations, else of one.

    ``sweep(configs, *args)`` returns the call's cost under each of
    ``configs``. Sweeps never call the public helpers, so a helper built on
    another (``scan_cost_pair`` on a single scan) is recorded once.
    """
    trace = _ACTIVE_TRACE.get()
    if trace is None:
        return sweep([config or ScannerConfig()], *args)[0]
    return trace._record(sweep, config, args)


def _narrow(values: np.ndarray) -> np.ndarray:
    """``values`` in the narrowest unsigned dtype that holds them.

    Left as they are when any is negative or none fits in 32 bits.
    """
    if values.size == 0 or values.min() < 0:
        return values
    top = int(values.max())
    for dtype in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dtype).max:
            return values.astype(dtype, copy=False)
    return values


def _lex_order(minor: np.ndarray, major: np.ndarray) -> np.ndarray:
    """Stable order by ``(major, minor)``.

    Two stable argsorts of narrowed keys: numpy radix-sorts keys of 16 bits
    or fewer, which beats one ``lexsort`` of 64-bit keys.
    """
    order = np.argsort(_narrow(minor), kind="stable")
    return order[np.argsort(_narrow(major)[order], kind="stable")]


def _group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Start offsets of each run of equal values in a sorted key array."""
    if sorted_keys.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))


def _with_tiles(
    top: ScanCost, counts: np.ndarray, config: ScannerConfig, elements: int
) -> ScanCost:
    """A bit-tree scan: its top-level scan ``top`` plus the occupied 512-bit tiles.

    ``counts`` holds each occupied tile's set bits. Each occupied tile is
    scanned as a dense 512-bit region; its set bits are approximated as
    spread over its chunks proportionally, which matches the dense
    computation when tiles are a single chunk (512 <= bit_width) and is
    conservative otherwise.
    """
    out = config.output_vectorization
    chunks_per_tile = (BITTREE_TILE_BITS + config.bit_width - 1) // config.bit_width
    tile_cycles = int(np.maximum(chunks_per_tile, (counts + out - 1) // out).sum())
    return ScanCost(
        cycles=top.cycles + tile_cycles,
        empty_cycles=top.empty_cycles,
        elements=elements,
        chunks=top.chunks + int(counts.size) * chunks_per_tile,
    )


def _flat_sweep(
    configs: Sequence[ScannerConfig], indices: np.ndarray, space_length: int
) -> List[ScanCost]:
    """Cost of scanning a space of ``space_length`` bits densely, per configuration.

    Delegates to the scanner's shared vectorized accounting core
    (:func:`repro.core.scanner.timing_sweep`) so the application model and
    the hardware model count cycles through one code path.
    """
    if space_length <= 0:
        return [_ZERO] * len(configs)
    return [
        ScanCost(
            cycles=timing.cycles,
            empty_cycles=timing.empty_chunks,
            elements=timing.elements,
            chunks=timing.bit_chunks,
        )
        for timing in timing_sweep(indices, space_length, configs)
    ]


def _bittree_sweep(
    configs: Sequence[ScannerConfig], indices: np.ndarray, space_length: int
) -> List[ScanCost]:
    """Two-level bit-tree traversal cost: top-level scan plus occupied tiles."""
    tiles = (space_length + BITTREE_TILE_BITS - 1) // BITTREE_TILE_BITS
    tile_of = indices // BITTREE_TILE_BITS
    tile_ids = np.unique(tile_of)
    counts = np.bincount(tile_of, minlength=tiles)[tile_ids]
    top = _flat_sweep(configs, tile_ids, tiles)
    return [
        _with_tiles(cost, counts, config, int(indices.size)) for cost, config in zip(top, configs)
    ]


def _single_sweep(
    configs: Sequence[ScannerConfig], indices: np.ndarray, space_length: int, bittree: bool
) -> List[ScanCost]:
    index_array = np.asarray(indices, dtype=np.int64)
    if index_array.size and (index_array.min() < 0 or index_array.max() >= space_length):
        raise SimulationError("scan index outside the scanned space")
    if not bittree:
        return _flat_sweep(configs, index_array, space_length)
    return _bittree_sweep(configs, index_array, space_length)


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
    return _cost(_single_sweep, config, indices, space_length, bittree)


def _pair_sweep(
    configs: Sequence[ScannerConfig],
    indices_a: np.ndarray,
    indices_b: np.ndarray,
    space_length: int,
    mode: ScanMode,
    bittree: bool,
) -> List[ScanCost]:
    a = np.asarray(indices_a, dtype=np.int64)
    b = np.asarray(indices_b, dtype=np.int64)
    # The scanner still has to *stream* the union of occupancy even when
    # intersecting (both operands' bits pass through the AND), so chunk
    # traversal is governed by the union; emitted elements follow the
    # intersection.
    streamed = np.union1d(a, b) if mode in (ScanMode.UNION, ScanMode.INTERSECT) else a
    elements = np.intersect1d(a, b).size if mode is ScanMode.INTERSECT else streamed.size
    return [
        dataclasses.replace(cost, elements=int(elements))
        for cost in _single_sweep(configs, streamed, space_length, bittree)
    ]


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
    return _cost(_pair_sweep, config, indices_a, indices_b, space_length, mode, bittree)


def _flat_rows_sweep(
    configs: Sequence[ScannerConfig],
    rows: np.ndarray,
    pos: np.ndarray,
    n_rows: int,
    space_length: int,
) -> List[ScanCost]:
    """Batch equivalent of per-row :func:`_flat_sweep`."""
    # Sorted by (row, position) once, the (row, chunk) keys of every bit
    # width come out sorted.
    rows, pos = np.divmod(np.sort(rows * space_length + pos), space_length)

    def prepare(width: int) -> Callable[[int], ScanCost]:
        chunks_per_row = (space_length + width - 1) // width
        keys = rows * chunks_per_row + pos // width
        counts = np.diff(np.append(_group_starts(keys), keys.size))
        chunks = n_rows * chunks_per_row
        empty = chunks - int(counts.size)

        def cost(out: int) -> ScanCost:
            # An occupied chunk takes ceil(count / out) cycles, an empty one 1.
            occupied = int(((counts + out - 1) // out).sum())
            return ScanCost(
                cycles=occupied + empty, empty_cycles=empty, elements=int(pos.size), chunks=chunks
            )

        return cost

    return per_bit_width(configs, prepare)


def _bittree_rows_sweep(
    configs: Sequence[ScannerConfig],
    rows: np.ndarray,
    pos: np.ndarray,
    n_rows: int,
    space_length: int,
) -> List[ScanCost]:
    """Batch equivalent of per-row :func:`_bittree_sweep`."""
    tiles_per_row = (space_length + BITTREE_TILE_BITS - 1) // BITTREE_TILE_BITS
    # Second level: per-(row, tile) position counts.
    tile_keys = np.sort(rows * tiles_per_row + pos // BITTREE_TILE_BITS)
    starts = _group_starts(tile_keys)
    counts = np.diff(np.append(starts, tile_keys.size))
    # Top level: each row scans its tile-occupancy vector of tiles_per_row
    # bits; the distinct (row, tile) runs above are exactly its set bits.
    distinct = tile_keys[starts]
    top = _flat_rows_sweep(
        configs, distinct // tiles_per_row, distinct % tiles_per_row, n_rows, tiles_per_row
    )
    return [_with_tiles(cost, counts, config, int(pos.size)) for cost, config in zip(top, configs)]


def _rows_sweep(
    configs: Sequence[ScannerConfig],
    row_ids: np.ndarray,
    positions: np.ndarray,
    n_rows: int,
    space_length: int,
    bittree: bool,
) -> List[ScanCost]:
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
        return [_ZERO] * len(configs)
    if not bittree:
        return _flat_rows_sweep(configs, rows, pos, n_rows, space_length)
    return _bittree_rows_sweep(configs, rows, pos, n_rows, space_length)


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
    return _cost(_rows_sweep, config, row_ids, positions, n_rows, space_length, bittree)


def _growing_unions_sweep(
    configs: Sequence[ScannerConfig],
    row_ids: np.ndarray,
    positions: np.ndarray,
    first_steps: np.ndarray,
    steps_per_row: np.ndarray,
    space_length: int,
) -> List[ScanCost]:
    rows = np.asarray(row_ids, dtype=np.int64)
    pos = np.asarray(positions, dtype=np.int64)
    first = np.asarray(first_steps, dtype=np.int64)
    steps = np.asarray(steps_per_row, dtype=np.int64)
    if not (rows.size == pos.size == first.size):
        raise SimulationError("row_ids, positions, and first_steps must match in length")
    total_steps = int(steps.sum())
    if space_length <= 0 or total_steps == 0:
        return [_ZERO] * len(configs)
    # Each element is in its row's union for the k - s + 1 steps from its
    # first step s to its row's last step k, and every step emits its full
    # running union.
    spans = steps[rows] - first + 1
    elements = int(spans.sum())
    # Ordered by (row, first step) once, a stable regroup by (row, chunk)
    # leaves every chunk's elements in arrival order.
    order = _lex_order(first, rows)
    rows, pos, spans = _narrow(rows[order]), pos[order], spans[order]

    def prepare(width: int) -> Callable[[int], ScanCost]:
        chunks_per_row = (space_length + width - 1) // width
        chunks = total_steps * chunks_per_row
        chunk = pos // width
        grouped = _lex_order(chunk, rows)
        starts = _group_starts(rows[grouped].astype(np.int64) * chunks_per_row + chunk[grouped])
        sizes = np.diff(np.append(starts, grouped.size))
        # Rank of each element within its (row, chunk) group.
        rank = np.arange(grouped.size) - np.repeat(starts, sizes)
        grouped_spans = spans[grouped]
        # Chunks are empty before their first element arrives (1 cycle each).
        empty = chunks - int(grouped_spans[starts].sum())

        def cost(out: int) -> ScanCost:
            # Elements at ranks 0, out, 2*out, ... each open one more output
            # beat for the steps they are present.
            occupied = int(grouped_spans[rank % out == 0].sum())
            return ScanCost(
                cycles=occupied + empty, empty_cycles=empty, elements=elements, chunks=chunks
            )

        return cost

    return per_bit_width(configs, prepare)


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
    return _cost(
        _growing_unions_sweep, config, row_ids, positions, first_steps, steps_per_row, space_length
    )


def _data_sweep(
    configs: Sequence[ScannerConfig], values_nonzero: int, total_values: int
) -> List[ScanCost]:
    if total_values < 0 or values_nonzero < 0 or values_nonzero > total_values:
        raise SimulationError("invalid data scan counts")
    costs = []
    for config in configs:
        chunks = (total_values + config.data_width - 1) // config.data_width
        costs.append(
            ScanCost(
                cycles=int(max(values_nonzero, chunks)),
                empty_cycles=int(max(0, chunks - values_nonzero)),
                elements=int(values_nonzero),
                chunks=int(chunks),
            )
        )
    return costs


def data_scan_cost(
    values_nonzero: int, total_values: int, config: Optional[ScannerConfig] = None
) -> ScanCost:
    """Cost of the scalar data scanner over a value stream.

    The data scanner examines ``data_width`` values per cycle and emits one
    non-zero per cycle, so cost is ``max(non-zeros, chunks)``.
    """
    return _cost(_data_sweep, config, values_nonzero, total_values)
