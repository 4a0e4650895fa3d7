"""Row-product (Gustavson) sparse matrix-matrix multiply (Section 2.4).

For every output row ``i``:

1. loop over the non-zero columns ``j`` of ``A``'s row ``i``;
2. fetch ``B``'s row ``j`` and union its occupancy into a bitset ``Val[i]``
   that marks which output columns will be non-zero;
3. intersect each fetched row with the output indices and accumulate
   ``C[i][k] += A[i][j] * B[j][k]`` directly into a compressed local tile;
4. sparse-iterate ``Val[i]`` to read the compressed tile out, swap it with
   zero for the next row, and write the row to DRAM.

The bitset updates and compressed-tile accumulations are SpMU random
read-modify-writes; the union/intersection scans are bit-vector scanner
work; the row-pointer prefix sum is a dense reduction.

The vectorized profiling backend follows the same row structure at a
coarser grain: it streams over contiguous blocks of output rows, each
bounded by :data:`ROW_BLOCK_MULTIPLIES`, so its working set stays a few
tens of MiB however large the product.
"""

from __future__ import annotations

import numpy as np

from ..core.scanner import ScanMode
from ..errors import WorkloadError
from ..formats.csr import CSRMatrix
from ..formats.convert import to_csr
from ..runtime.registry import RunContext, register_app
from ..workloads import SPMSPM_DATASET_NAMES, load_dataset
from .common import (
    BACKEND_REFERENCE,
    AppRun,
    check_backend,
    expand_slices,
    tile_rows_by_nnz,
    tile_work_from_partition,
)
from .profile import WorkloadProfile, vector_slots_batch, vector_slots_for
from .scan_model import (
    scan_cost_growing_unions,
    scan_cost_pair,
    scan_cost_rows,
    scan_cost_single,
    zero_cost,
)
from .spmv import DEFAULT_OUTER_PARALLELISM, _pointer_compression

# Most multiplies (and most dense keys) one block of output rows expands
# at once in the vectorized backend. The block's arrays are a handful of
# 8-byte words per multiply, so this caps the kernel's working set at a
# few tens of MiB whatever the matrix; set from a sweep over 2**16..2**20
# (DESIGN.md, "The two kernel backends").
ROW_BLOCK_MULTIPLIES = 1 << 17


def spmspm(
    matrix_a: CSRMatrix,
    matrix_b: CSRMatrix,
    dataset: str = "synthetic",
    outer_parallelism: int = DEFAULT_OUTER_PARALLELISM,
    backend: str = "vectorized",
) -> AppRun:
    """Compute ``C = A @ B`` with Gustavson's row-product algorithm.

    Returns an :class:`AppRun` whose output is the dense product (for
    validation against ``A.to_dense() @ B.to_dense()``).
    """
    check_backend(backend)
    if matrix_a.shape[1] != matrix_b.shape[0]:
        raise WorkloadError("inner dimensions must agree")
    if backend == BACKEND_REFERENCE:
        state = _spmspm_reference(matrix_a, matrix_b)
    else:
        state = _spmspm_vectorized(matrix_a, matrix_b)
    (
        output,
        scan_total,
        multiplies,
        bitset_updates,
        accumulator_updates,
        output_nnz,
        b_rows_fetched,
        b_row_bytes,
        vector_slots,
    ) = state
    rows_out = matrix_a.shape[0]

    partitioning = tile_rows_by_nnz(matrix_a, outer_parallelism)
    profile = WorkloadProfile(
        app="spmspm",
        dataset=dataset,
        compute_iterations=multiplies,
        vector_slots=vector_slots,
        scan_cycles=scan_total.cycles,
        scan_empty_cycles=scan_total.empty_cycles,
        scan_elements=scan_total.elements,
        sram_random_reads=matrix_a.nnz,
        sram_random_updates=bitset_updates + accumulator_updates,
        dram_stream_read_bytes=4.0 * (2 * matrix_a.nnz + rows_out + 1) + b_row_bytes,
        dram_stream_write_bytes=4.0 * (2 * output_nnz + rows_out + 1),
        pointer_stream_bytes=4.0 * (matrix_a.nnz + b_rows_fetched),
        pointer_compression_ratio=_pointer_compression(matrix_b.col_indices),
        tile_work=tile_work_from_partition(partitioning),
        cross_tile_request_fraction=0.0,  # each output row is produced locally
        pipelinable=True,
        outer_parallelism=outer_parallelism,
        extra={
            "multiplies": float(multiplies),
            "output_nnz": float(output_nnz),
            "b_rows_fetched": float(b_rows_fetched),
        },
    )
    return AppRun(output=output, profile=profile)


def _spmspm_reference(matrix_a: CSRMatrix, matrix_b: CSRMatrix):
    """The original nested row-product loop (reference profiling backend)."""
    rows_out = matrix_a.shape[0]
    cols_out = matrix_b.shape[1]
    output = np.zeros((rows_out, cols_out), dtype=np.float64)

    a_pointers, a_cols, a_vals = matrix_a.row_pointers, matrix_a.col_indices, matrix_a.values
    b_pointers, b_cols, b_vals = matrix_b.row_pointers, matrix_b.col_indices, matrix_b.values

    scan_total = zero_cost()
    multiplies = 0
    bitset_updates = 0
    accumulator_updates = 0
    output_nnz = 0
    b_rows_fetched = 0
    b_row_bytes = 0.0
    trip_counts = []

    for i in range(rows_out):
        a_start, a_end = a_pointers[i], a_pointers[i + 1]
        if a_start == a_end:
            trip_counts.append(0)
            continue
        accumulator = np.zeros(cols_out, dtype=np.float64)
        valid = np.zeros(cols_out, dtype=bool)
        row_union = np.empty(0, dtype=np.int64)
        for idx in range(a_start, a_end):
            j = int(a_cols[idx])
            a_value = float(a_vals[idx])
            b_start, b_end = b_pointers[j], b_pointers[j + 1]
            b_row_cols = b_cols[b_start:b_end]
            b_row_vals = b_vals[b_start:b_end]
            b_rows_fetched += 1
            b_row_bytes += 8.0 * b_row_cols.size
            trip_counts.append(int(b_row_cols.size))
            if not b_row_cols.size:
                continue
            # Step 3a/3b: union into the output bitset, intersect with the
            # already-valid entries to find where to accumulate.
            scan_total = scan_total.merge(
                scan_cost_pair(b_row_cols, row_union, cols_out, ScanMode.UNION)
            )
            row_union = np.union1d(row_union, b_row_cols)
            valid[b_row_cols] = True
            bitset_updates += int(b_row_cols.size)
            accumulator[b_row_cols] += a_value * b_row_vals
            accumulator_updates += int(b_row_cols.size)
            multiplies += int(b_row_cols.size)
        # Step 3c: read the compressed row back out via a sparse scan.
        scan_total = scan_total.merge(scan_cost_single(row_union, cols_out))
        output[i, valid] = accumulator[valid]
        output_nnz += int(np.count_nonzero(valid))

    return (
        output,
        scan_total,
        multiplies,
        bitset_updates,
        accumulator_updates,
        output_nnz,
        b_rows_fetched,
        b_row_bytes,
        vector_slots_for(trip_counts),
    )


def _row_blocks(multiplies_before: np.ndarray, cols_out: int):
    """Cut the output rows into contiguous ``(r0, r1)`` blocks.

    ``multiplies_before[r]`` counts the multiplies of rows ``0..r-1`` (one
    entry per row plus the total). A block ends before its multiplies, or
    its dense key space (``(r1 - r0) * cols_out``), pass
    :data:`ROW_BLOCK_MULTIPLIES`. A row is never split: a row over the
    bound on its own is a block of one.
    """
    rows_out = multiplies_before.size - 1
    rows_per_block = max(1, ROW_BLOCK_MULTIPLIES // max(cols_out, 1))
    r0 = 0
    while r0 < rows_out:
        limit = multiplies_before[r0] + ROW_BLOCK_MULTIPLIES
        fits = int(np.searchsorted(multiplies_before, limit, "right"))
        r1 = max(r0 + 1, min(fits - 1, r0 + rows_per_block, rows_out))
        yield r0, r1
        r0 = r1


def _spmspm_vectorized(matrix_a: CSRMatrix, matrix_b: CSRMatrix):
    """Batch row-product profiling, streamed over bounded blocks of output rows.

    Within a block of rows (:func:`_row_blocks`), every (A non-zero, B row
    entry) pair is expanded into flat arrays ordered by (output row, inner
    step), from which the block's functional product and output structure
    follow in single numpy passes. The per-step union scans -- whose
    operand is the row's *growing* index set -- are costed once, after the
    loop, by :func:`scan_cost_growing_unions` over every block's union
    elements and their first step of appearance. Each output key
    accumulates in the same (row, step) order whatever the block bound, so
    the output does not depend on it.
    """
    rows_out = matrix_a.shape[0]
    cols_out = matrix_b.shape[1]
    a_lengths = matrix_a.row_lengths()
    b_lengths = matrix_b.row_lengths()

    # Per A-non-zero: the fetched B row and its length (0 for empty rows).
    fetch_lengths = b_lengths[matrix_a.col_indices]
    multiplies = int(fetch_lengths.sum())
    b_rows_fetched = int(matrix_a.nnz)
    b_row_bytes = 8.0 * multiplies
    # One inner-loop instance per fetch, plus a zero-trip instance per
    # empty A row.
    empty_a_rows = int(np.count_nonzero(a_lengths == 0))
    vector_slots = empty_a_rows + vector_slots_batch(fetch_lengths)

    # Union steps skip empty B rows; number steps 1..k within each A row.
    a_row_of_nonzero = np.repeat(np.arange(rows_out, dtype=np.int64), a_lengths)
    step_mask = fetch_lengths > 0
    step_rows = a_row_of_nonzero[step_mask]
    step_b_rows = matrix_a.col_indices[step_mask]
    step_a_values = matrix_a.values[step_mask]
    step_lengths = fetch_lengths[step_mask]
    steps_per_row = np.bincount(step_rows, minlength=rows_out)
    step_bounds = np.concatenate(([0], np.cumsum(steps_per_row)))
    step_ids = np.arange(step_rows.size, dtype=np.int64) - step_bounds[step_rows] + 1
    multiplies_before = np.concatenate(([0], np.cumsum(step_lengths)))[step_bounds]

    output = np.zeros((rows_out, cols_out), dtype=np.float64)
    # (union rows, union cols, first steps) per block; the empty seed
    # covers a matrix with no rows, which has no blocks.
    unions = [(np.empty(0, dtype=np.int64),) * 3]
    for r0, r1 in _row_blocks(multiplies_before, cols_out):
        s0, s1 = step_bounds[r0], step_bounds[r1]
        # Expand the block's fetched B rows: one entry per multiply, in
        # (row, step) order.
        flat, lengths = expand_slices(matrix_b.row_pointers, step_b_rows[s0:s1])
        expanded_steps = np.repeat(step_ids[s0:s1], lengths)
        expanded_values = matrix_b.values[flat] * np.repeat(step_a_values[s0:s1], lengths)
        # Dense block-local (row, col) key per multiply.
        row_bases = (step_rows[s0:s1] - r0) * cols_out
        keys = np.repeat(row_bases, lengths) + matrix_b.col_indices[flat]

        # Output structure: distinct (row, col) pairs; their first step of
        # appearance drives the growing-union scan cost. Dedup by dense
        # scatter over the block's key space rather than by sorting the
        # expansion: the expansion is ordered by (row, step), so assigning
        # in reverse leaves each key's earliest step in place, and a
        # non-zero first step marks an occupied key.
        key_space = (r1 - r0) * cols_out
        first_by_key = np.zeros(key_space, dtype=np.int64)
        first_by_key[keys[::-1]] = expanded_steps[::-1]
        union_keys = np.flatnonzero(first_by_key)
        unions.append(
            (union_keys // cols_out + r0, union_keys % cols_out, first_by_key[union_keys])
        )

        # Functional product: accumulate duplicates per (row, col) in step order.
        output[r0:r1] = np.bincount(keys, weights=expanded_values, minlength=key_space).reshape(
            r1 - r0, cols_out
        )

    union_rows, union_cols, first_steps = (np.concatenate(part) for part in zip(*unions))
    output_nnz = int(union_rows.size)
    scan_total = scan_cost_growing_unions(
        union_rows, union_cols, first_steps, steps_per_row, cols_out
    )
    # Step 3c readback: every non-empty A row scans its final union (which
    # is empty when all its fetched B rows were empty).
    nonempty_a = np.flatnonzero(a_lengths > 0)
    row_remap = np.zeros(rows_out, dtype=np.int64)
    row_remap[nonempty_a] = np.arange(nonempty_a.size)
    scan_total = scan_total.merge(
        scan_cost_rows(row_remap[union_rows], union_cols, int(nonempty_a.size), cols_out)
    )

    return (
        output,
        scan_total,
        multiplies,
        multiplies,  # bitset updates: one per accumulated element
        multiplies,  # accumulator updates likewise
        output_nnz,
        b_rows_fetched,
        b_row_bytes,
        vector_slots,
    )


def reference_spmspm(matrix_a: CSRMatrix, matrix_b: CSRMatrix) -> np.ndarray:
    """Dense reference product used for validation."""
    return matrix_a.to_dense() @ matrix_b.to_dense()


@register_app("spmspm", datasets=SPMSPM_DATASET_NAMES, run=spmspm, order=100, context_fields=())
def _prepare_spmspm(dataset: str, context: RunContext) -> dict:
    """SpMSpM inputs: ``A @ A`` at full scale (Table 6 matrices are small)."""
    generated = load_dataset(dataset, scale=1.0)
    csr = to_csr(generated.matrix)
    return {"matrix_a": csr, "matrix_b": csr, "dataset": generated.name}
