"""Property tests for the batched (array-in, array-out) profiling helpers.

Each batch helper must aggregate exactly what its per-element counterpart
computes, across random COO-style inputs, random scanner configurations,
and both flat and bit-tree traversals.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.common import (
    cross_tile_fraction_rows,
    cross_tile_fraction_rows_batch,
    expand_slices,
)
from repro.apps.profile import vector_slots_batch, vector_slots_for
from repro.apps.scan_model import (
    ScanCost,
    data_scan_cost,
    record_scans,
    scan_cost_growing_unions,
    scan_cost_pair,
    scan_cost_rows,
    scan_cost_single,
    zero_cost,
)
from repro.config import ScannerConfig
from repro.core.scanner import BitVectorScanner, ScanMode, scan_timing_from_mask_reference
from repro.errors import SimulationError
from repro.eval.figures import FIGURE6_BIT_WIDTHS, FIGURE6_OUTPUT_WIDTHS
from repro.formats import BitVector, CSRMatrix
from repro.workloads import balanced_partition

#: Figure 6's sweep: its 512-bit reference, every swept bit width, and every
#: swept output width (five configurations share the 512-bit width).
FIGURE6_CONFIGS = list(
    dict.fromkeys(
        [ScannerConfig(bit_width=512)]
        + [ScannerConfig(bit_width=width) for width in FIGURE6_BIT_WIDTHS]
        + [ScannerConfig(bit_width=512, output_vectorization=out) for out in FIGURE6_OUTPUT_WIDTHS]
    )
)


def _random_config(rng) -> ScannerConfig:
    return ScannerConfig(
        bit_width=int(rng.choice([32, 64, 256, 512])),
        output_vectorization=int(rng.choice([1, 4, 16])),
    )


class TestVectorSlotsBatch:
    def test_matches_loop_on_random_trips(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            trips = rng.integers(0, 100, size=rng.integers(0, 50)).tolist()
            assert vector_slots_batch(trips) == vector_slots_for(trips)

    def test_empty(self):
        assert vector_slots_batch([]) == 0

    def test_zero_trip_still_issues(self):
        assert vector_slots_batch([0, 0]) == 2


class TestExpandSlices:
    def test_matches_per_slice_concatenation(self):
        rng = np.random.default_rng(2)
        lengths = rng.integers(0, 7, size=12)
        pointers = np.concatenate(([0], np.cumsum(lengths)))
        selected = rng.permutation(12)[:7]
        flat, got_lengths = expand_slices(pointers, selected)
        expected = np.concatenate(
            [np.arange(pointers[s], pointers[s + 1]) for s in selected]
        )
        assert np.array_equal(flat, expected)
        assert np.array_equal(got_lengths, lengths[selected])

    def test_all_slices_by_default(self):
        pointers = np.array([0, 2, 2, 5])
        flat, lengths = expand_slices(pointers)
        assert np.array_equal(flat, np.arange(5))
        assert np.array_equal(lengths, [2, 0, 3])


class TestScanCostRows:
    @pytest.mark.parametrize("bittree", [False, True])
    def test_matches_per_row_merge_on_random_inputs(self, bittree):
        rng = np.random.default_rng(3 if bittree else 4)
        for trial in range(25):
            n_rows = int(rng.integers(1, 8))
            space = int(rng.integers(1, 3000))
            config = _random_config(rng) if trial % 2 else ScannerConfig()
            row_chunks, position_chunks = [], []
            expected = zero_cost()
            for row in range(n_rows):
                count = int(rng.integers(0, min(space, 200)))
                positions = np.sort(rng.choice(space, size=count, replace=False))
                expected = expected.merge(
                    scan_cost_single(positions, space, config, bittree=bittree)
                )
                row_chunks.append(np.full(count, row, dtype=np.int64))
                position_chunks.append(positions)
            got = scan_cost_rows(
                np.concatenate(row_chunks),
                np.concatenate(position_chunks),
                n_rows,
                space,
                config,
                bittree=bittree,
            )
            assert got == expected

    def test_rows_without_positions_still_stream_chunks(self):
        config = ScannerConfig()
        empty = np.empty(0, dtype=np.int64)
        got = scan_cost_rows(empty, empty, 3, 1000, config)
        single = scan_cost_single(empty, 1000, config)
        assert got.cycles == 3 * single.cycles
        assert got.empty_cycles == 3 * single.empty_cycles

    def test_rejects_out_of_range(self):
        with pytest.raises(SimulationError):
            scan_cost_rows(np.array([0]), np.array([10]), 1, 5)
        with pytest.raises(SimulationError):
            scan_cost_rows(np.array([2]), np.array([1]), 2, 5)


def _growing_union_rows(rng, row_ids, space, pool=None, min_steps=0):
    """Random growing-union steps for each of ``row_ids``, drawn from ``pool``.

    Returns the ``scan_cost_growing_unions`` arguments but ``steps_per_row``
    (as ``{row: steps}``) and each row's ``(operand, union before)`` pairs.
    ``pool`` defaults to every position of the space.
    """
    pool = np.arange(space) if pool is None else pool
    rows, positions, firsts, steps, pairs = [], [], [], {}, []
    for row in row_ids:
        steps[row] = int(rng.integers(min_steps, 6))
        union = np.empty(0, dtype=np.int64)
        first_seen = {}
        for step in range(1, steps[row] + 1):
            operand = np.unique(rng.choice(pool, size=int(rng.integers(1, min(space, 60) + 1))))
            pairs.append((operand, union))
            for position in operand.tolist():
                first_seen.setdefault(position, step)
            union = np.union1d(union, operand)
        for position, step in first_seen.items():
            rows.append(row)
            positions.append(position)
            firsts.append(step)
    return np.asarray(rows), np.asarray(positions), np.asarray(firsts), steps, pairs


def _sequential_union_scans(pairs, space, config):
    """The step-by-step union scans a growing-union cost must merge to."""
    expected = zero_cost()
    for operand, union in pairs:
        expected = expected.merge(scan_cost_pair(operand, union, space, ScanMode.UNION, config))
    return expected


class TestScanCostGrowingUnions:
    def test_matches_sequential_union_scans(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            n_rows = int(rng.integers(1, 5))
            space = int(rng.integers(1, 2000))
            config = _random_config(rng) if trial % 2 else ScannerConfig()
            rows, positions, firsts, steps, pairs = _growing_union_rows(rng, range(n_rows), space)
            steps_per_row = np.array([steps[row] for row in range(n_rows)])
            got = scan_cost_growing_unions(rows, positions, firsts, steps_per_row, space, config)
            assert got == _sequential_union_scans(pairs, space, config)

    def test_no_steps_is_free(self):
        empty = np.empty(0, dtype=np.int64)
        assert scan_cost_growing_unions(empty, empty, empty, np.array([0, 0]), 100) == zero_cost()


def _random_scan_calls(rng, bittree: bool):
    """One random operand set per scan-cost helper, as ``(helper, kwargs)``."""
    space = int(rng.integers(1, 3000))

    def positions(limit: int) -> np.ndarray:
        count = int(rng.integers(0, min(space, limit)))
        return np.sort(rng.choice(space, size=count, replace=False))

    rows = np.sort(rng.integers(0, 4, size=30))
    keys = np.unique(rows * space + rng.integers(0, space, size=30))
    first = rng.integers(1, 4, size=keys.size)
    total = int(rng.integers(0, 500))
    return [
        (scan_cost_single, dict(indices=positions(300), space_length=space, bittree=bittree)),
        (
            scan_cost_pair,
            dict(
                indices_a=positions(200),
                indices_b=positions(200),
                space_length=space,
                mode=ScanMode.INTERSECT if rng.random() < 0.5 else ScanMode.UNION,
                bittree=bittree,
            ),
        ),
        (
            scan_cost_rows,
            dict(
                row_ids=keys // space,
                positions=keys % space,
                n_rows=4,
                space_length=space,
                bittree=bittree,
            ),
        ),
        (
            scan_cost_growing_unions,
            dict(
                row_ids=keys // space,
                positions=keys % space,
                first_steps=first,
                steps_per_row=np.full(4, 3),
                space_length=space,
            ),
        ),
        (
            data_scan_cost,
            dict(values_nonzero=int(rng.integers(0, total + 1)), total_values=total),
        ),
    ]


class TestScanTrace:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        bit_width=st.sampled_from([1, 4, 16, 64, 128, 256, 512]),
        output_vectorization=st.sampled_from([1, 2, 4, 8, 16]),
        bittree=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_recost_matches_direct_calls(self, seed, bit_width, output_vectorization, bittree):
        calls = _random_scan_calls(np.random.default_rng(seed), bittree)
        config = ScannerConfig(bit_width=bit_width, output_vectorization=output_vectorization)
        with record_scans([ScannerConfig(), config]) as trace:
            recorded = zero_cost()
            for helper, kwargs in calls:
                recorded = recorded.merge(helper(**kwargs))
        # The calls returned their cost under the first config, and
        # scan_cost_pair's inner scan_cost_single is not counted again.
        assert trace.cost(ScannerConfig()) == recorded
        expected = zero_cost()
        for helper, kwargs in calls:
            expected = expected.merge(helper(**kwargs, config=config))
        assert trace.cost(config) == expected

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), bittree=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_figure6_sweep_matches_one_config_calls(self, seed, bittree):
        assert len(FIGURE6_CONFIGS) == 11
        calls = _random_scan_calls(np.random.default_rng(seed), bittree)
        with record_scans(FIGURE6_CONFIGS) as trace:
            for helper, kwargs in calls:
                helper(**kwargs)
        for config in FIGURE6_CONFIGS:
            expected = zero_cost()
            for helper, kwargs in calls:
                expected = expected.merge(helper(**kwargs, config=config))
            assert trace.cost(config) == expected

    @pytest.mark.parametrize("bittree", [False, True])
    def test_sweep_keys_past_16_bits(self, bittree):
        # Row ids past 2**16, and at narrow widths chunk ids past 2**16 too,
        # so grouping keys no longer fit 16 bits. Rows and positions come in
        # pairs 2**16 apart, which a 16-bit key would merge.
        rng = np.random.default_rng(11)
        n_rows, space = 70_000, 70_000
        busy = [3, 4_000, 65_535, 2**16 + 3, 2**16 + 4_000]
        pool = np.concatenate((np.arange(300), np.arange(300) + 2**16))
        rows, positions, firsts, steps, pairs = _growing_union_rows(rng, busy, space, pool, 1)
        steps_per_row = np.zeros(n_rows, dtype=np.int64)
        steps_per_row[busy] = [steps[row] for row in busy]
        with record_scans(FIGURE6_CONFIGS) as trace:
            scan_cost_growing_unions(rows, positions, firsts, steps_per_row, space)
            scan_cost_rows(rows, positions, n_rows, space, bittree=bittree)
        for config in FIGURE6_CONFIGS:
            expected = zero_cost()
            for row in busy:
                expected = expected.merge(
                    scan_cost_single(positions[rows == row], space, config, bittree)
                )
            idle = scan_cost_single(np.empty(0, dtype=np.int64), space, config, bittree)
            expected = expected.merge(
                ScanCost(*(value * (n_rows - len(busy)) for value in dataclasses.astuple(idle)))
            )
            expected = expected.merge(_sequential_union_scans(pairs, space, config))
            assert trace.cost(config) == expected

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        config=st.sampled_from(FIGURE6_CONFIGS),
        mode=st.sampled_from([ScanMode.UNION, ScanMode.INTERSECT]),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_config_call_matches_bit_vector_scanner(self, seed, config, mode):
        rng = np.random.default_rng(seed)
        space = int(rng.integers(1, 1500))
        a, b = (
            np.sort(rng.choice(space, size=int(rng.integers(0, space + 1)), replace=False))
            for _ in range(2)
        )
        scanner = BitVectorScanner(config)
        vector_a, vector_b = BitVector(space, a), BitVector(space, b)
        single = scanner.timing(vector_a, mode=ScanMode.SINGLE)
        assert single == scan_timing_from_mask_reference(vector_a.mask, config)
        assert scan_cost_single(a, space, config) == ScanCost(
            cycles=single.cycles,
            empty_cycles=single.empty_chunks,
            elements=single.elements,
            chunks=single.bit_chunks,
        )
        # A pair streams the union's occupancy and emits the combined set.
        streamed = scanner.timing(vector_a, vector_b, ScanMode.UNION)
        emitted = scanner.timing(vector_a, vector_b, mode)
        assert scan_cost_pair(a, b, space, mode, config) == ScanCost(
            cycles=streamed.cycles,
            empty_cycles=streamed.empty_chunks,
            elements=emitted.elements,
            chunks=streamed.bit_chunks,
        )

    def test_calls_inside_run_under_the_first_config(self):
        narrow = ScannerConfig(bit_width=4, output_vectorization=1)
        indices = np.arange(0, 1000, 7)
        with record_scans([narrow, ScannerConfig()]):
            inside = scan_cost_single(indices, 1000)
        assert inside == scan_cost_single(indices, 1000, narrow)
        assert inside != scan_cost_single(indices, 1000)

    def test_explicit_config_is_kept_when_recosting(self):
        narrow = ScannerConfig(bit_width=4, output_vectorization=1)
        indices = np.arange(0, 1000, 7)
        wide = ScannerConfig(bit_width=512)
        with record_scans([wide]) as trace:
            scan_cost_single(indices, 1000, narrow)
            scan_cost_single(indices, 1000)
        expected = scan_cost_single(indices, 1000, narrow).merge(
            scan_cost_single(indices, 1000, wide)
        )
        assert trace.cost(wide) == expected

    def test_recordings_nest_and_ignore_outside_calls(self):
        indices = np.arange(10)
        scan_cost_single(indices, 100)
        with record_scans([ScannerConfig()]) as outer:
            with record_scans([ScannerConfig()]) as inner:
                scan_cost_pair(indices, indices + 1, 100)
            scan_cost_single(indices, 100)
        assert inner.cost(ScannerConfig()) == scan_cost_pair(indices, indices + 1, 100)
        assert outer.cost(ScannerConfig()) == scan_cost_single(indices, 100)

    def test_unrecorded_config_is_an_error(self):
        with record_scans([ScannerConfig()]) as trace:
            scan_cost_single(np.arange(10), 100)
        with pytest.raises(SimulationError):
            trace.cost(ScannerConfig(bit_width=16))
        with pytest.raises(SimulationError):
            with record_scans([]):
                pass


class TestCrossTileBatch:
    def test_matches_loop_on_random_matrices(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            rows, cols = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            dense = rng.random((rows, cols))
            dense[dense < 0.8] = 0.0
            matrix = CSRMatrix.from_dense(dense)
            tiles = int(rng.integers(1, 9))
            partitioning = balanced_partition(
                matrix.row_lengths().astype(np.float64), tiles
            )
            assert cross_tile_fraction_rows_batch(
                matrix, partitioning
            ) == cross_tile_fraction_rows(matrix, partitioning)
