"""Property tests for the batched (array-in, array-out) profiling helpers.

Each batch helper must aggregate exactly what its per-element counterpart
computes, across random COO-style inputs, random scanner configurations,
and both flat and bit-tree traversals.
"""

from __future__ import annotations

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
    data_scan_cost,
    record_scans,
    scan_cost_growing_unions,
    scan_cost_pair,
    scan_cost_rows,
    scan_cost_single,
    zero_cost,
)
from repro.config import ScannerConfig
from repro.core.scanner import ScanMode
from repro.errors import SimulationError
from repro.formats import CSRMatrix
from repro.workloads import balanced_partition


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


class TestScanCostGrowingUnions:
    def test_matches_sequential_union_scans(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            n_rows = int(rng.integers(1, 5))
            space = int(rng.integers(1, 2000))
            config = _random_config(rng) if trial % 2 else ScannerConfig()
            expected = zero_cost()
            rows, positions, firsts, steps_per_row = [], [], [], []
            for row in range(n_rows):
                step_count = int(rng.integers(0, 6))
                steps_per_row.append(step_count)
                union = np.empty(0, dtype=np.int64)
                first_seen = {}
                for step in range(1, step_count + 1):
                    operand = np.unique(
                        rng.choice(space, size=int(rng.integers(1, min(space, 60) + 1)))
                    )
                    expected = expected.merge(
                        scan_cost_pair(operand, union, space, ScanMode.UNION, config)
                    )
                    for position in operand.tolist():
                        first_seen.setdefault(position, step)
                    union = np.union1d(union, operand)
                for position, step in first_seen.items():
                    rows.append(row)
                    positions.append(position)
                    firsts.append(step)
            got = scan_cost_growing_unions(
                np.asarray(rows),
                np.asarray(positions),
                np.asarray(firsts),
                np.asarray(steps_per_row),
                space,
                config,
            )
            assert got == expected

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
