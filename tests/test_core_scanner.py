"""Tests for the bit-vector / data scanners and the vectorized scan model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.scan_model import data_scan_cost, scan_cost_pair, scan_cost_single
from repro.config import ScannerConfig
from repro.core import BitVectorScanner, ScanMode
from repro.errors import SimulationError
from repro.formats import BitVector


class TestBitVectorScanner:
    def test_intersection_indices(self):
        a = BitVector(8, [1, 3, 5], [10.0, 11.0, 12.0])
        b = BitVector(8, [3, 4, 5], [20.0, 21.0, 22.0])
        elements = BitVectorScanner().scan(a, b, ScanMode.INTERSECT)
        assert [e.dense_index for e in elements] == [3, 5]
        assert [e.index_a for e in elements] == [1, 2]
        assert [e.index_b for e in elements] == [0, 2]
        assert [e.ordinal for e in elements] == [0, 1]

    def test_union_absent_side_is_minus_one(self):
        a = BitVector(6, [0, 2])
        b = BitVector(6, [2, 4])
        elements = BitVectorScanner().scan(a, b, ScanMode.UNION)
        assert [e.dense_index for e in elements] == [0, 2, 4]
        assert elements[0].index_b == -1
        assert elements[2].index_a == -1

    def test_single_operand(self):
        a = BitVector(5, [1, 4])
        elements = BitVectorScanner().scan(a, mode=ScanMode.SINGLE)
        assert [e.dense_index for e in elements] == [1, 4]
        assert all(e.index_b == -1 for e in elements)

    def test_count_matches_scan(self):
        a = BitVector(32, [1, 5, 9])
        b = BitVector(32, [5, 9, 30])
        scanner = BitVectorScanner()
        assert scanner.count(a, b, ScanMode.INTERSECT) == 2
        assert scanner.count(a, b, ScanMode.UNION) == 4

    def test_length_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            BitVectorScanner().scan(BitVector(4, [0]), BitVector(5, [0]))

    def test_timing_empty_chunks(self):
        config = ScannerConfig(bit_width=256, output_vectorization=16)
        vector = BitVector(1024, [700])
        timing = BitVectorScanner(config).timing(vector, mode=ScanMode.SINGLE)
        assert timing.bit_chunks == 4
        assert timing.empty_chunks == 3
        assert timing.cycles == 4

    def test_timing_output_limited(self):
        config = ScannerConfig(bit_width=256, output_vectorization=4)
        vector = BitVector(256, list(range(20)))
        timing = BitVectorScanner(config).timing(vector, mode=ScanMode.SINGLE)
        assert timing.cycles == 5  # ceil(20 / 4)
        assert timing.output_limited_cycles == 4

    def test_timing_elements_per_cycle(self):
        vector = BitVector(256, list(range(16)))
        timing = BitVectorScanner().timing(vector, mode=ScanMode.SINGLE)
        assert timing.elements_per_cycle == pytest.approx(16.0)


class TestScanCostModel:
    """The vectorized scan model must agree with the hardware scanner."""

    @given(st.lists(st.integers(min_value=0, max_value=1023), unique=True, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_single_matches_hardware(self, indices):
        config = ScannerConfig()
        cost = scan_cost_single(np.array(indices, dtype=np.int64), 1024, config)
        timing = BitVectorScanner(config).timing(BitVector(1024, indices), mode=ScanMode.SINGLE)
        assert cost.cycles == timing.cycles
        assert cost.empty_cycles == timing.empty_chunks
        assert cost.elements == timing.elements

    @given(
        st.lists(st.integers(min_value=0, max_value=511), unique=True, max_size=48),
        st.lists(st.integers(min_value=0, max_value=511), unique=True, max_size=48),
    )
    @settings(max_examples=40, deadline=None)
    def test_pair_element_counts(self, a, b):
        a_arr = np.array(a, dtype=np.int64)
        b_arr = np.array(b, dtype=np.int64)
        union = scan_cost_pair(a_arr, b_arr, 512, ScanMode.UNION)
        intersect = scan_cost_pair(a_arr, b_arr, 512, ScanMode.INTERSECT)
        assert union.elements == len(set(a) | set(b))
        assert intersect.elements == len(set(a) & set(b))
        assert union.cycles >= intersect.cycles or union.cycles == intersect.cycles

    def test_bittree_skips_empty_tiles(self):
        indices = np.array([5, 100_000], dtype=np.int64)
        flat = scan_cost_single(indices, 262_144)
        tree = scan_cost_single(indices, 262_144, bittree=True)
        assert tree.cycles < flat.cycles

    def test_empty_space(self):
        cost = scan_cost_single(np.array([], dtype=np.int64), 0)
        assert cost.cycles == 0 and cost.elements == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(SimulationError):
            scan_cost_single(np.array([10]), 5)

    def test_data_scan_cost(self):
        cost = data_scan_cost(values_nonzero=10, total_values=64)
        assert cost.cycles == 10
        cost_sparse = data_scan_cost(values_nonzero=1, total_values=64)
        assert cost_sparse.cycles == 4  # limited by chunk traversal
