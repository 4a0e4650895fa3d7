"""Tests for the separable allocator and the SpMU reordering pipeline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SpMUConfig
from repro.core import (
    GreedyAllocator,
    MemoryRequest,
    OrderingMode,
    RMWOp,
    SeparableAllocator,
    SparseMemoryUnit,
    make_allocator,
    measure_bank_utilization,
    random_request_vectors,
)
from repro.errors import ConfigurationError, SimulationError


class TestSeparableAllocator:
    def test_no_conflicts_all_granted(self):
        allocator = SeparableAllocator(lanes=4, banks=4)
        requests = [[(lane, 0)] for lane in range(4)]
        result = allocator.allocate(requests)
        assert len(result.grants) == 4
        assert result.granted_banks == 4

    def test_conflicting_requests_one_grant_per_bank(self):
        allocator = SeparableAllocator(lanes=4, banks=4)
        requests = [[(0, 0)] for _ in range(4)]  # everyone wants bank 0
        result = allocator.allocate(requests)
        assert len(result.grants) == 1

    def test_multiple_iterations_improve_matching(self):
        # Lane 0 only wants bank 0; lane 1 wants banks {0, 1}. The first
        # iteration grants bank 0 to lane 0 and leaves lane 1 unmatched; the
        # second iteration adds lane 1 -> bank 1, which a single-pass
        # allocator would miss.
        allocator = SeparableAllocator(lanes=2, banks=2, iterations=3, priorities=1, queue_depth=4)
        requests = [[(0, 0)], [(0, 0), (1, 0)]]
        result = allocator.allocate(requests)
        assert len(result.grants) == 2
        assert set(result.grants.values()) == {0, 1}

    def test_age_priorities_respect_cutoffs(self):
        allocator = SeparableAllocator(lanes=2, banks=2, iterations=3, priorities=3, queue_depth=16)
        # A very young request (age 15) should still be granted eventually.
        requests = [[(0, 15)], []]
        result = allocator.allocate(requests)
        assert result.grants == {0: 0}

    def test_grants_never_conflict(self):
        allocator = SeparableAllocator(lanes=8, banks=8)
        rng = np.random.default_rng(0)
        for _ in range(20):
            requests = [
                [(int(rng.integers(0, 8)), int(rng.integers(0, 16))) for _ in range(4)]
                for _ in range(8)
            ]
            result = allocator.allocate(requests)
            banks = list(result.grants.values())
            assert len(banks) == len(set(banks))

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            SeparableAllocator(lanes=0)
        with pytest.raises(ConfigurationError):
            SeparableAllocator(priorities=5, iterations=3)

    def test_wrong_lane_count_rejected(self):
        with pytest.raises(ConfigurationError):
            SeparableAllocator(lanes=4).allocate([[], []])

    def test_factory(self):
        assert isinstance(make_allocator("separable"), SeparableAllocator)
        assert isinstance(make_allocator("greedy"), GreedyAllocator)
        for kind in ("bogus", "weak", "none"):
            with pytest.raises(ConfigurationError):
                make_allocator(kind)
        # The SpMU builds its allocator through the factory, so an unknown
        # kind is an error there too, not a silent greedy allocator.
        with pytest.raises(ConfigurationError):
            SparseMemoryUnit(allocator_kind="banana")


class TestGreedyAllocator:
    def test_lane_order_priority(self):
        allocator = GreedyAllocator(lanes=2, banks=2)
        requests = [[(0, 0)], [(0, 0), (1, 1)]]
        result = allocator.allocate(requests)
        assert result.grants[0] == 0
        assert result.grants[1] == 1

    def test_oldest_first_within_lane(self):
        allocator = GreedyAllocator(lanes=1, banks=4)
        result = allocator.allocate([[(3, 5), (1, 0)]])
        assert result.grants[0] == 1  # age 0 request preferred


class TestSpMUFunctional:
    @pytest.mark.parametrize(
        "op,initial,value,expected_mem,expected_ret",
        [
            (RMWOp.READ, 7.0, 0.0, 7.0, 7.0),
            (RMWOp.WRITE, 7.0, 3.0, 3.0, 7.0),
            (RMWOp.ADD, 7.0, 3.0, 10.0, 10.0),
            (RMWOp.SUB, 7.0, 3.0, 4.0, 4.0),
            (RMWOp.MIN_REPORT_CHANGED, 7.0, 3.0, 3.0, 1.0),
            (RMWOp.MIN_REPORT_CHANGED, 3.0, 7.0, 3.0, 0.0),
            (RMWOp.MAX, 3.0, 7.0, 7.0, 7.0),
            (RMWOp.SWAP, 7.0, 3.0, 3.0, 7.0),
            (RMWOp.TEST_AND_SET, 0.0, 0.0, 1.0, 0.0),
            (RMWOp.WRITE_IF_ZERO, 0.0, 5.0, 5.0, 0.0),
            (RMWOp.WRITE_IF_ZERO, 2.0, 5.0, 2.0, 2.0),
            (RMWOp.BIT_OR, 4.0, 3.0, 7.0, 7.0),
            (RMWOp.BIT_AND, 6.0, 3.0, 2.0, 2.0),
        ],
    )
    def test_rmw_semantics(self, op, initial, value, expected_mem, expected_ret):
        unit = SparseMemoryUnit()
        unit.load_data(0, np.array([initial]))
        result = unit.execute_request(MemoryRequest(address=0, op=op, value=value))
        assert unit.read_data(0, 1)[0] == expected_mem
        assert result.returned == expected_ret

    def test_out_of_range_address(self):
        unit = SparseMemoryUnit()
        with pytest.raises(SimulationError):
            unit.execute_request(MemoryRequest(address=unit.capacity_words, op=RMWOp.READ))

    def test_simulate_applies_all_updates(self):
        unit = SparseMemoryUnit()
        vectors = [
            [MemoryRequest(address=i, op=RMWOp.ADD, value=1.0) for i in range(16)]
            for _ in range(5)
        ]
        unit.simulate(vectors)
        assert np.allclose(unit.read_data(0, 16), 5.0)

    def test_repeated_read_elision(self):
        unit = SparseMemoryUnit()
        vector = [MemoryRequest(address=3, op=RMWOp.READ) for _ in range(8)]
        stats = unit.simulate([vector])
        assert stats.elided_reads == 7
        assert stats.requests == 1


class TestSpMUTiming:
    def test_unordered_beats_arbitrated(self):
        config = SpMUConfig()
        unordered = measure_bank_utilization(config, OrderingMode.UNORDERED, vectors=80)
        arbitrated = measure_bank_utilization(config, OrderingMode.ARBITRATED, vectors=80)
        assert unordered > arbitrated

    def test_ordering_mode_ranking(self):
        config = SpMUConfig()
        results = {
            mode: measure_bank_utilization(config, mode, vectors=60)
            for mode in (
                OrderingMode.UNORDERED,
                OrderingMode.ADDRESS_ORDERED,
                OrderingMode.FULLY_ORDERED,
            )
        }
        assert results[OrderingMode.UNORDERED] >= results[OrderingMode.ADDRESS_ORDERED]
        assert results[OrderingMode.ADDRESS_ORDERED] >= results[OrderingMode.FULLY_ORDERED]

    def test_deeper_queue_helps(self):
        shallow = measure_bank_utilization(SpMUConfig(queue_depth=4), vectors=80)
        deep = measure_bank_utilization(SpMUConfig(queue_depth=16), vectors=80)
        assert deep > shallow

    def test_unordered_utilization_in_expected_band(self):
        # The paper reports 79.9% for the 16-deep, 16x16, 3-priority design;
        # the reproduction should land well above the arbitrated ~32% level.
        utilization = measure_bank_utilization(SpMUConfig(), vectors=150)
        assert 0.60 <= utilization <= 0.98

    def test_arbitrated_utilization_near_paper(self):
        utilization = measure_bank_utilization(
            SpMUConfig(), OrderingMode.ARBITRATED, vectors=150
        )
        assert 0.25 <= utilization <= 0.45

    def test_stats_consistency(self):
        unit = SparseMemoryUnit()
        trace = random_request_vectors(30, seed=5)
        stats = unit.simulate(trace)
        assert stats.vectors == 30
        assert stats.requests + stats.elided_reads == 30 * 16
        assert stats.cycles > 0
        assert stats.bank_busy_cycles == stats.requests

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_simulation_terminates(self, vectors, seed):
        unit = SparseMemoryUnit()
        trace = random_request_vectors(vectors, seed=seed)
        stats = unit.simulate(trace)
        assert stats.cycles >= vectors  # at least one cycle per vector
