"""Tests for the simulation substrate (DRAM, SRAM, network, stats)."""

from __future__ import annotations

import itertools

import pytest

from repro.config import MEMORY_BANDWIDTH_GBPS, MemoryTechnology
from repro.errors import SimulationError
from repro.sim.network import HOP_LATENCY_CYCLES
from repro.sim import (
    DRAMModel,
    OnChipNetwork,
    RunMetrics,
    StallBreakdown,
    StaticBankTiming,
    TrafficSummary,
    geometric_mean,
)


class TestDRAMModel:
    def test_bandwidth_ordering(self):
        ddr4 = DRAMModel(MemoryTechnology.DDR4)
        hbm2e = DRAMModel(MemoryTechnology.HBM2E)
        assert ddr4.streaming_cycles(1e6) > hbm2e.streaming_cycles(1e6)

    def test_random_slower_than_streaming(self):
        model = DRAMModel(MemoryTechnology.HBM2)
        accesses = 1000
        random = model.traffic_cycles(TrafficSummary(random_accesses=accesses))
        assert random > model.streaming_cycles(accesses * 4)

    def test_ideal_memory_is_free(self):
        model = DRAMModel(MemoryTechnology.IDEAL)
        assert model.streaming_cycles(1e9) == 0.0
        assert model.traffic_cycles(TrafficSummary(random_accesses=1000)) == 0.0

    def test_traffic_summary(self):
        model = DRAMModel(MemoryTechnology.DDR4)
        traffic = TrafficSummary(streaming_read_bytes=1e6, random_accesses=100)
        assert model.traffic_cycles(traffic) > model.streaming_cycles(1e6)

    def test_bandwidth_override(self):
        model = DRAMModel(MemoryTechnology.HBM2E)
        slower = DRAMModel(MemoryTechnology.HBM2E, bandwidth_gbps=100.0)
        assert slower.streaming_cycles(1e6) > model.streaming_cycles(1e6)

    def test_negative_bytes_rejected(self):
        with pytest.raises(SimulationError):
            DRAMModel().streaming_cycles(-1)

    @pytest.mark.parametrize("technology", list(MemoryTechnology))
    def test_peak_bytes_per_cycle(self, technology):
        # GB/s over Gcycles/s: the technology's table bandwidth per cycle.
        model = DRAMModel(technology)
        assert model.technology is technology
        assert model.bytes_per_cycle_peak == pytest.approx(
            MEMORY_BANDWIDTH_GBPS[technology] / 1.6
        )


class TestSRAMModels:
    def test_static_bank_timing(self):
        timing = StaticBankTiming()
        assert timing.random_read_cycles(100) == 100
        assert timing.random_rmw_cycles(10) == 50

    @pytest.mark.parametrize("bubble", [0, 3])
    def test_rmw_serializes_read_bubble_write(self, bubble):
        timing = StaticBankTiming(rmw_bubble_cycles=bubble)
        assert timing.random_rmw_cycles(0) == 0
        assert timing.random_rmw_cycles(7) == 7 * (1 + bubble)
        assert timing.random_rmw_cycles(7) >= timing.random_read_cycles(7)

    def test_negative_counts_rejected(self):
        timing = StaticBankTiming()
        with pytest.raises(SimulationError):
            timing.random_read_cycles(-1)
        with pytest.raises(SimulationError):
            timing.random_rmw_cycles(-1)


class TestNetwork:
    def test_average_latency_positive(self):
        network = OnChipNetwork()
        assert network.average_latency_cycles > 0

    def test_round_trip_scales_with_rounds(self):
        network = OnChipNetwork()
        expected = 10 * 2 * network.average_latency_cycles
        assert network.round_trip_cycles(10) == pytest.approx(expected)

    def test_invalid_config(self):
        with pytest.raises(SimulationError):
            OnChipNetwork(grid_width=0)

    @pytest.mark.parametrize("width", [1, 2, 3, 5])
    def test_average_hops_matches_enumeration(self, width):
        # Mean Manhattan distance over every ordered pair of grid tiles.
        tiles = list(itertools.product(range(width), repeat=2))
        total = sum(
            abs(x1 - x2) + abs(y1 - y2)
            for (x1, y1), (x2, y2) in itertools.product(tiles, repeat=2)
        )
        network = OnChipNetwork(grid_width=width)
        assert network.average_hops == pytest.approx(total / len(tiles) ** 2)
        assert network.average_latency_cycles == pytest.approx(
            HOP_LATENCY_CYCLES * network.average_hops
        )


class TestStats:
    def test_breakdown_fractions_sum_to_one(self):
        breakdown = StallBreakdown(active=10, scan=5, dram=5)
        assert sum(breakdown.fractions().values()) == pytest.approx(1.0)

    def test_activity_factor(self):
        assert StallBreakdown(active=30, scan=10, dram=20).activity_factor == pytest.approx(0.5)
        assert StallBreakdown().activity_factor == 0.0

    def test_run_metrics_speedup(self):
        fast = RunMetrics("a", "d", "p1", cycles=100, clock_ghz=1.0)
        slow = RunMetrics("a", "d", "p2", cycles=1000, clock_ghz=1.0)
        assert fast.speedup_over(slow) == pytest.approx(10.0)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
