"""Tests for the architecture configuration objects."""

from __future__ import annotations

import pytest

from repro.config import (
    MEMORY_BANDWIDTH_GBPS,
    MEMORY_LATENCY_NS,
    CapstanConfig,
    MemoryTechnology,
    PlasticineConfig,
    ScannerConfig,
    ShuffleConfig,
    ShuffleMode,
    SpMUConfig,
)
from repro.errors import ConfigurationError


class TestSpMUConfig:
    def test_defaults_match_paper(self):
        config = SpMUConfig()
        assert config.banks == 16
        assert config.queue_depth == 16
        assert config.capacity_bytes == 256 * 1024

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SpMUConfig(banks=13).validate()
        with pytest.raises(ConfigurationError):
            SpMUConfig(queue_depth=0).validate()
        with pytest.raises(ConfigurationError):
            SpMUConfig(allocator_priorities=5).validate()


class TestScannerConfig:
    def test_defaults(self):
        config = ScannerConfig()
        assert config.bit_width == 256
        assert config.output_vectorization == 16

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScannerConfig(bit_width=0).validate()


class TestShuffleConfig:
    def test_mode_shift_budget(self):
        assert ShuffleMode.MRG0.max_shift == 0
        assert ShuffleMode.MRG1.max_shift == 1
        assert ShuffleMode.MRG16.max_shift == 16
        assert ShuffleMode.NONE.max_shift == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShuffleConfig(endpoints=3).validate()


class TestCapstanConfig:
    def test_defaults_match_table7(self):
        config = CapstanConfig()
        config.validate()
        assert config.compute_units == 200
        assert config.memory_units == 200
        assert config.address_generators == 80
        assert config.lanes == 16
        assert config.clock_ghz == 1.6
        assert MEMORY_BANDWIDTH_GBPS[config.memory] == 1800.0

    def test_memory_bandwidths(self):
        assert MEMORY_BANDWIDTH_GBPS[MemoryTechnology.DDR4] == 68.0
        assert MEMORY_BANDWIDTH_GBPS[MemoryTechnology.HBM2] == 900.0

    def test_memory_tables_cover_every_technology(self):
        # Any configured memory resolves in both tables the DRAM model reads.
        assert set(MEMORY_BANDWIDTH_GBPS) == set(MemoryTechnology)
        assert set(MEMORY_LATENCY_NS) == set(MemoryTechnology)
        order = (MemoryTechnology.DDR4, MemoryTechnology.HBM2, MemoryTechnology.HBM2E)
        bandwidths = [MEMORY_BANDWIDTH_GBPS[memory] for memory in order]
        assert bandwidths == sorted(bandwidths)
        assert MEMORY_BANDWIDTH_GBPS[MemoryTechnology.IDEAL] == float("inf")
        assert MEMORY_LATENCY_NS[MemoryTechnology.IDEAL] == 0.0

    def test_cycle_time(self):
        assert CapstanConfig().cycle_time_ns == pytest.approx(0.625)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CapstanConfig(lanes=12).validate()
        with pytest.raises(ConfigurationError):
            CapstanConfig(sparse_fraction=1.5).validate()


class TestPlasticineConfig:
    def test_shares_grid_and_clock(self):
        config = PlasticineConfig()
        assert config.compute_units == 200
        assert config.clock_ghz == 1.6
