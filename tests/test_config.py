"""Tests for the architecture configuration objects."""

from __future__ import annotations

import pytest

from repro.config import (
    ADDRESS_GENERATORS,
    CLOCK_GHZ,
    MEMORY_BANDWIDTH_GBPS,
    MEMORY_UNITS,
    CapstanConfig,
    MemoryTechnology,
    ScannerConfig,
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


class TestShuffleMode:
    def test_mode_shift_budget(self):
        assert ShuffleMode.MRG0.max_shift == 0
        assert ShuffleMode.MRG1.max_shift == 1
        assert ShuffleMode.MRG16.max_shift == 16
        assert ShuffleMode.NONE.max_shift == 0


class TestCapstanConfig:
    def test_defaults_match_table7(self):
        config = CapstanConfig()
        config.validate()
        assert config.compute_units == 200
        assert MEMORY_UNITS == 200
        assert ADDRESS_GENERATORS == 80
        assert config.lanes == 16
        assert CLOCK_GHZ == 1.6
        assert MEMORY_BANDWIDTH_GBPS[config.memory] == 1800.0
        assert config.shuffle is ShuffleMode.MRG1

    def test_memory_bandwidths(self):
        assert MEMORY_BANDWIDTH_GBPS[MemoryTechnology.DDR4] == 68.0
        assert MEMORY_BANDWIDTH_GBPS[MemoryTechnology.HBM2] == 900.0

    def test_memory_table_covers_every_technology(self):
        # Any configured memory resolves in the table the DRAM model reads.
        assert set(MEMORY_BANDWIDTH_GBPS) == set(MemoryTechnology)
        order = (MemoryTechnology.DDR4, MemoryTechnology.HBM2, MemoryTechnology.HBM2E)
        bandwidths = [MEMORY_BANDWIDTH_GBPS[memory] for memory in order]
        assert bandwidths == sorted(bandwidths)
        assert MEMORY_BANDWIDTH_GBPS[MemoryTechnology.IDEAL] == float("inf")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CapstanConfig(lanes=12).validate()
        with pytest.raises(ConfigurationError, match="compute_units"):
            CapstanConfig(compute_units=0).validate()
