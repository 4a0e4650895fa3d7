"""Tests for the architecture configuration objects."""

from __future__ import annotations

import pytest

from repro.config import (
    CapstanConfig,
    MemoryTechnology,
    PlasticineConfig,
    ScannerConfig,
    ShuffleConfig,
    ShuffleMode,
    SpMUConfig,
    default_config,
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
        config = default_config()
        assert config.compute_units == 200
        assert config.memory_units == 200
        assert config.address_generators == 80
        assert config.lanes == 16
        assert config.clock_ghz == 1.6
        assert config.memory_bandwidth_gbps == 1800.0
        assert config.on_chip_sram_bytes == 200 * 256 * 1024

    def test_memory_bandwidths(self):
        assert CapstanConfig(memory=MemoryTechnology.DDR4).memory_bandwidth_gbps == 68.0
        assert CapstanConfig(memory=MemoryTechnology.HBM2).memory_bandwidth_gbps == 900.0

    def test_with_memory(self):
        config = CapstanConfig().with_memory(MemoryTechnology.DDR4)
        assert config.memory is MemoryTechnology.DDR4

    def test_scaled(self):
        scaled = CapstanConfig().scaled(0.5)
        assert scaled.compute_units == 100
        with pytest.raises(ConfigurationError):
            CapstanConfig().scaled(0.0)

    def test_cycle_time(self):
        assert CapstanConfig().cycle_time_ns == pytest.approx(0.625)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CapstanConfig(lanes=12).validate()
        with pytest.raises(ConfigurationError):
            CapstanConfig(sparse_fraction=1.5).validate()

    def test_peak_flops(self):
        assert CapstanConfig().peak_flops_per_cycle == 3200


class TestPlasticineConfig:
    def test_shares_grid_and_clock(self):
        config = PlasticineConfig()
        assert config.compute_units == 200
        assert config.clock_ghz == 1.6
        assert config.cycle_time_ns == pytest.approx(0.625)
