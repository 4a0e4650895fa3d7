"""Architecture configuration objects for Capstan and its baselines.

The numbers here come from Section 4.1 and Table 7 of the paper: a 20x20
checkerboard of compute units (CUs) and sparse memory units (SpMUs) ringed by
80 DRAM address generators (AGs), 16 vector lanes per CU, 16 banks per SpMU,
a 16-entry reorder queue, and a choice of DDR4 / HBM2 / HBM2E memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict

from .errors import ConfigurationError


class MemoryTechnology(Enum):
    """Off-chip memory technologies evaluated in the paper (Table 7)."""

    DDR4 = "ddr4"
    HBM2 = "hbm2"
    HBM2E = "hbm2e"
    IDEAL = "ideal"


#: Peak off-chip bandwidth in GB/s for each technology (Table 7).
MEMORY_BANDWIDTH_GBPS: Dict[MemoryTechnology, float] = {
    MemoryTechnology.DDR4: 68.0,
    MemoryTechnology.HBM2: 900.0,
    MemoryTechnology.HBM2E: 1800.0,
    MemoryTechnology.IDEAL: float("inf"),
}

#: Typical random-access (closed-page) latency in nanoseconds.
MEMORY_LATENCY_NS: Dict[MemoryTechnology, float] = {
    MemoryTechnology.DDR4: 80.0,
    MemoryTechnology.HBM2: 100.0,
    MemoryTechnology.HBM2E: 100.0,
    MemoryTechnology.IDEAL: 0.0,
}


@dataclass(frozen=True)
class SpMUConfig:
    """Configuration of a single sparse memory unit (Section 3.1).

    Attributes:
        banks: Number of SRAM banks (``b`` in the paper).
        words_per_bank: 32-bit words per bank.
        queue_depth: Reorder (issue) queue depth in vectors (``d``).
        crossbar_inputs: Crossbar input ports; ``lanes`` for no speedup,
            ``2 * lanes`` for 2x input speedup.
        allocator_iterations: Iterations of the separable allocator.
        allocator_priorities: Number of age-priority classes used during
            allocation (1-3 in Table 4).
        bloom_filter_entries: Entries in the address-order Bloom filter.
    """

    banks: int = 16
    words_per_bank: int = 4096
    queue_depth: int = 16
    crossbar_inputs: int = 16
    allocator_iterations: int = 3
    allocator_priorities: int = 3
    bloom_filter_entries: int = 128

    @property
    def capacity_bytes(self) -> int:
        """Total SRAM capacity of the unit in bytes (256 KiB by default)."""
        return self.banks * self.words_per_bank * 4

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if the configuration is invalid."""
        if self.banks <= 0 or self.banks & (self.banks - 1):
            raise ConfigurationError(f"banks must be a power of two, got {self.banks}")
        if self.queue_depth <= 0:
            raise ConfigurationError("queue_depth must be positive")
        if self.crossbar_inputs <= 0:
            raise ConfigurationError("crossbar_inputs must be positive")
        if self.allocator_iterations <= 0:
            raise ConfigurationError("allocator_iterations must be positive")
        if not 1 <= self.allocator_priorities <= self.allocator_iterations:
            raise ConfigurationError(
                "allocator_priorities must be between 1 and allocator_iterations"
            )


@dataclass(frozen=True)
class ScannerConfig:
    """Configuration of the bit-vector / data scanner (Section 3.3).

    Attributes:
        bit_width: Bits scanned per cycle by the bit-vector scanner.
        data_width: Elements scanned per cycle by the data scanner.
        output_vectorization: Maximum set bits emitted per cycle.
    """

    bit_width: int = 256
    data_width: int = 16
    output_vectorization: int = 16

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if the configuration is invalid."""
        if self.bit_width <= 0:
            raise ConfigurationError("bit_width must be positive")
        if self.output_vectorization <= 0:
            raise ConfigurationError("output_vectorization must be positive")
        if self.data_width <= 0:
            raise ConfigurationError("data_width must be positive")


class ShuffleMode(Enum):
    """Merge-unit lane-shifting flexibility (Table 11).

    ``NONE`` removes the shuffle network entirely; ``MRG0`` merges without
    shifting lanes; ``MRG1`` allows a +/-1 lane shift (the paper's design
    point); ``MRG16`` is a full crossbar.
    """

    NONE = "none"
    MRG0 = "mrg-0"
    MRG1 = "mrg-1"
    MRG16 = "mrg-16"

    @property
    def max_shift(self) -> int:
        """Maximum lane displacement permitted when merging two vectors."""
        if self is ShuffleMode.NONE:
            return 0
        if self is ShuffleMode.MRG0:
            return 0
        if self is ShuffleMode.MRG1:
            return 1
        return 16


@dataclass(frozen=True)
class ShuffleConfig:
    """Configuration of the butterfly shuffle networks (Section 3.2)."""

    mode: ShuffleMode = ShuffleMode.MRG1
    on_chip_networks: int = 2
    off_chip_networks: int = 4
    endpoints: int = 16
    permutation_fifo_depth: int = 64

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if the configuration is invalid."""
        if self.endpoints <= 0 or self.endpoints & (self.endpoints - 1):
            raise ConfigurationError("endpoints must be a power of two")
        if self.permutation_fifo_depth <= 0:
            raise ConfigurationError("permutation_fifo_depth must be positive")


@dataclass(frozen=True)
class CapstanConfig:
    """Top-level Capstan architecture configuration (Table 7).

    The defaults describe the paper's evaluated design point: a 20x20 grid of
    200 CUs and 200 SpMUs, 80 DRAM address generators, 16 vector lanes, and
    a 1.6 GHz clock.
    """

    compute_units: int = 200
    memory_units: int = 200
    address_generators: int = 80
    lanes: int = 16
    vector_stages: int = 6
    clock_ghz: float = 1.6
    memory: MemoryTechnology = MemoryTechnology.HBM2E
    spmu: SpMUConfig = field(default_factory=SpMUConfig)
    scanner: ScannerConfig = field(default_factory=ScannerConfig)
    shuffle: ShuffleConfig = field(default_factory=ShuffleConfig)
    dram_burst_bytes: int = 64
    compression_enabled: bool = True
    sparse_fraction: float = 1.0

    def validate(self) -> None:
        """Validate the whole configuration tree."""
        if self.lanes <= 0 or self.lanes & (self.lanes - 1):
            raise ConfigurationError("lanes must be a power of two")
        if self.clock_ghz <= 0:
            raise ConfigurationError("clock_ghz must be positive")
        if self.compute_units <= 0 or self.memory_units <= 0:
            raise ConfigurationError("grid must have compute and memory units")
        if not 0.0 <= self.sparse_fraction <= 1.0:
            raise ConfigurationError("sparse_fraction must be within [0, 1]")
        self.spmu.validate()
        self.scanner.validate()
        self.shuffle.validate()

    @property
    def memory_bandwidth_gbps(self) -> float:
        """Peak off-chip bandwidth of the configured memory technology."""
        return MEMORY_BANDWIDTH_GBPS[self.memory]

    @property
    def cycle_time_ns(self) -> float:
        """Clock period in nanoseconds."""
        return 1.0 / self.clock_ghz

    @property
    def on_chip_sram_bytes(self) -> int:
        """Total distributed SRAM capacity across all SpMUs."""
        return self.memory_units * self.spmu.capacity_bytes

    @property
    def peak_flops_per_cycle(self) -> int:
        """Peak multiply-accumulate lanes active per cycle across all CUs."""
        return self.compute_units * self.lanes

    def with_memory(self, memory: MemoryTechnology) -> "CapstanConfig":
        """Return a copy of this configuration using ``memory`` off-chip."""
        return replace(self, memory=memory)

    def with_shuffle_mode(self, mode: ShuffleMode) -> "CapstanConfig":
        """Return a copy of this configuration with a different shuffle mode."""
        return replace(self, shuffle=replace(self.shuffle, mode=mode))

    def scaled(self, factor: float) -> "CapstanConfig":
        """Return a configuration with the grid scaled by ``factor``.

        Used for the Figure 5b area-sensitivity study where outer
        parallelization (and therefore the number of active units) varies.
        """
        if factor <= 0:
            raise ConfigurationError("scale factor must be positive")
        return replace(
            self,
            compute_units=max(1, int(round(self.compute_units * factor))),
            memory_units=max(1, int(round(self.memory_units * factor))),
            address_generators=max(1, int(round(self.address_generators * factor))),
        )


@dataclass(frozen=True)
class PlasticineConfig:
    """Configuration of the dense Plasticine baseline (Section 5).

    Plasticine shares Capstan's grid and clock but its memories are
    statically banked (one random access per cycle per memory), it has no
    read-modify-write support, and no sparse-iteration hardware.
    """

    compute_units: int = 200
    memory_units: int = 200
    address_generators: int = 80
    lanes: int = 16
    clock_ghz: float = 1.6
    memory: MemoryTechnology = MemoryTechnology.HBM2E

    @property
    def memory_bandwidth_gbps(self) -> float:
        """Peak off-chip bandwidth of the configured memory technology."""
        return MEMORY_BANDWIDTH_GBPS[self.memory]

    @property
    def cycle_time_ns(self) -> float:
        """Clock period in nanoseconds."""
        return 1.0 / self.clock_ghz


def default_config(memory: MemoryTechnology = MemoryTechnology.HBM2E) -> CapstanConfig:
    """Return the paper's default Capstan design point with ``memory``."""
    config = CapstanConfig(memory=memory)
    config.validate()
    return config
