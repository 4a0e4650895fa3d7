"""Capstan's hardware components (Section 3 of the paper).

This subpackage contains the paper's primary contribution: the sparse
memory unit (SpMU) with its separable bank allocator and reordering
pipeline, the bit-vector scanner that implements sparse loop headers, the
butterfly shuffle networks, read-only DRAM compression,
pointer-to-bit-vector format conversion, and the calibrated area/power
model.
"""

from .allocator import AllocationResult, GreedyAllocator, SeparableAllocator, make_allocator
from .area import (
    AreaBreakdown,
    area_overhead_vs_plasticine,
    capstan_area,
    plasticine_area,
    power_overhead_vs_plasticine,
    scanner_area_um2,
    scheduler_area_um2,
)
from .bank_hash import (
    conflict_count,
    get_bank_mapper,
    hashed_bank,
    hashed_banks_array,
    linear_bank,
    linear_banks_array,
)
from .bloom import BloomFilter
from .compression import (
    CompressedPacket,
    CompressionReport,
    compress_pointer_array,
    compression_ratio,
    decompress_packets,
)
from .format_conversion import ConversionStats, FormatConverter
from .ordering import OrderingMode
from .scanner import (
    BitVectorScanner,
    ScanBatch,
    ScanElement,
    ScanMode,
    ScanTiming,
    scan_timing_from_mask,
    scan_timing_from_mask_reference,
    timing_from_indices,
)
from .shuffle import MergeUnit, ShuffleNetwork, ShuffleRequest, ShuffleStats, merge_efficiency
from .spmu import (
    MemoryRequest,
    RMWOp,
    RequestResult,
    RequestTrace,
    SparseMemoryUnit,
    SpMUStats,
    effective_bank_throughput_batch,
    measure_bank_utilization,
    random_request_trace,
    random_request_vectors,
)
from .spmu_array import SpMUVariant, simulate_variants

__all__ = [
    "AllocationResult",
    "SeparableAllocator",
    "GreedyAllocator",
    "make_allocator",
    "AreaBreakdown",
    "capstan_area",
    "plasticine_area",
    "area_overhead_vs_plasticine",
    "power_overhead_vs_plasticine",
    "scanner_area_um2",
    "scheduler_area_um2",
    "hashed_bank",
    "linear_bank",
    "hashed_banks_array",
    "linear_banks_array",
    "get_bank_mapper",
    "conflict_count",
    "BloomFilter",
    "CompressedPacket",
    "CompressionReport",
    "compress_pointer_array",
    "decompress_packets",
    "compression_ratio",
    "ConversionStats",
    "FormatConverter",
    "OrderingMode",
    "BitVectorScanner",
    "ScanMode",
    "ScanElement",
    "ScanTiming",
    "ScanBatch",
    "scan_timing_from_mask",
    "scan_timing_from_mask_reference",
    "timing_from_indices",
    "MergeUnit",
    "ShuffleNetwork",
    "ShuffleRequest",
    "ShuffleStats",
    "merge_efficiency",
    "MemoryRequest",
    "RMWOp",
    "RequestResult",
    "RequestTrace",
    "SparseMemoryUnit",
    "SpMUStats",
    "SpMUVariant",
    "simulate_variants",
    "random_request_vectors",
    "random_request_trace",
    "measure_bank_utilization",
    "effective_bank_throughput_batch",
]
