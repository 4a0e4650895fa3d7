"""Simulation substrate: DRAM, SRAM, network models, and stall stats."""

from .dram import BURST_BYTES, DRAMModel, TrafficSummary
from .network import NetworkConfig, OnChipNetwork, cross_tile_traffic_cycles
from .sram import StaticBankTiming
from .stats import STALL_CATEGORIES, RunMetrics, StallBreakdown, geometric_mean

__all__ = [
    "BURST_BYTES",
    "DRAMModel",
    "TrafficSummary",
    "NetworkConfig",
    "OnChipNetwork",
    "cross_tile_traffic_cycles",
    "StaticBankTiming",
    "STALL_CATEGORIES",
    "RunMetrics",
    "StallBreakdown",
    "geometric_mean",
]
