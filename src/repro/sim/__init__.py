"""Simulation substrate: DRAM, SRAM, network models, and stall stats."""

from .dram import BURST_BYTES, DRAMModel, TrafficSummary
from .network import NetworkConfig, OnChipNetwork
from .sram import StaticBankTiming
from .stats import STALL_CATEGORIES, RunMetrics, StallBreakdown, geometric_mean

__all__ = [
    "BURST_BYTES",
    "DRAMModel",
    "TrafficSummary",
    "NetworkConfig",
    "OnChipNetwork",
    "StaticBankTiming",
    "STALL_CATEGORIES",
    "RunMetrics",
    "StallBreakdown",
    "geometric_mean",
]
