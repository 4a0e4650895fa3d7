"""Analytic area and power model (Tables 4, 5, and 8).

The paper synthesizes Plasticine plus Capstan's added units with Synopsys
Design Compiler on the FreePDK15 predictive library at 1.6 GHz, scaling
SRAM from a 28 nm memory compiler. Without a synthesis flow, this module
reproduces the published numbers as a calibrated analytic model:

* per-unit areas match Table 8 exactly at the paper's design point and
  scale with the structural parameters (lane count, bank count, queue
  depth, scanner width) using standard first-order scaling rules
  (crossbars ~ inputs x outputs, encoders ~ n log n, SRAM ~ capacity);
* scanner areas reproduce Table 5's grid (and interpolate between points);
* scheduler (issue queue + allocator) areas reproduce Table 4's column.

This keeps the area sensitivity studies (Table 5, Table 8, Figure 5b)
meaningful without a synthesis tool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from ..config import CapstanConfig, PlasticineConfig

# --------------------------------------------------------------------------- #
# Calibration constants (paper's published numbers at the default design point)
# --------------------------------------------------------------------------- #

#: Plasticine per-unit areas in mm^2 (Table 8, "Each" column).
PLASTICINE_CU_MM2 = 0.401
PLASTICINE_MU_MM2 = 0.199
PLASTICINE_AG_MM2 = 0.030
PLASTICINE_NET_MM2_TOTAL = 36.3
PLASTICINE_TOTAL_MM2 = 158.6
PLASTICINE_POWER_W = 155.0

#: Capstan per-unit areas in mm^2 (Table 8).
CAPSTAN_CU_MM2 = 0.423
CAPSTAN_MU_MM2 = 0.251
CAPSTAN_AG_MM2 = 0.087
CAPSTAN_SHUFFLE_MM2_TOTAL = 6.4
CAPSTAN_TOTAL_MM2 = 184.5
CAPSTAN_POWER_W = 174.0

#: Capstan additions as fractions of their host unit (Table 8 percentages).
CU_SCANNER_FRACTION = 0.047
CU_FORMAT_CONV_FRACTION = 0.005
MU_FUNC_UNITS_FRACTION = 0.045
MU_ALLOCATOR_FRACTION = 0.008
AG_FUNC_UNITS_FRACTION = 0.138
AG_DECOMPRESSOR_FRACTION = 0.060

#: Scanner area grid in um^2: {input_bits: {output_vectorization: area}} (Table 5).
SCANNER_AREA_UM2: Dict[int, Dict[int, float]] = {
    128: {1: 2157, 2: 2765, 4: 3645, 8: 5591, 16: 9456},
    256: {1: 3985, 2: 5231, 4: 6927, 8: 10674, 16: 19898},
    512: {1: 7777, 2: 10447, 4: 14377, 8: 22562, 16: 42997},
}

#: Scheduler (queue + crossbar + allocator) area in um^2 keyed by
#: (queue_depth, crossbar_inputs) for a 16-bank SpMU (Table 4).
SCHEDULER_AREA_UM2: Dict[tuple, float] = {
    (8, 16): 38052,
    (8, 32): 48938,
    (16, 16): 51359,
    (16, 32): 62918,
    (32, 16): 79301,
    (32, 32): 90433,
}


@dataclass(frozen=True)
class AreaBreakdown:
    """Chip-level area/power breakdown in mm^2 / W (one Table 8 column)."""

    compute_unit_each: float
    compute_units_total: float
    memory_unit_each: float
    memory_units_total: float
    address_generator_each: float
    address_generators_total: float
    shuffle_networks_total: float
    on_chip_network_total: float
    total_mm2: float
    power_w: float

    def as_dict(self) -> Dict[str, float]:
        """Flatten the breakdown to a plain dictionary for reporting."""
        return {
            "compute_unit_each": self.compute_unit_each,
            "compute_units_total": self.compute_units_total,
            "memory_unit_each": self.memory_unit_each,
            "memory_units_total": self.memory_units_total,
            "address_generator_each": self.address_generator_each,
            "address_generators_total": self.address_generators_total,
            "shuffle_networks_total": self.shuffle_networks_total,
            "on_chip_network_total": self.on_chip_network_total,
            "total_mm2": self.total_mm2,
            "power_w": self.power_w,
        }


def scanner_area_um2(bit_width: int, output_vectorization: int) -> float:
    """Scanner area for a given input width and output vectorization.

    Exact Table 5 points are returned verbatim; other points are obtained by
    log-linear interpolation/extrapolation in both dimensions, reflecting
    the roughly n*log(n) growth of the select-and-encode logic.
    """
    if bit_width <= 0 or output_vectorization <= 0:
        raise ValueError("scanner dimensions must be positive")
    widths = sorted(SCANNER_AREA_UM2)
    outputs = sorted(next(iter(SCANNER_AREA_UM2.values())))
    if bit_width in SCANNER_AREA_UM2 and output_vectorization in SCANNER_AREA_UM2[bit_width]:
        return float(SCANNER_AREA_UM2[bit_width][output_vectorization])

    def interp(axis_values, target, lookup):
        """Log-linear interpolation helper along one axis."""
        below = max((v for v in axis_values if v <= target), default=axis_values[0])
        above = min((v for v in axis_values if v >= target), default=axis_values[-1])
        if below == above:
            return lookup(below)
        t = (math.log2(target) - math.log2(below)) / (math.log2(above) - math.log2(below))
        return lookup(below) * (1 - t) + lookup(above) * t

    def area_at_width(width):
        table = SCANNER_AREA_UM2[width]
        return interp(outputs, output_vectorization, lambda o: float(table[o]))

    return interp(widths, bit_width, area_at_width)


def scheduler_area_um2(queue_depth: int, crossbar_inputs: int, banks: int = 16) -> float:
    """SpMU scheduler area (Table 4), scaled for non-tabulated points.

    Area grows linearly with queue depth (storage) plus a crossbar term
    proportional to ``crossbar_inputs * banks``.
    """
    key = (queue_depth, crossbar_inputs)
    if key in SCHEDULER_AREA_UM2 and banks == 16:
        return float(SCHEDULER_AREA_UM2[key])
    # Fit: area = alpha * depth + beta * inputs * banks, from the 16/16 and
    # 32/16 and 16/32 table entries.
    alpha = (SCHEDULER_AREA_UM2[(32, 16)] - SCHEDULER_AREA_UM2[(16, 16)]) / 16.0
    beta = (SCHEDULER_AREA_UM2[(16, 32)] - SCHEDULER_AREA_UM2[(16, 16)]) / (16 * 16)
    base = SCHEDULER_AREA_UM2[(16, 16)] - alpha * 16 - beta * 16 * 16
    return float(base + alpha * queue_depth + beta * crossbar_inputs * banks)


def plasticine_area(config: PlasticineConfig | None = None) -> AreaBreakdown:
    """Area/power of the Plasticine baseline (Table 8, left column)."""
    config = config or PlasticineConfig()
    cu_total = PLASTICINE_CU_MM2 * config.compute_units
    mu_total = PLASTICINE_MU_MM2 * config.memory_units
    ag_total = PLASTICINE_AG_MM2 * config.address_generators
    total = cu_total + mu_total + ag_total + PLASTICINE_NET_MM2_TOTAL
    scale = total / (
        PLASTICINE_CU_MM2 * 200 + PLASTICINE_MU_MM2 * 200 + PLASTICINE_AG_MM2 * 80
        + PLASTICINE_NET_MM2_TOTAL
    )
    return AreaBreakdown(
        compute_unit_each=PLASTICINE_CU_MM2,
        compute_units_total=cu_total,
        memory_unit_each=PLASTICINE_MU_MM2,
        memory_units_total=mu_total,
        address_generator_each=PLASTICINE_AG_MM2,
        address_generators_total=ag_total,
        shuffle_networks_total=0.0,
        on_chip_network_total=PLASTICINE_NET_MM2_TOTAL,
        total_mm2=total,
        power_w=PLASTICINE_POWER_W * scale,
    )


def capstan_area(config: CapstanConfig | None = None) -> AreaBreakdown:
    """Area/power of Capstan (Table 8, right column), scaled to ``config``.

    The ``sparse_fraction`` knob models the heterogeneous-provisioning
    option discussed in Section 4.2: provisioning only a fraction of units
    with sparse logic linearly reduces the sparse area/power overhead.
    """
    config = config or CapstanConfig()
    sparse = config.sparse_fraction

    # Per-unit areas: Plasticine base plus Capstan additions scaled by the
    # structural parameters relative to the paper's design point.
    scanner_scale = scanner_area_um2(
        config.scanner.bit_width, config.scanner.output_vectorization
    ) / scanner_area_um2(256, 16)
    cu_each = PLASTICINE_CU_MM2 + sparse * (
        CAPSTAN_CU_MM2 - PLASTICINE_CU_MM2
    ) * (CU_SCANNER_FRACTION * scanner_scale + CU_FORMAT_CONV_FRACTION) / (
        CU_SCANNER_FRACTION + CU_FORMAT_CONV_FRACTION
    )

    scheduler_scale = scheduler_area_um2(
        config.spmu.queue_depth, config.spmu.crossbar_inputs, config.spmu.banks
    ) / scheduler_area_um2(16, 16)
    mu_added = (CAPSTAN_MU_MM2 - PLASTICINE_MU_MM2) * (
        MU_FUNC_UNITS_FRACTION + MU_ALLOCATOR_FRACTION * scheduler_scale
    ) / (MU_FUNC_UNITS_FRACTION + MU_ALLOCATOR_FRACTION)
    mu_each = PLASTICINE_MU_MM2 + sparse * mu_added

    ag_each = PLASTICINE_AG_MM2 + sparse * (CAPSTAN_AG_MM2 - PLASTICINE_AG_MM2) * (
        (AG_FUNC_UNITS_FRACTION + (AG_DECOMPRESSOR_FRACTION if config.compression_enabled else 0.0))
        / (AG_FUNC_UNITS_FRACTION + AG_DECOMPRESSOR_FRACTION)
    )

    cu_total = cu_each * config.compute_units
    mu_total = mu_each * config.memory_units
    ag_total = ag_each * config.address_generators
    shuffle_total = CAPSTAN_SHUFFLE_MM2_TOTAL * sparse * (
        (config.compute_units + config.memory_units) / 400.0
    )
    net_total = PLASTICINE_NET_MM2_TOTAL * ((config.compute_units + config.memory_units) / 400.0)
    total = cu_total + mu_total + ag_total + shuffle_total + net_total

    power_scale = total / CAPSTAN_TOTAL_MM2
    power = CAPSTAN_POWER_W * power_scale
    return AreaBreakdown(
        compute_unit_each=cu_each,
        compute_units_total=cu_total,
        memory_unit_each=mu_each,
        memory_units_total=mu_total,
        address_generator_each=ag_each,
        address_generators_total=ag_total,
        shuffle_networks_total=shuffle_total,
        on_chip_network_total=net_total,
        total_mm2=total,
        power_w=power,
    )
