"""Capstan: A Vector RDA for Sparsity -- a Python reproduction (MICRO 2021).

The package is organized by layer:

* :mod:`repro.formats` -- the sparse tensor storage formats the
  applications build (CSR, CSC, COO, bit-vector) and the bit-tree builder.
* :mod:`repro.core` -- Capstan's hardware components: the sparse memory
  unit with its separable bank allocator, the bit-vector scanner, the
  butterfly shuffle network, DRAM compression, and the calibrated
  area/power model.
* :mod:`repro.sim` -- the simulation substrate the timing model costs
  with (DRAM/SRAM/network models, stall accounting).
* :mod:`repro.apps` -- the paper's applications as functional numpy runs
  that each record a platform-independent workload profile, plus the
  Capstan timing model that costs those profiles.
* :mod:`repro.baselines` -- Plasticine, CPU, GPU, and ASIC baselines.
* :mod:`repro.workloads` -- synthetic stand-ins for the paper's datasets.
* :mod:`repro.eval` -- one harness per table and figure of the evaluation.
"""

from .config import (
    CapstanConfig,
    MemoryTechnology,
    ScannerConfig,
    ShuffleMode,
    SpMUConfig,
)
from .errors import (
    CapstanError,
    ConfigurationError,
    FormatError,
    SimulationError,
    WorkloadError,
)

__version__ = "0.1.0"

__all__ = [
    "CapstanConfig",
    "SpMUConfig",
    "ScannerConfig",
    "ShuffleMode",
    "MemoryTechnology",
    "CapstanError",
    "FormatError",
    "ConfigurationError",
    "SimulationError",
    "WorkloadError",
    "__version__",
]
