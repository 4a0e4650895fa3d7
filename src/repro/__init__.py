"""Capstan: A Vector RDA for Sparsity -- a Python reproduction (MICRO 2021).

The package is organized by layer:

* :mod:`repro.formats` -- sparse tensor storage formats (CSR, CSC, COO,
  DCSR, BCSR, banded, bit-vector, bit-tree).
* :mod:`repro.core` -- Capstan's hardware components: the sparse memory
  unit with its separable bank allocator, the bit-vector scanner, the
  butterfly shuffle network, DRAM compression, and the calibrated
  area/power model.
* :mod:`repro.sim` -- the simulation substrate (DRAM/SRAM/network models,
  stall accounting).
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
    PlasticineConfig,
    ScannerConfig,
    ShuffleConfig,
    ShuffleMode,
    SpMUConfig,
    default_config,
)
from .errors import (
    CapstanError,
    ConfigurationError,
    ConversionError,
    FormatError,
    SimulationError,
    WorkloadError,
)

__version__ = "0.1.0"

__all__ = [
    "CapstanConfig",
    "PlasticineConfig",
    "SpMUConfig",
    "ScannerConfig",
    "ShuffleConfig",
    "ShuffleMode",
    "MemoryTechnology",
    "default_config",
    "CapstanError",
    "FormatError",
    "ConversionError",
    "ConfigurationError",
    "SimulationError",
    "WorkloadError",
    "__version__",
]
