"""Baseline platform models: Plasticine, CPU (TACO/GraphIt), GPU (V100), ASICs."""

from . import asic, cpu, gpu, plasticine
from .asic import (
    EIE,
    GRAPHICIONADO,
    MATRAPTOR,
    SCNN,
    ASICModel,
    eie_runtime_seconds,
    graphicionado_runtime_seconds,
    matraptor_runtime_seconds,
    scnn_runtime_seconds,
)
from .plasticine import PLASTICINE_MAPPABLE_APPS

__all__ = [
    "asic",
    "cpu",
    "gpu",
    "plasticine",
    "ASICModel",
    "EIE",
    "SCNN",
    "GRAPHICIONADO",
    "MATRAPTOR",
    "eie_runtime_seconds",
    "scnn_runtime_seconds",
    "graphicionado_runtime_seconds",
    "matraptor_runtime_seconds",
    "PLASTICINE_MAPPABLE_APPS",
]
