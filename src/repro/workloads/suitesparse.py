"""Synthetic stand-ins for the paper's named datasets (Table 6).

Every dataset the paper evaluates is registered here with its published
dimension, non-zero count, density, and structure class. Each dataset can
be generated at a reduced ``scale`` that preserves the density and the
structure class -- the properties the performance model is sensitive to --
but since the profiling kernels were vectorized the published (``scale
= 1.0``) sizes are tractable and are the default. The registry records
both the paper's numbers and the generated matrix so reports can state the
substitution precisely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from ..errors import WorkloadError
from ..formats.coo import COOMatrix
from .synthetic import (
    banded_fem_matrix,
    circuit_matrix,
    power_law_graph,
    road_network_graph,
    uniform_random_matrix,
)

#: Default scale factor applied to the published dataset sizes. The
#: vectorized profiling kernels handle the full published sizes, so the
#: default reproduces them exactly; pass a smaller ``scale`` for quick runs
#: (the eval harness defaults to 1/64, tests use 1/256 and below).
DEFAULT_SCALE = 1.0


@dataclass(frozen=True)
class DatasetSpec:
    """Published properties of one Table 6 dataset and how to imitate it.

    Attributes:
        name: SuiteSparse / SNAP name used in the paper.
        rows: Published row count (square matrices use rows == cols).
        cols: Published column count.
        nnz: Published non-zero count.
        structure: Structure class used to pick the generator.
        apps: The paper's application group(s) that use this dataset.
    """

    name: str
    rows: int
    cols: int
    nnz: int
    structure: str
    apps: str

    @property
    def density_percent(self) -> float:
        """Published density in percent (matches Table 6's "% Dense")."""
        return 100.0 * self.nnz / (self.rows * self.cols)


#: The Table 6 registry (convolution layers live in :mod:`repro.workloads.resnet`).
TABLE6_DATASETS: Dict[str, DatasetSpec] = {
    "ckt11752_dc_1": DatasetSpec(
        "ckt11752_dc_1", 49_702, 49_702, 333_029, "circuit", "SpMV/M+M/BiCGStab"
    ),
    "Trefethen_20000": DatasetSpec(
        "Trefethen_20000", 20_000, 20_000, 554_466, "banded", "SpMV/M+M/BiCGStab"
    ),
    "bcsstk30": DatasetSpec(
        "bcsstk30", 28_924, 28_924, 2_043_492, "banded", "SpMV/M+M/BiCGStab"
    ),
    "usroads-48": DatasetSpec(
        "usroads-48", 126_146, 126_146, 323_900, "road", "PR/BFS/SSSP"
    ),
    "web-Stanford": DatasetSpec(
        "web-Stanford", 281_903, 281_903, 2_312_497, "power-law", "PR/BFS/SSSP"
    ),
    "flickr": DatasetSpec(
        "flickr", 820_878, 820_878, 9_837_214, "power-law", "PR/BFS/SSSP"
    ),
    "p2p-Gnutella31": DatasetSpec(
        "p2p-Gnutella31", 62_586, 62_586, 147_892, "power-law", "sensitivity studies"
    ),
    "spaceStation_4": DatasetSpec(
        "spaceStation_4", 950, 950, 14_158, "banded", "SpMSpM"
    ),
    "qc324": DatasetSpec("qc324", 324, 324, 27_054, "dense-ish", "SpMSpM"),
    "mbeacxc": DatasetSpec("mbeacxc", 496, 496, 49_920, "dense-ish", "SpMSpM"),
    "fb": DatasetSpec("fb", 63_731, 63_731, 1_634_180, "power-law", "Graphicionado comparison"),
}

_GENERATORS: Dict[str, Callable[..., COOMatrix]] = {
    "circuit": lambda n, nnz, seed: circuit_matrix(n, nnz, seed=seed),
    "banded": lambda n, nnz, seed: banded_fem_matrix(n, nnz, seed=seed),
    "power-law": lambda n, nnz, seed: power_law_graph(n, nnz, seed=seed),
    "road": lambda n, nnz, seed: road_network_graph(n, nnz, seed=seed),
    "dense-ish": lambda n, nnz, seed: uniform_random_matrix(n, n, nnz, seed=seed),
}


@dataclass(frozen=True)
class GeneratedDataset:
    """A generated stand-in plus the published spec it imitates."""

    spec: DatasetSpec
    matrix: COOMatrix
    scale: float

    @property
    def name(self) -> str:
        """The dataset's published name."""
        return self.spec.name

    @property
    def scaled_description(self) -> str:
        """A one-line description of the substitution for reports."""
        return (
            f"{self.spec.name}: paper {self.spec.rows}x{self.spec.cols}, "
            f"{self.spec.nnz} nnz ({self.spec.density_percent:.3f}% dense); "
            f"generated {self.matrix.shape[0]}x{self.matrix.shape[1]}, "
            f"{self.matrix.nnz} nnz at scale {self.scale:g}"
        )


_DATASET_CACHE: Dict[tuple, GeneratedDataset] = {}


def load_dataset(
    name: str, scale: float = DEFAULT_SCALE, seed: int = 11, min_dim: int = 64
) -> GeneratedDataset:
    """Generate (and cache) the synthetic stand-in for a named dataset.

    Args:
        name: A key of :data:`TABLE6_DATASETS`.
        scale: Linear scale factor applied to the published row/column
            counts; non-zeros scale by the same factor so density is
            preserved. ``scale=1.0`` reproduces the published size.
        seed: Generator seed (datasets are deterministic per seed).
        min_dim: Lower bound on the generated dimension, so tiny scales
            still produce a meaningful matrix.
    """
    if name not in TABLE6_DATASETS:
        raise WorkloadError(
            f"unknown dataset {name!r}; known: {sorted(TABLE6_DATASETS)}"
        )
    if scale <= 0 or scale > 1.0:
        raise WorkloadError("scale must be in (0, 1]")
    key = (name, round(scale, 6), seed, min_dim)
    cached = _DATASET_CACHE.get(key)
    if cached is not None:
        return cached
    spec = TABLE6_DATASETS[name]
    rows = max(min_dim, int(round(spec.rows * scale)))
    # Preserve the average number of non-zeros per row (degree) rather than
    # density: per-row non-zero counts drive the vectorization, bank
    # conflict, and load-imbalance effects the evaluation studies.
    linear_ratio = rows / spec.rows
    nnz = max(rows, int(round(spec.nnz * linear_ratio)))
    nnz = min(nnz, rows * rows // 2)
    generator = _GENERATORS[spec.structure]
    matrix = generator(rows, nnz, seed)
    generated = GeneratedDataset(spec=spec, matrix=matrix, scale=scale)
    _DATASET_CACHE[key] = generated
    return generated


#: The three SpMV / M+M / BiCGStab dataset names of Table 6.
LINEAR_ALGEBRA_DATASET_NAMES = ("ckt11752_dc_1", "Trefethen_20000", "bcsstk30")

#: The three PR / BFS / SSSP dataset names of Table 6.
GRAPH_DATASET_NAMES = ("usroads-48", "web-Stanford", "flickr")

#: The three SpMSpM dataset names of Table 6.
SPMSPM_DATASET_NAMES = ("spaceStation_4", "qc324", "mbeacxc")

