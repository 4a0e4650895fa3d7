"""Workload generation: Table 6 dataset stand-ins, ResNet layers, tiling."""

from .resnet import (
    RESNET_LAYERS,
    ConvLayerSpec,
    ConvWorkload,
    generate_conv_layer,
    reference_convolution,
)
from .suitesparse import (
    DEFAULT_SCALE,
    GRAPH_DATASET_NAMES,
    LINEAR_ALGEBRA_DATASET_NAMES,
    SPMSPM_DATASET_NAMES,
    TABLE6_DATASETS,
    DatasetSpec,
    GeneratedDataset,
    load_dataset,
)
from .synthetic import (
    banded_fem_matrix,
    circuit_matrix,
    make_diagonally_dominant,
    power_law_graph,
    road_network_graph,
    sparse_bitvector,
    sparse_vector,
    uniform_random_matrix,
)
from .tiling import Partitioning, balanced_partition

__all__ = [
    "RESNET_LAYERS",
    "ConvLayerSpec",
    "ConvWorkload",
    "generate_conv_layer",
    "reference_convolution",
    "DEFAULT_SCALE",
    "GRAPH_DATASET_NAMES",
    "LINEAR_ALGEBRA_DATASET_NAMES",
    "SPMSPM_DATASET_NAMES",
    "TABLE6_DATASETS",
    "DatasetSpec",
    "GeneratedDataset",
    "load_dataset",
    "banded_fem_matrix",
    "circuit_matrix",
    "power_law_graph",
    "road_network_graph",
    "uniform_random_matrix",
    "sparse_vector",
    "sparse_bitvector",
    "make_diagonally_dominant",
    "Partitioning",
    "balanced_partition",
]
