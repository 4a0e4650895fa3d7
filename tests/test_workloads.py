"""Tests for the workload generators and tiling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.formats import to_csr
from repro.workloads import (
    GRAPH_DATASET_NAMES,
    RESNET_LAYERS,
    SPMSPM_DATASET_NAMES,
    TABLE6_DATASETS,
    Partitioning,
    balanced_partition,
    banded_fem_matrix,
    circuit_matrix,
    generate_conv_layer,
    load_dataset,
    make_diagonally_dominant,
    power_law_graph,
    reference_convolution,
    road_network_graph,
    sparse_vector,
    uniform_random_matrix,
)


class TestSyntheticGenerators:
    def test_uniform_matrix_nnz(self):
        matrix = uniform_random_matrix(100, 100, 500, seed=1)
        assert matrix.shape == (100, 100)
        assert abs(matrix.nnz - 500) <= 5

    def test_banded_clusters_near_diagonal(self):
        matrix = banded_fem_matrix(200, 2000, seed=1)
        rows, cols, _ = matrix.to_coo_arrays()
        assert np.median(np.abs(rows - cols)) < 30

    def test_banded_has_full_diagonal(self):
        matrix = banded_fem_matrix(50, 200, seed=2)
        dense = matrix.to_dense()
        assert np.all(np.diagonal(dense) != 0)

    def test_circuit_has_hub_rows(self):
        matrix = circuit_matrix(500, 3000, dense_nodes=4, seed=1)
        row_lengths = to_csr(matrix).row_lengths()
        assert row_lengths.max() > 5 * np.median(row_lengths)

    def test_power_law_degree_skew(self):
        graph = power_law_graph(1000, 8000, seed=1)
        degrees = np.bincount(graph.rows, minlength=1000)
        assert degrees.max() > 10 * max(1.0, np.median(degrees))

    def test_power_law_no_self_loops(self):
        graph = power_law_graph(200, 1000, seed=2)
        assert not np.any(graph.rows == graph.cols)

    def test_road_network_bounded_degree(self):
        graph = road_network_graph(400, 1500, seed=1)
        degrees = np.bincount(graph.rows, minlength=400)
        assert degrees.max() <= 10

    def test_sparse_vector_density(self):
        vector = sparse_vector(1000, 0.3, seed=1)
        assert abs(np.count_nonzero(vector) - 300) <= 2

    def test_diagonally_dominant(self):
        matrix = make_diagonally_dominant(uniform_random_matrix(50, 50, 300, seed=3))
        dense = matrix.to_dense()
        off_diag = np.abs(dense).sum(axis=1) - np.abs(np.diagonal(dense))
        assert np.all(np.abs(np.diagonal(dense)) > off_diag - 1e-9)

    def test_invalid_arguments(self):
        with pytest.raises(WorkloadError):
            uniform_random_matrix(0, 10, 5)
        with pytest.raises(WorkloadError):
            sparse_vector(10, 2.0)


class TestDatasetRegistry:
    def test_all_table6_datasets_registered(self):
        for name in (
            "ckt11752_dc_1",
            "Trefethen_20000",
            "bcsstk30",
            "usroads-48",
            "web-Stanford",
            "flickr",
            "spaceStation_4",
            "qc324",
            "mbeacxc",
        ):
            assert name in TABLE6_DATASETS

    def test_published_density_matches_table6(self):
        spec = TABLE6_DATASETS["bcsstk30"]
        assert spec.density_percent == pytest.approx(0.244, abs=0.01)

    def test_load_dataset_scales_dimension(self):
        dataset = load_dataset("flickr", scale=1 / 64)
        assert dataset.matrix.shape[0] == pytest.approx(820_878 / 64, rel=0.01)

    def test_load_dataset_preserves_degree(self):
        dataset = load_dataset("web-Stanford", scale=1 / 64)
        spec = dataset.spec
        published_degree = spec.nnz / spec.rows
        generated_degree = dataset.matrix.nnz / dataset.matrix.shape[0]
        assert generated_degree == pytest.approx(published_degree, rel=0.35)

    def test_load_dataset_cached(self):
        a = load_dataset("qc324")
        b = load_dataset("qc324")
        assert a is b

    def test_unknown_dataset(self):
        with pytest.raises(WorkloadError):
            load_dataset("nonexistent")

    def test_group_names_match_the_registry(self):
        # The tuples the graph and SpMSpM apps register are exactly the
        # Table 6 rows whose application column names them.
        def group(app):
            return tuple(
                name for name, spec in TABLE6_DATASETS.items() if app in spec.apps.split("/")
            )

        assert GRAPH_DATASET_NAMES == group("PR") == group("BFS") == group("SSSP")
        assert SPMSPM_DATASET_NAMES == group("SpMSpM")

    def test_graph_datasets_load_square(self):
        for name in GRAPH_DATASET_NAMES:
            dataset = load_dataset(name, scale=1 / 256)
            assert dataset.name == name
            rows, cols = dataset.matrix.shape
            assert rows == cols and dataset.matrix.nnz > 0

    def test_scaled_description_mentions_substitution(self):
        dataset = load_dataset("qc324")
        assert "paper" in dataset.scaled_description
        assert "generated" in dataset.scaled_description


class TestResNetLayers:
    def test_layers_registered(self):
        assert set(RESNET_LAYERS) == {"resnet50-1", "resnet50-2", "resnet50-29"}

    def test_density_matches_spec(self):
        workload = generate_conv_layer("resnet50-2", scale=0.25)
        spec = RESNET_LAYERS["resnet50-2"]
        assert workload.activation_density == pytest.approx(spec.activation_density, abs=0.06)
        assert workload.weight_density == pytest.approx(spec.weight_density, abs=0.08)

    def test_shapes(self):
        workload = generate_conv_layer("resnet50-1", scale=0.25)
        assert workload.activations.shape[1:] == (56, 56)
        assert workload.weights.shape[1:3] == (1, 1)

    def test_reference_convolution_shape(self):
        workload = generate_conv_layer("resnet50-1", scale=0.125)
        assert reference_convolution(workload).shape == workload.output_shape

    def test_unknown_layer(self):
        with pytest.raises(WorkloadError):
            generate_conv_layer("resnet50-99")


class TestTiling:
    @staticmethod
    def _imbalance(partition):
        totals = partition.tile_weights()
        return totals.max() / totals.mean()

    def test_tile_weights_sum_items_per_tile(self):
        weights = np.arange(1.0, 8.0)
        partition = Partitioning(np.arange(7) % 3, 3, weights)
        assert partition.tile_weights().tolist() == [12.0, 7.0, 9.0]

    def test_balanced_partition_beats_round_robin_on_skew(self):
        weights = np.array([100, 1, 1, 1, 1, 1, 1, 99], dtype=np.float64)
        balanced = balanced_partition(weights, 2)
        naive = Partitioning(np.arange(weights.size) % 2, 2, weights)
        assert self._imbalance(balanced) <= self._imbalance(naive)

    def test_graph_partition_by_edges(self, tiny_graph):
        csr = to_csr(tiny_graph.matrix)
        partition = balanced_partition(csr.row_lengths().astype(np.float64), 8)
        assert partition.assignments.size == csr.shape[0]
        assert self._imbalance(partition) < 1.5

    def test_invalid_tiles(self):
        with pytest.raises(WorkloadError):
            balanced_partition([1.0], 0)
