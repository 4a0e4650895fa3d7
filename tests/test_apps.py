"""Functional correctness and profiling tests for every application."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    best_source,
    pagerank_edge,
    pagerank_pull,
    reference_add,
    reference_bfs_levels,
    reference_pagerank,
    reference_spmspm,
    reference_spmv,
    reference_sssp,
    sparse_add,
    sparse_convolution,
    spmv_coo,
    spmv_csc,
    spmv_csr,
)
from repro.apps.bfs import bfs
from repro.apps.bicgstab import bicgstab
from repro.apps.spmspm import spmspm
from repro.apps.sssp import sssp
from repro.baselines.cpu import reference_spmv_csr
from repro.errors import WorkloadError
from repro.formats import to_csc, to_csr
from repro.workloads import (
    generate_conv_layer,
    load_dataset,
    make_diagonally_dominant,
    reference_convolution,
    sparse_vector,
)


@pytest.fixture(scope="module")
def matrix_and_vector(tiny_matrix_dataset):
    csr = to_csr(tiny_matrix_dataset.matrix)
    rng = np.random.default_rng(7)
    return csr, rng.random(csr.shape[1])


class TestSpMV:
    def test_csr_matches_reference(self, matrix_and_vector):
        csr, vector = matrix_and_vector
        run = spmv_csr(csr, vector)
        assert np.allclose(run.output, reference_spmv(csr, vector))
        assert np.allclose(run.output, reference_spmv_csr(csr, vector))

    def test_coo_matches_reference(self, tiny_matrix_dataset):
        coo = tiny_matrix_dataset.matrix
        vector = np.random.default_rng(9).random(coo.shape[1])
        run = spmv_coo(coo, vector)
        assert np.allclose(run.output, reference_spmv(coo, vector))

    def test_csc_matches_reference_with_sparse_input(self, tiny_matrix_dataset):
        csc = to_csc(tiny_matrix_dataset.matrix)
        vector = sparse_vector(csc.shape[1], density=0.3, seed=5)
        run = spmv_csc(csc, vector)
        assert np.allclose(run.output, reference_spmv(csc, vector))

    def test_csr_profile_counts(self, matrix_and_vector):
        csr, vector = matrix_and_vector
        profile = spmv_csr(csr, vector).profile
        assert profile.compute_iterations == csr.nnz
        assert profile.sram_random_reads == csr.nnz
        assert profile.sram_random_updates == 0
        assert profile.dram_stream_read_bytes > 4 * csr.nnz

    def test_coo_profile_has_updates(self, tiny_matrix_dataset):
        coo = tiny_matrix_dataset.matrix
        vector = np.ones(coo.shape[1])
        profile = spmv_coo(coo, vector).profile
        assert profile.sram_random_updates == coo.nnz

    def test_csc_skips_zero_columns(self, tiny_matrix_dataset):
        csc = to_csc(tiny_matrix_dataset.matrix)
        vector = sparse_vector(csc.shape[1], density=0.3, seed=5)
        profile = spmv_csc(csc, vector).profile
        assert profile.compute_iterations < csc.nnz

    def test_vector_length_mismatch(self, matrix_and_vector):
        csr, _ = matrix_and_vector
        with pytest.raises(WorkloadError):
            spmv_csr(csr, np.ones(csr.shape[1] + 1))


class TestPageRank:
    def test_pull_matches_reference(self, tiny_graph):
        run = pagerank_pull(tiny_graph.matrix, iterations=3)
        assert np.allclose(run.output, reference_pagerank(tiny_graph.matrix, 3))

    def test_edge_matches_reference(self, tiny_graph):
        run = pagerank_edge(tiny_graph.matrix, iterations=3)
        assert np.allclose(run.output, reference_pagerank(tiny_graph.matrix, 3))

    def test_pull_and_edge_agree(self, tiny_graph):
        pull = pagerank_pull(tiny_graph.matrix, iterations=2)
        edge = pagerank_edge(tiny_graph.matrix, iterations=2)
        assert np.allclose(pull.output, edge.output)

    def test_rank_is_probabilityish(self, tiny_graph):
        run = pagerank_pull(tiny_graph.matrix, iterations=5)
        assert np.all(run.output > 0)

    def test_edge_dram_updates_when_off_chip(self, tiny_graph):
        profile = pagerank_edge(tiny_graph.matrix, iterations=1, ranks_fit_on_chip=False).profile
        assert profile.dram_random_updates == tiny_graph.matrix.nnz

    def test_invalid_iterations(self, tiny_graph):
        with pytest.raises(WorkloadError):
            pagerank_pull(tiny_graph.matrix, iterations=0)


class TestGraphTraversal:
    def test_bfs_parents_consistent_with_levels(self, tiny_graph):
        source = best_source(tiny_graph.matrix)
        run = bfs(tiny_graph.matrix, source)
        levels = reference_bfs_levels(tiny_graph.matrix, source)
        parents = run.output
        reached = np.nonzero(parents >= 0)[0]
        assert np.array_equal(np.sort(reached), np.sort(np.nonzero(levels >= 0)[0]))
        for vertex in reached.tolist():
            if vertex == source:
                continue
            assert levels[vertex] == levels[parents[vertex]] + 1

    def test_bfs_rounds_match_depth(self, tiny_graph):
        source = best_source(tiny_graph.matrix)
        run = bfs(tiny_graph.matrix, source)
        levels = reference_bfs_levels(tiny_graph.matrix, source)
        assert run.profile.sequential_rounds >= levels.max()

    def test_bfs_not_pipelinable(self, tiny_graph):
        run = bfs(tiny_graph.matrix, best_source(tiny_graph.matrix))
        assert not run.profile.pipelinable

    def test_sssp_matches_dijkstra(self, tiny_graph):
        source = best_source(tiny_graph.matrix)
        run = sssp(tiny_graph.matrix, source)
        reference = reference_sssp(tiny_graph.matrix, source)
        assert np.allclose(
            np.where(np.isinf(run.output), -1.0, run.output),
            np.where(np.isinf(reference), -1.0, reference),
        )

    def test_sssp_rejects_negative_weights(self, tiny_graph):
        from repro.formats import COOMatrix

        bad = COOMatrix(
            (4, 4), np.array([0]), np.array([1]), np.array([-1.0])
        )
        with pytest.raises(WorkloadError):
            sssp(bad, 0)

    def test_source_out_of_range(self, tiny_graph):
        with pytest.raises(WorkloadError):
            bfs(tiny_graph.matrix, tiny_graph.matrix.shape[0] + 5)

    def test_backpointer_flag_reduces_updates(self, tiny_graph):
        source = best_source(tiny_graph.matrix)
        with_ptr = bfs(tiny_graph.matrix, source, write_backpointers=True).profile
        without_ptr = bfs(tiny_graph.matrix, source, write_backpointers=False).profile
        assert without_ptr.sram_random_updates < with_ptr.sram_random_updates


class TestSparseAddAndSpMSpM:
    @pytest.fixture(scope="class")
    def small_pair(self):
        a = to_csr(load_dataset("qc324").matrix)
        b = to_csr(load_dataset("qc324", seed=99).matrix)
        return a, b

    def test_add_matches_reference(self, small_pair):
        a, b = small_pair
        run = sparse_add(a, b)
        assert np.allclose(run.output.to_dense(), reference_add(a, b))

    def test_add_union_iterations(self, small_pair):
        a, b = small_pair
        profile = sparse_add(a, b).profile
        assert profile.compute_iterations >= max(a.nnz, b.nnz)
        assert profile.compute_iterations <= a.nnz + b.nnz

    def test_add_bittree_cheaper_for_hypersparse(self):
        # Bit-tree iteration pays a top-level pass but skips empty 512-bit
        # tiles, so it wins once rows are wide and mostly empty (the regime
        # the paper's M+M datasets are in).
        a = to_csr(load_dataset("ckt11752_dc_1", scale=1 / 32).matrix)
        with_tree = sparse_add(a, a, use_bittree=True).profile
        without_tree = sparse_add(a, a, use_bittree=False).profile
        assert with_tree.scan_cycles < without_tree.scan_cycles

    def test_spmspm_matches_reference(self, small_pair):
        a, b = small_pair
        run = spmspm(a, b)
        assert np.allclose(run.output, reference_spmspm(a, b))

    def test_spmspm_shape_mismatch(self, small_pair):
        a, _ = small_pair
        from repro.formats import CSRMatrix

        wrong = CSRMatrix.from_dense(np.ones((a.shape[1] + 3, 4)))
        with pytest.raises(WorkloadError):
            spmspm(a, wrong)

    def test_spmspm_profile_counts_multiplies(self, small_pair):
        a, b = small_pair
        profile = spmspm(a, b).profile
        assert profile.compute_iterations == profile.extra["multiplies"]
        assert profile.sram_random_updates > 0


class TestConvAndBiCGStab:
    def test_conv_matches_reference(self):
        workload = generate_conv_layer("resnet50-2", scale=0.125)
        run = sparse_convolution(workload)
        assert np.allclose(run.output, reference_convolution(workload))

    def test_conv_profile_strided(self):
        workload = generate_conv_layer("resnet50-1", scale=0.125)
        profile = sparse_convolution(workload).profile
        assert profile.strided_fraction > 0.5
        assert profile.compute_iterations == profile.extra["macs"]

    def test_bicgstab_converges(self, tiny_matrix_dataset):
        system = make_diagonally_dominant(tiny_matrix_dataset.matrix)
        rhs = np.random.default_rng(11).random(system.shape[0])
        run = bicgstab(system, rhs)
        assert run.profile.extra["converged"] == 1.0
        assert np.allclose(system.to_dense() @ run.output, rhs, atol=1e-5)

    def test_bicgstab_unfused_has_rounds(self, tiny_matrix_dataset):
        system = make_diagonally_dominant(tiny_matrix_dataset.matrix)
        rhs = np.ones(system.shape[0])
        fused = bicgstab(system, rhs, fused=True).profile
        unfused = bicgstab(system, rhs, fused=False).profile
        assert fused.sequential_rounds == 0
        assert unfused.sequential_rounds > 0

    def test_bicgstab_requires_square(self, matrix_and_vector):
        csr, _ = matrix_and_vector
        from repro.formats import CSRMatrix

        rectangular = CSRMatrix.from_dense(np.ones((3, 4)))
        with pytest.raises(WorkloadError):
            bicgstab(rectangular, np.ones(3))
