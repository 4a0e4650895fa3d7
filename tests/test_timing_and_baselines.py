"""Tests for the Capstan timing model, platform baselines, and profiles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import spmv_csr
from repro.apps.profile import WorkloadProfile, vector_slots_for
from repro.apps.timing import CapstanPlatform, default_platform, estimate_cycles, ideal_platform
from repro.baselines import asic, cpu, gpu, plasticine
from repro.config import MemoryTechnology
from repro.core import OrderingMode
from repro.formats import to_csr


@pytest.fixture(scope="module")
def spmv_profile(tiny_matrix_dataset):
    csr = to_csr(tiny_matrix_dataset.matrix)
    vector = np.random.default_rng(1).random(csr.shape[1])
    return spmv_csr(csr, vector, dataset=tiny_matrix_dataset.name).profile


class TestWorkloadProfile:
    def test_vector_slots(self):
        assert vector_slots_for([0, 5, 17]) == 1 + 1 + 2

    def test_imbalance_fraction(self):
        profile = WorkloadProfile(app="x", dataset="d", tile_work=[10, 10, 40])
        assert profile.imbalance_fraction == pytest.approx(1.0)

    def test_merge_sums_counts(self, spmv_profile):
        merged = spmv_profile.merge(spmv_profile)
        assert merged.compute_iterations == 2 * spmv_profile.compute_iterations
        assert merged.sram_random_reads == 2 * spmv_profile.sram_random_reads

    def test_merge_weights_fractions(self):
        a = WorkloadProfile(
            app="x", dataset="d", sram_random_reads=100, cross_tile_request_fraction=1.0
        )
        b = WorkloadProfile(
            app="x", dataset="d", sram_random_reads=300, cross_tile_request_fraction=0.0
        )
        assert a.merge(b).cross_tile_request_fraction == pytest.approx(0.25)


class TestCapstanTimingModel:
    def test_breakdown_sums_to_total(self, spmv_profile):
        cycles, breakdown = estimate_cycles(spmv_profile)
        assert cycles == pytest.approx(breakdown.total_cycles)
        assert cycles > 0

    def test_memory_technology_ordering(self, spmv_profile):
        hbm2e = estimate_cycles(spmv_profile, default_platform(MemoryTechnology.HBM2E))[0]
        hbm2 = estimate_cycles(spmv_profile, default_platform(MemoryTechnology.HBM2))[0]
        ddr4 = estimate_cycles(spmv_profile, default_platform(MemoryTechnology.DDR4))[0]
        assert hbm2e <= hbm2 <= ddr4

    def test_ideal_platform_fastest(self, spmv_profile):
        ideal = estimate_cycles(spmv_profile, ideal_platform())[0]
        real = estimate_cycles(spmv_profile)[0]
        assert ideal <= real

    def test_ordering_modes_slow_down(self, spmv_profile):
        unordered = estimate_cycles(spmv_profile, CapstanPlatform())[0]
        fully = estimate_cycles(
            spmv_profile, CapstanPlatform(ordering=OrderingMode.FULLY_ORDERED)
        )[0]
        assert fully >= unordered

    def test_arbitrated_slower_than_allocated(self, spmv_profile):
        allocated = estimate_cycles(spmv_profile, CapstanPlatform())[0]
        arbitrated = estimate_cycles(spmv_profile, CapstanPlatform(allocator="arbitrated"))[0]
        assert arbitrated >= allocated

    def test_linear_mapping_hurts_strided_apps(self):
        profile = WorkloadProfile(
            app="conv",
            dataset="d",
            compute_iterations=100_000,
            vector_slots=7_000,
            sram_random_updates=100_000,
            strided_fraction=0.9,
            outer_parallelism=16,
        )
        hashed = estimate_cycles(profile, CapstanPlatform(bank_mapping="hash"))[0]
        linear = estimate_cycles(profile, CapstanPlatform(bank_mapping="linear"))[0]
        assert linear > 1.5 * hashed

    def test_more_parallelism_is_faster(self, spmv_profile):
        import copy

        narrow = copy.copy(spmv_profile)
        narrow.outer_parallelism = 2
        wide = copy.copy(spmv_profile)
        wide.outer_parallelism = 64
        assert estimate_cycles(wide)[0] < estimate_cycles(narrow)[0]

    def test_sequential_rounds_cost_network(self):
        base = WorkloadProfile(app="bfs", dataset="d", compute_iterations=1000, vector_slots=100)
        rounds = WorkloadProfile(
            app="bfs", dataset="d", compute_iterations=1000, vector_slots=100,
            sequential_rounds=50, pipelinable=False,
        )
        assert estimate_cycles(rounds)[0] > estimate_cycles(base)[0]

    def test_default_platform_names_its_memory(self):
        for memory in (MemoryTechnology.DDR4, MemoryTechnology.HBM2, MemoryTechnology.HBM2E):
            platform = default_platform(memory)
            assert platform.config.memory is memory
            assert platform.name == f"capstan-{memory.value}"
            assert not (platform.ideal_network or platform.ideal_memory or platform.ideal_sram)
        assert default_platform() == default_platform(MemoryTechnology.HBM2E)


class TestBaselines:
    def test_plasticine_slower_for_random_updates(self, spmv_profile):
        capstan_cycles = estimate_cycles(spmv_profile)[0]
        plasticine_cycles = plasticine.estimate_cycles(spmv_profile)
        assert plasticine_cycles > capstan_cycles

    def test_plasticine_rejects_unmappable(self):
        profile = WorkloadProfile(app="bfs", dataset="d")
        with pytest.raises(ValueError):
            plasticine.estimate_cycles(profile)

    def test_plasticine_mappable_set(self):
        assert "spmv-csr" in plasticine.PLASTICINE_MAPPABLE_APPS
        assert "spmspm" not in plasticine.PLASTICINE_MAPPABLE_APPS

    def test_cpu_slower_than_capstan(self, spmv_profile):
        capstan_seconds = estimate_cycles(spmv_profile)[0] / 1.6e9
        cpu_metrics = cpu.run_metrics(spmv_profile)
        assert cpu_metrics.runtime_seconds > capstan_seconds

    def test_gpu_between_cpu_and_capstan(self, spmv_profile):
        capstan_seconds = estimate_cycles(spmv_profile)[0] / 1.6e9
        gpu_seconds = gpu.run_metrics(spmv_profile).runtime_seconds
        cpu_seconds = cpu.run_metrics(spmv_profile).runtime_seconds
        assert capstan_seconds < gpu_seconds < cpu_seconds

    def test_run_metrics_records_platform(self, spmv_profile):
        metrics = cpu.run_metrics(spmv_profile)
        assert metrics.platform.startswith("cpu")
        assert metrics.app == spmv_profile.app

    def test_asic_models_positive(self, spmv_profile):
        assert asic.eie_runtime_seconds(spmv_profile) > 0
        assert asic.matraptor_runtime_seconds(spmv_profile) > 0
        assert asic.graphicionado_runtime_seconds(spmv_profile) > 0
        assert asic.scnn_runtime_seconds(spmv_profile) > 0

    def test_graphicionado_uses_edge_counts(self):
        profile = WorkloadProfile(
            app="bfs", dataset="d", compute_iterations=10,
            extra={"edges_traversed": 1_000_000.0}, sequential_rounds=5,
        )
        slow = asic.graphicionado_runtime_seconds(profile, edges_per_second=1e9)
        fast = asic.graphicionado_runtime_seconds(profile, edges_per_second=4e9)
        assert slow > fast
