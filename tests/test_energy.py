"""The analytic energy model: batch/scalar identity and physical sanity.

The contract mirrors the costing batch's (PR 3): the per-call
:func:`~repro.core.energy.estimate_energy` reference stays the semantic
source of truth, and the vectorized
:func:`~repro.core.energy.estimate_energy_batch` must reproduce it
element for element -- exact float equality, direct and chunked --
because both paths consume the same precomputed per-platform event
energies and mirror the same operation order.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.profile import WorkloadProfile
from repro.apps.timing import (
    COSTING_BYTES_PER_CELL,
    CapstanPlatform,
    estimate_cycles,
    estimate_cycles_batch,
)
from repro.config import CapstanConfig, MemoryTechnology
from repro.core.energy import (
    ENERGY_CATEGORIES,
    estimate_energy,
    estimate_energy_batch,
    platform_energy_params,
)
from repro.runtime.sweep import sweep


def _platforms():
    variants = sweep(
        lanes=(8, 16),
        banks=(16, 32),
        memory=(MemoryTechnology.DDR4, MemoryTechnology.HBM2E),
    )
    return list(variants.values())


profiles_strategy = st.builds(
    WorkloadProfile,
    app=st.just("app"),
    dataset=st.just("data"),
    compute_iterations=st.integers(0, 10**7),
    vector_slots=st.integers(0, 10**5),
    scan_cycles=st.integers(0, 10**5),
    scan_empty_cycles=st.integers(0, 10**4),
    sram_random_reads=st.integers(0, 10**6),
    sram_random_updates=st.integers(0, 10**6),
    dram_random_reads=st.integers(0, 10**5),
    dram_random_updates=st.integers(0, 10**5),
    dram_stream_read_bytes=st.floats(0, 1e9),
    dram_stream_write_bytes=st.floats(0, 1e8),
    pointer_stream_bytes=st.floats(0, 1e6),
    pointer_compression_ratio=st.floats(0.5, 8.0),
    cross_tile_request_fraction=st.floats(0.0, 1.0),
    sequential_rounds=st.integers(0, 8),
    pipelinable=st.booleans(),
    outer_parallelism=st.integers(1, 64),
)


class TestBatchScalarIdentity:
    @settings(max_examples=25, deadline=None)
    @given(profile=profiles_strategy)
    def test_batch_equals_scalar_element_for_element(self, profile):
        platforms = _platforms()
        profiles = [profile]
        batch = estimate_cycles_batch(profiles, platforms, energy=True)
        assert batch.energy_mj is not None and batch.energy_mj.shape == (1, len(platforms))
        for j, platform in enumerate(platforms):
            total, breakdown = estimate_energy(profile, platform)
            assert batch.energy_mj[0, j] == total  # exact, not approx
            for name in ENERGY_CATEGORIES:
                assert batch.energy_categories[name][0, j] == getattr(breakdown, name)

    def test_batch_with_explicit_cycles_matches_reference(self):
        profiles = [
            WorkloadProfile(
                app="a", dataset="d",
                compute_iterations=50_000, vector_slots=4_000,
                sram_random_updates=30_000, outer_parallelism=32,
                dram_stream_read_bytes=1e6, pointer_stream_bytes=2e5,
                pointer_compression_ratio=3.0,
            ),
            WorkloadProfile(
                app="b", dataset="e",
                compute_iterations=9_000, scan_cycles=4_000,
                sram_random_updates=5_000, cross_tile_request_fraction=0.5,
                dram_random_updates=2_000,
            ),
        ]
        platforms = _platforms()
        cycles = np.array(
            [[estimate_cycles(p, v)[0] for v in platforms] for p in profiles]
        )
        result = estimate_energy_batch(profiles, platforms, cycles)
        for i, profile in enumerate(profiles):
            for j, platform in enumerate(platforms):
                total, breakdown = estimate_energy(
                    profile, platform, cycles=cycles[i, j]
                )
                assert result.total[i, j] == total
                assert result.breakdown(i, j) == breakdown

    def test_chunked_batch_is_bit_identical(self):
        profiles = [
            WorkloadProfile(
                app="a", dataset="d", compute_iterations=10_000,
                sram_random_updates=3_000, dram_stream_read_bytes=5e5,
            )
        ]
        platforms = _platforms()
        whole = estimate_cycles_batch(profiles, platforms, energy=True)
        for chunk in (1, 3, 10_000):
            budget = chunk * len(profiles) * COSTING_BYTES_PER_CELL
            split = estimate_cycles_batch(
                profiles, platforms, energy=True, memory_budget=budget
            )
            assert np.array_equal(split.cycles, whole.cycles)
            assert np.array_equal(split.energy_mj, whole.energy_mj)
            for name in ENERGY_CATEGORIES:
                assert np.array_equal(
                    split.energy_categories[name], whole.energy_categories[name]
                )

    def test_energy_off_by_default(self):
        profiles = [WorkloadProfile(app="a", dataset="d", compute_iterations=100)]
        batch = estimate_cycles_batch(profiles, _platforms())
        assert batch.energy_mj is None
        assert batch.energy_categories is None

    def test_batch_rejects_mismatched_cycles_shape(self):
        profiles = [WorkloadProfile(app="a", dataset="d")]
        with pytest.raises(ValueError):
            estimate_energy_batch(profiles, _platforms(), np.zeros((2, 2)))


class TestPhysicalSanity:
    def _profile(self, **overrides):
        fields = dict(
            app="a", dataset="d", compute_iterations=10_000,
            sram_random_updates=5_000, dram_stream_read_bytes=1e6,
            dram_random_reads=1_000,
        )
        fields.update(overrides)
        return WorkloadProfile(**fields)

    def test_total_is_sum_of_categories(self):
        total, breakdown = estimate_energy(self._profile())
        assert total == breakdown.total_mj
        assert total == pytest.approx(
            sum(getattr(breakdown, name) for name in ENERGY_CATEGORIES)
        )
        assert total > 0

    def test_ddr4_streams_cost_more_than_hbm2e(self):
        ddr4 = CapstanPlatform(CapstanConfig(memory=MemoryTechnology.DDR4))
        hbm2e = CapstanPlatform(CapstanConfig(memory=MemoryTechnology.HBM2E))
        profile = self._profile()
        assert estimate_energy(profile, ddr4)[1].dram > estimate_energy(profile, hbm2e)[1].dram

    def test_ideal_memory_is_free(self):
        ideal = CapstanPlatform(CapstanConfig(memory=MemoryTechnology.IDEAL))
        _, breakdown = estimate_energy(self._profile(), ideal)
        assert breakdown.dram == 0.0
        assert breakdown.compute > 0

    def test_energy_monotonic_in_work(self):
        small, _ = estimate_energy(self._profile())
        large, _ = estimate_energy(self._profile(compute_iterations=10**6))
        assert large > small

    def test_static_term_scales_with_cycles(self):
        profile = self._profile()
        _, short = estimate_energy(profile, cycles=1_000.0)
        _, long = estimate_energy(profile, cycles=2_000.0)
        assert long.static == pytest.approx(2.0 * short.static)
        assert long.compute == short.compute  # dynamic terms unaffected

    def test_compression_reduces_dram_energy(self):
        compressed = self._profile(
            pointer_stream_bytes=5e5, pointer_compression_ratio=4.0
        )
        # Compression off, the way Figure 5c models it: the ratio stripped to 1.
        stripped = dataclasses.replace(compressed, pointer_compression_ratio=1.0)
        platform = CapstanPlatform()
        on = estimate_energy(compressed, platform)[1].dram
        assert on < estimate_energy(stripped, platform)[1].dram

    def test_params_are_memoized_per_platform(self):
        platform = CapstanPlatform(CapstanConfig())
        assert platform_energy_params(platform) is platform_energy_params(platform)
