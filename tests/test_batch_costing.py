"""Tests for batched platform costing and the timing-model fidelity fixes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import spmv_csr
from repro.apps import timing as timing_module
from repro.apps.profile import WorkloadProfile
from repro.apps.scan_model import record_scans
from repro.apps.timing import (
    CapstanPlatform,
    default_platform,
    estimate_cycles,
    estimate_cycles_batch,
    ideal_platform,
)
from repro.config import CapstanConfig, MemoryTechnology, ScannerConfig, ShuffleMode
from repro.core.ordering import OrderingMode
from repro.eval.figures import FIGURE6_BIT_WIDTHS, FIGURE6_OUTPUT_WIDTHS
from repro.formats import to_csr
from repro.runtime.registry import RunContext, app_datasets, execute
from repro.runtime.sweep import sweep
from repro.sim.stats import STALL_CATEGORIES


def _profile_zoo():
    """Synthetic profiles exercising every term of the timing model."""
    return [
        WorkloadProfile(
            app="dense-ish", dataset="a",
            compute_iterations=123_456, vector_slots=9_000,
            scan_cycles=4_000, scan_empty_cycles=300,
            sram_random_reads=50_000, sram_random_updates=20_000,
            strided_fraction=0.37,
            dram_random_reads=1_000, dram_random_updates=500,
            dram_stream_read_bytes=1.5e6, dram_stream_write_bytes=2e5,
            pointer_stream_bytes=4e5, pointer_compression_ratio=2.5,
            tile_work=[1.0, 2.0, 1.5], cross_tile_request_fraction=0.22,
            sequential_rounds=17, pipelinable=False, outer_parallelism=64,
        ),
        WorkloadProfile(
            app="cross-heavy", dataset="b",
            compute_iterations=777, vector_slots=80, scan_cycles=10,
            sram_random_updates=100, cross_tile_request_fraction=0.9,
            sequential_rounds=2, outer_parallelism=3,
        ),
        WorkloadProfile(
            app="strided", dataset="c",
            compute_iterations=40_000, vector_slots=3_000,
            sram_random_updates=200_000, strided_fraction=0.95,
            outer_parallelism=16,
        ),
        WorkloadProfile(app="empty", dataset="d"),
    ]


def _platform_zoo():
    """Every Table 9-12 variant family plus structural DSE variants."""
    platforms = [default_platform(), ideal_platform()]
    platforms.append(CapstanPlatform(ideal_sram=True, name="ideal-sram"))
    platforms += list(
        sweep(
            allocator=("separable", "greedy", "arbitrated"),
            bank_mapping=("hash", "linear"),
        ).values()
    )
    platforms += list(
        sweep(
            ordering=(
                OrderingMode.UNORDERED,
                OrderingMode.ADDRESS_ORDERED,
                OrderingMode.FULLY_ORDERED,
            )
        ).values()
    )
    platforms += list(
        sweep(
            memory=(MemoryTechnology.HBM2E, MemoryTechnology.HBM2, MemoryTechnology.DDR4),
            shuffle=(ShuffleMode.NONE, ShuffleMode.MRG0, ShuffleMode.MRG1, ShuffleMode.MRG16),
        ).values()
    )
    platforms += list(sweep(lanes=(8, 32), banks=(8, 32), queue_depth=(8, 32)).values())
    return platforms


@pytest.fixture(scope="module")
def spmv_profile(tiny_matrix_dataset):
    csr = to_csr(tiny_matrix_dataset.matrix)
    vector = np.random.default_rng(1).random(csr.shape[1])
    return spmv_csr(csr, vector, dataset=tiny_matrix_dataset.name).profile


@pytest.fixture(scope="module")
def scanner_swept():
    """(scanner, profile) pairs of one SpMSpM run with its scans costed
    under every Figure 6 scanner configuration."""
    configs = [ScannerConfig(bit_width=width) for width in FIGURE6_BIT_WIDTHS]
    configs += [ScannerConfig(output_vectorization=out) for out in FIGURE6_OUTPUT_WIDTHS]
    with record_scans(configs) as trace:
        run = execute("spmspm", app_datasets()["spmspm"][0], RunContext(scale=1 / 256))
    return [(config, run.with_scan(trace.cost(config))) for config in configs]


def _assert_cell_matches_scalar(result, i, j, profile, platform):
    """Cell ``(i, j)`` of ``result`` equals the scalar model, every category."""
    cycles, breakdown = estimate_cycles(profile, platform)
    assert result.cycles[i, j] == cycles, (profile.app, platform.name)
    batched = result.breakdown(i, j)
    for name in STALL_CATEGORIES:
        assert getattr(batched, name) == getattr(breakdown, name), (
            profile.app,
            platform.name,
            name,
        )


class TestBatchEquivalence:
    def test_bit_identical_across_grid(self, spmv_profile, scanner_swept):
        profiles = _profile_zoo() + [spmv_profile]
        platforms = _platform_zoo()
        result = estimate_cycles_batch(profiles, platforms)
        assert result.cycles.shape == (len(profiles), len(platforms))
        for i, profile in enumerate(profiles):
            for j, platform in enumerate(platforms):
                _assert_cell_matches_scalar(result, i, j, profile, platform)
        # Scanner-swept rows, costed as Figure 6 costs them: all on one
        # default platform, which equals costing each on a platform with
        # its scanner because the cycle model reads no scanner field.
        swept = estimate_cycles_batch(
            [profile for _, profile in scanner_swept], [CapstanPlatform()]
        )
        assert len(set(swept.cycles[:, 0])) > 1  # the sweep moves the cost
        for i, (scanner, profile) in enumerate(scanner_swept):
            platform = CapstanPlatform(config=CapstanConfig(scanner=scanner))
            _assert_cell_matches_scalar(swept, i, 0, profile, platform)

    def test_breakdown_total_matches_cycles(self, spmv_profile):
        result = estimate_cycles_batch([spmv_profile], [default_platform()])
        assert result.breakdown(0, 0).total_cycles == result.cycles[0, 0]

    def test_empty_grid(self):
        result = estimate_cycles_batch([], [default_platform()])
        assert result.cycles.shape == (0, 1)
        result = estimate_cycles_batch(_profile_zoo(), [])
        assert result.cycles.shape == (4, 0)
        for name in STALL_CATEGORIES:
            assert result.categories[name].shape == (4, 0)


class TestBankMappingFidelity:
    def test_hash_vs_linear_differ_on_random_heavy_profile(self):
        # No strided accesses at all: before the fix the mapping only acted
        # through the strided-fraction term, so this profile costed
        # identically under both mappings.
        profile = WorkloadProfile(
            app="random-heavy", dataset="d",
            compute_iterations=200_000, vector_slots=15_000,
            sram_random_updates=500_000, strided_fraction=0.0,
            outer_parallelism=16,
        )
        hash_breakdown = estimate_cycles(profile, CapstanPlatform(bank_mapping="hash"))[1]
        linear_breakdown = estimate_cycles(profile, CapstanPlatform(bank_mapping="linear"))[1]
        assert hash_breakdown.sram != linear_breakdown.sram

    def test_linear_mapping_still_pays_strided_penalty(self):
        profile = WorkloadProfile(
            app="strided", dataset="d",
            compute_iterations=100_000, vector_slots=7_000,
            sram_random_updates=100_000, strided_fraction=0.9,
            outer_parallelism=16,
        )
        hashed = estimate_cycles(profile, CapstanPlatform(bank_mapping="hash"))[0]
        linear = estimate_cycles(profile, CapstanPlatform(bank_mapping="linear"))[0]
        assert linear > 1.5 * hashed


class TestLaneScaling:
    def test_lanes32_costing_is_sane(self):
        profile = WorkloadProfile(
            app="x", dataset="d",
            compute_iterations=100_000, vector_slots=8_000,
            sram_random_updates=40_000, cross_tile_request_fraction=0.4,
            sequential_rounds=5, pipelinable=False, outer_parallelism=64,
        )
        breakdowns = {}
        for lanes in (16, 32):
            platform = CapstanPlatform(config=CapstanConfig(lanes=lanes), name=f"l{lanes}")
            cycles, breakdown = estimate_cycles(profile, platform)
            assert np.isfinite(cycles) and cycles > 0
            breakdowns[lanes] = breakdown
        # Lane-work halves when the machine is twice as wide.
        assert breakdowns[32].active == pytest.approx(breakdowns[16].active / 2)

    def test_shuffle_none_floor_follows_lane_count(self):
        for lanes in (8, 16, 32):
            floor = timing_module._shuffle_efficiency(ShuffleMode.NONE, lanes, 1.0)
            assert floor == pytest.approx(1.0 / lanes)
        # Partial cross traffic interpolates towards the floor.
        assert timing_module._shuffle_efficiency(ShuffleMode.NONE, 32, 0.0) == 1.0


class TestMergeEfficiencyCache:
    def test_keyed_by_shuffle_mode_and_lanes(self, monkeypatch):
        cache: dict = {}
        monkeypatch.setattr(timing_module, "_MERGE_EFFICIENCY_CACHE", cache)
        timing_module._shuffle_efficiency(ShuffleMode.MRG1, 16, 0.5)
        assert len(cache) == 1
        # Another mode, or another lane count: a distinct entry each.
        timing_module._shuffle_efficiency(ShuffleMode.MRG16, 16, 0.5)
        assert len(cache) == 2
        timing_module._shuffle_efficiency(ShuffleMode.MRG1, 8, 0.5)
        assert len(cache) == 3
        # Repeats hit the cache.
        timing_module._shuffle_efficiency(ShuffleMode.MRG1, 16, 0.5)
        assert len(cache) == 3
