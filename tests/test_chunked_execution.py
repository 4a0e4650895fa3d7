"""Memory-bounded chunked execution: budget planner + per-engine identity.

Two contracts, pinned across every batch engine:

* the budget primitives (:mod:`repro._budget`) parse human-readable byte
  budgets, derive chunk plans from per-item cost models, and stream
  iterables lazily;
* every engine's chunked execution -- platform-axis costing, the SpMU
  variant grid, and streaming DSE -- is *bit-identical* to its unchunked
  pass for chunks of one item, a prime mid-size and a larger-than-grid
  size. Each chunk size is reached through ``memory_budget``, sized from
  the engine's own cost model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._budget import (
    ENV_MEMORY_BUDGET,
    ChunkPlan,
    iter_chunked,
    parse_memory_budget,
    plan_chunks,
    resolve_memory_budget,
)
from repro.apps.profile import WorkloadProfile
from repro.apps.timing import COSTING_BYTES_PER_CELL, estimate_cycles_batch, iter_cycles_batches
from repro.config import SpMUConfig
from repro.core import spmu_array
from repro.core.ordering import OrderingMode
from repro.core.spmu import RequestTrace, SpMUVariant, random_request_vectors
from repro.core.spmu_array import simulate_variants
from repro.errors import ConfigurationError, SimulationError
from repro.runtime.dse import explore
from repro.runtime.sweep import sweep

CHUNK_SIZES = (1, 7, 10_000)  # one, a prime mid-size, larger than any grid


# --------------------------------------------------------------------------- #
# Budget primitives
# --------------------------------------------------------------------------- #


class TestBudgetPrimitives:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1024", 1024),
            ("64K", 64 << 10),
            ("64k", 64 << 10),
            ("2KiB", 2 << 10),
            ("1.5M", int(1.5 * (1 << 20))),
            ("2G", 2 << 30),
            ("1T", 1 << 40),
            ("128B", 128),
            (4096, 4096),
            (4096.0, 4096),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_memory_budget(text) == expected

    @pytest.mark.parametrize("bad", ["", "64Q", "lots", "-1", "0", -5, 0, True])
    def test_parse_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            parse_memory_budget(bad)

    def test_parse_none_passes_through(self):
        assert parse_memory_budget(None) is None

    def test_resolve_prefers_explicit_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_MEMORY_BUDGET, "1M")
        assert resolve_memory_budget(2048) == 2048
        assert resolve_memory_budget(None) == 1 << 20
        monkeypatch.setenv(ENV_MEMORY_BUDGET, "")
        assert resolve_memory_budget(None) is None

    def test_plan_chunks_divides_budget(self):
        plan = plan_chunks(100, bytes_per_item=64, memory_budget=640)
        assert plan.chunk_items == 10
        assert plan.n_chunks == 10
        bounds = list(plan.bounds())
        assert bounds[0] == (0, 10)
        assert bounds[-1] == (90, 100)

    def test_plan_chunks_floors_at_min_items(self):
        plan = plan_chunks(5, bytes_per_item=1 << 20, memory_budget=1024)
        assert plan.chunk_items == 1
        plan = plan_chunks(5, bytes_per_item=1 << 20, memory_budget=1024, min_items=3)
        assert plan.chunk_items == 3

    def test_plan_chunks_without_budget_is_one_chunk(self):
        plan = plan_chunks(17, bytes_per_item=8, memory_budget=None)
        assert plan.n_chunks == 1
        assert list(plan.slices()) == [slice(0, 17)]

    def test_empty_plan(self):
        assert ChunkPlan(0, 4).n_chunks == 0
        assert list(ChunkPlan(0, 4).bounds()) == []

    def test_iter_chunked_is_lazy(self):
        def generator():
            yield from range(10)
            raise AssertionError("over-consumed")

        chunks = iter_chunked(generator(), 4)
        assert next(chunks) == [0, 1, 2, 3]
        assert next(chunks) == [4, 5, 6, 7]

    def test_iter_chunked_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            list(iter_chunked([1, 2], 0))


# --------------------------------------------------------------------------- #
# Engine identity: chunked == unchunked, bit for bit
# --------------------------------------------------------------------------- #


def _profiles():
    return [
        WorkloadProfile(
            app="synthetic",
            dataset=f"d{i}",
            compute_iterations=10_000 * (i + 1),
            vector_slots=500 * (i + 1),
            scan_cycles=300 * (i + 1),
            sram_random_updates=4_000 * (i + 1),
            dram_stream_read_bytes=1e5 * (i + 1),
            outer_parallelism=4 * (i + 1),
        )
        for i in range(3)
    ]


def _platforms():
    return list(sweep(lanes=(8, 16), banks=(8, 16), ideal_sram=(True,)).values())


def _costing_budget(n_profiles, chunk):
    """The budget under which costing streams ``chunk`` platforms at a time."""
    return chunk * max(n_profiles, 1) * COSTING_BYTES_PER_CELL


class TestChunkedCosting:
    def test_chunk_sizes_are_bit_identical(self):
        profiles, platforms = _profiles(), _platforms()
        full = estimate_cycles_batch(profiles, platforms)
        for chunk in CHUNK_SIZES:
            budget = _costing_budget(len(profiles), chunk)
            part = estimate_cycles_batch(profiles, platforms, memory_budget=budget)
            assert np.array_equal(full.cycles, part.cycles)
            assert full.categories.keys() == part.categories.keys()
            for name in full.categories:
                assert np.array_equal(full.categories[name], part.categories[name])

    def test_memory_budget_is_bit_identical(self):
        profiles, platforms = _profiles(), _platforms()
        full = estimate_cycles_batch(profiles, platforms)
        tight = estimate_cycles_batch(profiles, platforms, memory_budget=1024)
        assert np.array_equal(full.cycles, tight.cycles)

    def test_env_budget_is_bit_identical(self, monkeypatch):
        profiles, platforms = _profiles(), _platforms()
        full = estimate_cycles_batch(profiles, platforms)
        monkeypatch.setenv(ENV_MEMORY_BUDGET, "4K")
        assert np.array_equal(
            full.cycles, estimate_cycles_batch(profiles, platforms).cycles
        )

    def test_accepts_platform_generator(self):
        profiles, platforms = _profiles(), _platforms()
        full = estimate_cycles_batch(profiles, platforms)
        lazy = estimate_cycles_batch(
            profiles, (p for p in platforms), memory_budget=_costing_budget(len(profiles), 2)
        )
        assert np.array_equal(full.cycles, lazy.cycles)

    def test_iter_batches_align_with_grid(self):
        profiles, platforms = _profiles(), _platforms()
        full = estimate_cycles_batch(profiles, platforms)
        column = 0
        widths = []
        for chunk, part in iter_cycles_batches(
            profiles, platforms, memory_budget=_costing_budget(len(profiles), 3)
        ):
            width = len(chunk)
            widths.append(width)
            assert np.array_equal(
                full.cycles[:, column : column + width], part.cycles
            )
            column += width
        assert column == len(platforms)
        assert widths == [3, 1]

    def test_empty_grids_keep_shapes(self):
        profiles, platforms = _profiles(), _platforms()
        budget = _costing_budget(len(profiles), 1)
        assert estimate_cycles_batch(profiles, [], memory_budget=budget).cycles.shape == (
            len(profiles),
            0,
        )
        budget = _costing_budget(0, 2)
        assert estimate_cycles_batch([], platforms, memory_budget=budget).cycles.shape == (
            0,
            len(platforms),
        )


class TestChunkedSpMU:
    def _grid(self):
        variants, traces = [], []
        for i, (ordering, depth) in enumerate(
            [
                (OrderingMode.UNORDERED, 4),
                (OrderingMode.ADDRESS_ORDERED, 8),
                (OrderingMode.FULLY_ORDERED, 4),
                (OrderingMode.ARBITRATED, 16),
                (OrderingMode.ADDRESS_ORDERED, 4),
            ]
        ):
            variants.append(
                SpMUVariant(ordering=ordering, config=SpMUConfig(queue_depth=depth))
            )
            traces.append(
                RequestTrace.from_vectors(
                    random_request_vectors(4, lanes=16, address_space=512, seed=i)
                )
            )
        return variants, traces

    @staticmethod
    def _stats(results):
        return [
            (
                r.cycles,
                r.requests,
                r.elided_reads,
                r.bank_busy_cycles,
                r.vectors,
                r.stall_cycles_ordering,
            )
            for r in results
        ]

    @staticmethod
    def _budget(variants, traces, chunk):
        """A budget whose first lock-step chunk holds ``chunk`` variants."""
        pairs = list(spmu_array._prepared_pairs(variants, traces))
        return sum(spmu_array._variant_footprint(v, prep) for v, prep in pairs[:chunk])

    def test_chunk_sizes_are_identical(self, monkeypatch):
        variants, traces = self._grid()
        full = self._stats(simulate_variants(variants, traces))
        real, sizes = spmu_array._simulate_chunk, []

        def spy(chunk, *args):
            sizes.append(len(chunk))
            return real(chunk, *args)

        monkeypatch.setattr(spmu_array, "_simulate_chunk", spy)
        for chunk in CHUNK_SIZES:
            sizes.clear()
            budget = self._budget(variants, traces, chunk)
            part = simulate_variants(variants, traces, memory_budget=budget)
            assert self._stats(part) == full
            assert sizes[0] == min(chunk, len(variants))

    def test_memory_budget_is_identical(self):
        variants, traces = self._grid()
        full = self._stats(simulate_variants(variants, traces))
        assert self._stats(simulate_variants(variants, traces, memory_budget=2048)) == full

    @pytest.mark.parametrize("budget", [None, 2048])
    def test_fanned_out_shares_are_identical(self, monkeypatch, budget):
        variants, traces = self._grid()
        full = self._stats(simulate_variants(variants, traces))
        monkeypatch.setattr(spmu_array, "_share_count", lambda costs: min(2, len(costs)))
        assert self._stats(simulate_variants(variants, traces, memory_budget=budget)) == full

    def test_fanned_out_shares_split_the_budget(self, monkeypatch):
        # Each of k shares streams its lock-step state in chunks of at most
        # budget / k (one variant when a single one exceeds it), so the
        # shares running side by side together stay within the budget.
        # The shares run in this process here so every chunk is observed.
        grid = [
            (v, t)
            for v, t in zip(*self._grid())
            if v.ordering in (OrderingMode.UNORDERED, OrderingMode.ADDRESS_ORDERED)
        ] * 2
        variants, traces = [v for v, _ in grid], [t for _, t in grid]
        full = self._stats(simulate_variants(variants, traces))
        budget, chunks = 16_000, []
        real = spmu_array._simulate_scheduled_lockstep

        def lockstep(vs, preps, *args):
            chunks.append(sum(map(spmu_array._variant_footprint, vs, preps)))
            return real(vs, preps, *args)

        monkeypatch.setattr(spmu_array, "_share_count", lambda costs: min(2, len(costs)))
        monkeypatch.setattr(spmu_array, "_run_shares", lambda f, shares: list(map(f, shares)))
        monkeypatch.setattr(spmu_array, "_simulate_scheduled_lockstep", lockstep)
        assert self._stats(simulate_variants(variants, traces, memory_budget=budget)) == full
        # Two chunks (five variants, then one): three shares, one of which
        # exceeds budget / 2 as a whole and streams as two lock-step runs.
        assert len(chunks) == 4
        assert max(chunks) <= budget // 2

    def test_accepts_generators(self):
        variants, traces = self._grid()
        full = self._stats(simulate_variants(variants, traces))
        lazy = simulate_variants(
            (v for v in variants),
            (t for t in traces),
            memory_budget=self._budget(variants, traces, 2),
        )
        assert self._stats(lazy) == full

    def test_length_mismatch_raises(self):
        variants, traces = self._grid()
        with pytest.raises(SimulationError):
            simulate_variants(variants, traces[:-1])
        with pytest.raises(SimulationError):
            simulate_variants(variants[:-1], traces)


class TestStreamingDSE:
    def test_streamed_matches_materialized(self):
        profiles = _profiles()
        axes = dict(lanes=(8, 16), banks=(8, 16), ideal_sram=(True,))
        full = explore(profiles=profiles, **axes)
        streamed = explore(profiles=profiles, memory_budget=2048, **axes)
        assert streamed.batch is None
        assert np.array_equal(full.gmean_cycles, streamed.gmean_cycles)
        assert np.array_equal(full.area_mm2, streamed.area_mm2)
        assert full.frontier() == streamed.frontier()
        assert full.rows() == streamed.rows()

    def test_keep_grid_materializes_under_budget(self):
        profiles = _profiles()
        axes = dict(lanes=(8, 16), banks=(8, 16), ideal_sram=(True,))
        full = explore(profiles=profiles, **axes)
        # A budget that holds the whole grid keeps it.
        budget = len(profiles) * len(full.variants) * COSTING_BYTES_PER_CELL
        kept = explore(profiles=profiles, memory_budget=budget, **axes)
        assert kept.batch is not None
        assert np.array_equal(full.cycles, kept.cycles)

    def test_streamed_cycles_access_raises(self):
        streamed = explore(
            profiles=_profiles(),
            memory_budget=1024,
            lanes=(8, 16),
            ideal_sram=(True,),
        )
        assert streamed.batch is None
        with pytest.raises(ConfigurationError):
            streamed.cycles


class TestCLIBudgetSeam:
    def test_memory_budget_flag_exports_env(self, monkeypatch):
        from repro.runtime.cli import main

        # setenv first so the teardown also removes the value main() exports
        # (delenv of an absent variable records nothing to undo).
        monkeypatch.setenv(ENV_MEMORY_BUDGET, "")
        monkeypatch.delenv(ENV_MEMORY_BUDGET)
        assert main(["--list", "--memory-budget", "64K"]) == 0
        import os

        assert os.environ[ENV_MEMORY_BUDGET] == str(64 << 10)

    def test_bad_memory_budget_is_a_usage_error(self, capsys):
        from repro.runtime.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--list", "--memory-budget", "64Q"])
        assert excinfo.value.code == 2
