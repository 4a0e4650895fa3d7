"""Memory-bounded chunked execution: budget chunker + per-engine identity.

Two contracts, pinned across every batch engine:

* the budget primitives (:mod:`repro._budget`) parse human-readable byte
  budgets and cut iterables lazily into in-order chunks that fit them;
* every engine's chunked execution -- platform-axis costing, the SpMU
  variant grid, and streaming DSE -- is *bit-identical* to its unchunked
  pass for chunks of one item, a prime mid-size and a larger-than-grid
  size. Each chunk size is reached through ``REPRO_MEMORY_BUDGET``, sized
  from the engine's own cost model.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._budget import (
    ENV_MEMORY_BUDGET,
    iter_chunks,
    parse_memory_budget,
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
        ],
    )
    def test_parse(self, text, expected):
        assert parse_memory_budget(text) == expected

    @pytest.mark.parametrize(
        "bad", ["", "64Q", "lots", "-1", "0", "-5K", "inf", "nan", "1e400"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            parse_memory_budget(bad)

    def test_resolve_reads_the_env(self, monkeypatch):
        monkeypatch.setenv(ENV_MEMORY_BUDGET, "1M")
        assert resolve_memory_budget() == 1 << 20
        monkeypatch.setenv(ENV_MEMORY_BUDGET, "")
        assert resolve_memory_budget() is None
        monkeypatch.setenv(ENV_MEMORY_BUDGET, "inf")
        with pytest.raises(ConfigurationError):
            resolve_memory_budget()

    def test_constant_size_divides_the_budget(self):
        chunks = list(iter_chunks(range(100), lambda _: 64, 640))
        assert [len(chunk) for chunk in chunks] == [10] * 10
        assert chunks[-1] == list(range(90, 100))

    def test_a_chunk_holds_at_least_one_item(self):
        assert list(iter_chunks(range(3), lambda _: 1 << 20, 1024)) == [[0], [1], [2]]

    def test_without_budget_no_item_is_sized(self):
        def unsized(item):
            raise AssertionError("an unbudgeted pass sizes no item")

        assert list(iter_chunks(range(17), unsized, None)) == [list(range(17))]
        assert list(iter_chunks(range(17), unsized, None, max_items=5))[-1] == [15, 16]

    def test_empty_input_is_one_empty_chunk(self):
        assert list(iter_chunks([], len, None)) == [[]]
        assert list(iter_chunks([], len, 64)) == [[]]

    def test_is_lazy(self):
        def generator():
            yield from range(10)
            raise AssertionError("over-consumed")

        chunks = iter_chunks(generator(), lambda _: 16, 64)
        assert next(chunks) == [0, 1, 2, 3]
        assert next(chunks) == [4, 5, 6, 7]

    def test_rejects_a_nonpositive_cap(self):
        with pytest.raises(ConfigurationError):
            list(iter_chunks([1, 2], len, None, max_items=0))

    @settings(max_examples=200, deadline=None)
    @given(
        count=st.integers(0, 60),
        size=st.integers(0, 5_000),
        budget=st.one_of(st.none(), st.integers(1, 50_000)),
        max_items=st.one_of(st.none(), st.integers(1, 20)),
    )
    def test_constant_size_chunks(self, count, size, budget, max_items):
        chunks = list(iter_chunks(range(count), lambda _: size, budget, max_items=max_items))
        assert [item for chunk in chunks for item in chunk] == list(range(count))
        assert all(chunks[:-1]) and len(chunks) >= 1
        width = count if budget is None else max(1, budget // max(size, 1))
        if max_items is not None:
            width = min(width, max_items)
        assert [len(chunk) for chunk in chunks[:-1]] == [width] * (len(chunks) - 1)
        assert 0 < len(chunks[-1]) <= width or count == 0

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 5_000), max_size=60),
        budget=st.one_of(st.none(), st.integers(1, 20_000)),
        max_items=st.one_of(st.none(), st.integers(1, 20)),
    )
    def test_variable_size_chunks(self, sizes, budget, max_items):
        items = list(enumerate(sizes))
        chunks = list(iter_chunks(items, lambda item: item[1], budget, max_items=max_items))
        assert [item for chunk in chunks for item in chunk] == items
        assert all(chunks[:-1]) and len(chunks) >= 1
        for chunk in chunks:
            if len(chunk) >= 2 and budget is not None:
                assert sum(size for _, size in chunk) <= budget
            if max_items is not None:
                assert len(chunk) <= max_items


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
    return str(chunk * max(n_profiles, 1) * COSTING_BYTES_PER_CELL)


class TestChunkedCosting:
    def test_chunk_sizes_are_bit_identical(self, monkeypatch):
        profiles, platforms = _profiles(), _platforms()
        full = estimate_cycles_batch(profiles, platforms)
        for chunk in CHUNK_SIZES:
            monkeypatch.setenv(ENV_MEMORY_BUDGET, _costing_budget(len(profiles), chunk))
            part = estimate_cycles_batch(profiles, platforms)
            assert np.array_equal(full.cycles, part.cycles)
            assert full.categories.keys() == part.categories.keys()
            for name in full.categories:
                assert np.array_equal(full.categories[name], part.categories[name])

    @pytest.mark.parametrize("budget", ["1024", "4K"])
    def test_memory_budget_is_bit_identical(self, monkeypatch, budget):
        profiles, platforms = _profiles(), _platforms()
        full = estimate_cycles_batch(profiles, platforms)
        monkeypatch.setenv(ENV_MEMORY_BUDGET, budget)
        tight = estimate_cycles_batch(profiles, platforms)
        assert np.array_equal(full.cycles, tight.cycles)

    def test_accepts_platform_generator(self, monkeypatch):
        profiles, platforms = _profiles(), _platforms()
        full = estimate_cycles_batch(profiles, platforms)
        monkeypatch.setenv(ENV_MEMORY_BUDGET, _costing_budget(len(profiles), 2))
        lazy = estimate_cycles_batch(profiles, (p for p in platforms))
        assert np.array_equal(full.cycles, lazy.cycles)

    def test_iter_batches_align_with_grid(self, monkeypatch):
        profiles, platforms = _profiles(), _platforms()
        full = estimate_cycles_batch(profiles, platforms)
        column = 0
        widths = []
        monkeypatch.setenv(ENV_MEMORY_BUDGET, _costing_budget(len(profiles), 3))
        for chunk, part in iter_cycles_batches(profiles, platforms):
            width = len(chunk)
            widths.append(width)
            assert np.array_equal(
                full.cycles[:, column : column + width], part.cycles
            )
            column += width
        assert column == len(platforms)
        assert widths == [3, 1]

    def test_empty_grids_keep_shapes(self, monkeypatch):
        profiles, platforms = _profiles(), _platforms()
        monkeypatch.setenv(ENV_MEMORY_BUDGET, _costing_budget(len(profiles), 1))
        assert estimate_cycles_batch(profiles, []).cycles.shape == (len(profiles), 0)
        monkeypatch.setenv(ENV_MEMORY_BUDGET, _costing_budget(0, 2))
        assert estimate_cycles_batch([], platforms).cycles.shape == (0, len(platforms))


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
        return str(sum(map(spmu_array._variant_footprint, pairs[:chunk])))

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
            monkeypatch.setenv(ENV_MEMORY_BUDGET, self._budget(variants, traces, chunk))
            part = simulate_variants(variants, traces)
            assert self._stats(part) == full
            assert sizes[0] == min(chunk, len(variants))

    def test_memory_budget_is_identical(self, monkeypatch):
        variants, traces = self._grid()
        full = self._stats(simulate_variants(variants, traces))
        monkeypatch.setenv(ENV_MEMORY_BUDGET, "2048")
        assert self._stats(simulate_variants(variants, traces)) == full

    @pytest.mark.parametrize("budget", ["", "2048"])
    def test_fanned_out_shares_are_identical(self, monkeypatch, budget):
        variants, traces = self._grid()
        full = self._stats(simulate_variants(variants, traces))
        monkeypatch.setattr(spmu_array, "_share_count", lambda costs: min(2, len(costs)))
        monkeypatch.setenv(ENV_MEMORY_BUDGET, budget)
        assert self._stats(simulate_variants(variants, traces)) == full

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
            chunks.append(sum(map(spmu_array._variant_footprint, zip(vs, preps))))
            return real(vs, preps, *args)

        monkeypatch.setattr(spmu_array, "_share_count", lambda costs: min(2, len(costs)))
        monkeypatch.setattr(spmu_array, "_run_shares", lambda f, shares: list(map(f, shares)))
        monkeypatch.setattr(spmu_array, "_simulate_scheduled_lockstep", lockstep)
        monkeypatch.setenv(ENV_MEMORY_BUDGET, str(budget))
        assert self._stats(simulate_variants(variants, traces)) == full
        # Two chunks (four variants, then two), each dealt into two shares:
        # the first chunk's address-ordered share exceeds budget / 2 as a
        # whole and streams as two lock-step runs.
        assert len(chunks) == 5
        assert max(chunks) <= budget // 2

    def test_accepts_generators(self, monkeypatch):
        variants, traces = self._grid()
        full = self._stats(simulate_variants(variants, traces))
        monkeypatch.setenv(ENV_MEMORY_BUDGET, self._budget(variants, traces, 2))
        lazy = simulate_variants((v for v in variants), (t for t in traces))
        assert self._stats(lazy) == full

    def test_length_mismatch_raises(self):
        variants, traces = self._grid()
        with pytest.raises(SimulationError):
            simulate_variants(variants, traces[:-1])
        with pytest.raises(SimulationError):
            simulate_variants(variants[:-1], traces)


class TestStreamingDSE:
    def test_streamed_matches_materialized(self, monkeypatch):
        profiles = _profiles()
        axes = dict(lanes=(8, 16), banks=(8, 16), ideal_sram=(True,))
        full = explore(profiles=profiles, **axes)
        monkeypatch.setenv(ENV_MEMORY_BUDGET, "2048")
        streamed = explore(profiles=profiles, **axes)
        assert streamed.batch is None
        assert np.array_equal(full.gmean_cycles, streamed.gmean_cycles)
        assert np.array_equal(full.area_mm2, streamed.area_mm2)
        assert full.frontier() == streamed.frontier()
        assert full.rows() == streamed.rows()

    def test_grid_is_kept_when_it_fits_the_budget(self, monkeypatch):
        profiles = _profiles()
        axes = dict(lanes=(8, 16), banks=(8, 16), ideal_sram=(True,))
        full = explore(profiles=profiles, **axes)
        # A budget that holds the whole grid costs it as one chunk and keeps it.
        budget = len(profiles) * len(full.variants) * COSTING_BYTES_PER_CELL
        monkeypatch.setenv(ENV_MEMORY_BUDGET, str(budget))
        kept = explore(profiles=profiles, **axes)
        assert kept.batch is not None
        assert np.array_equal(full.cycles, kept.cycles)
        # One byte less splits it, and the grid is streamed out.
        monkeypatch.setenv(ENV_MEMORY_BUDGET, str(budget - 1))
        assert explore(profiles=profiles, **axes).batch is None
        # One variant is one chunk under any budget, so its column is kept.
        monkeypatch.setenv(ENV_MEMORY_BUDGET, "1")
        assert explore(profiles=profiles, lanes=(8,), ideal_sram=(True,)).batch is not None

    def test_streamed_cycles_access_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_MEMORY_BUDGET, "1024")
        streamed = explore(profiles=_profiles(), lanes=(8, 16), ideal_sram=(True,))
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

    @pytest.mark.parametrize("bad", ["64Q", "nan", "inf", "1e400"])
    def test_bad_memory_budget_is_a_usage_error(self, capsys, bad):
        from repro.runtime.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--list", "--memory-budget", bad])
        assert excinfo.value.code == 2
        assert "memory budget" in capsys.readouterr().err

    def test_bad_env_budget_is_an_error_line(self, monkeypatch, capsys):
        from repro.runtime.cli import main

        monkeypatch.setenv(ENV_MEMORY_BUDGET, "inf")
        assert main(["dse", "--apps", "spmv-csr", "--scale", "1/512"]) == 1
        assert capsys.readouterr().err.startswith("error: memory budget must be finite")
