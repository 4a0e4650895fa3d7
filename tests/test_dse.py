"""Tests for the DSE subsystem and the persistent throughput store."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.apps.profile import WorkloadProfile
from repro.config import SpMUConfig
from repro.core import spmu as spmu_module
from repro.core.ordering import OrderingMode
from repro.errors import ConfigurationError
from repro.runtime.cache import ThroughputStore, throughput_store_enabled
from repro.runtime.cli import main as cli_main
from repro.runtime.dse import explore, pareto_frontier
from repro.runtime.search import DEFAULT_SEARCH_AXES
from repro.runtime.sweep import axis_value, build_variant, parse_axis_value, sweep


@pytest.fixture
def isolated_store(tmp_path, monkeypatch):
    """Point the throughput store at a fresh directory with an empty memo."""
    monkeypatch.setenv("REPRO_THROUGHPUT_CACHE", str(tmp_path / "throughput"))
    monkeypatch.delenv("REPRO_THROUGHPUT_CACHE_DISABLE", raising=False)
    monkeypatch.setattr(spmu_module, "_THROUGHPUT_CACHE", {})
    return ThroughputStore()


class TestThroughputStore:
    def test_roundtrip(self, tmp_path):
        store = ThroughputStore(root=tmp_path)
        key = store.key(
            ordering=OrderingMode.UNORDERED,
            bank_mapping="hash",
            allocator_kind="separable",
            config=SpMUConfig(),
            lanes=16,
        )
        assert store.load(key) is None
        store.store(key, 12.625)
        assert store.load(key) == 12.625
        assert len(store) == 1

    def test_key_changes_with_configuration_and_code(self, tmp_path):
        store = ThroughputStore(root=tmp_path)
        kwargs = dict(
            ordering=OrderingMode.UNORDERED,
            bank_mapping="hash",
            allocator_kind="separable",
            config=SpMUConfig(),
            lanes=16,
        )
        base = store.key(**kwargs)
        assert store.key(**{**kwargs, "bank_mapping": "linear"}) != base
        assert store.key(**{**kwargs, "lanes": 32}) != base
        assert store.key(**{**kwargs, "config": SpMUConfig(banks=32)}) != base
        assert store.key(**{**kwargs, "ordering": OrderingMode.ARBITRATED}) != base
        assert store.key(**kwargs, fingerprint="deadbeef") != base

    def test_corrupt_and_skewed_entries_are_misses(self, tmp_path):
        store = ThroughputStore(root=tmp_path)
        key = "0" * 64
        (tmp_path / f"{key}.json").write_text("{not json")
        assert store.load(key) is None
        (tmp_path / f"{key}.json").write_text(json.dumps({"version": 999, "throughput": 1.0}))
        assert store.load(key) is None
        (tmp_path / f"{key}.json").write_text(json.dumps({"version": 1, "throughput": "x"}))
        assert store.load(key) is None
        assert store.misses == 3

    def test_clear(self, tmp_path):
        store = ThroughputStore(root=tmp_path)
        store.store("a" * 64, 1.0)
        store.store("b" * 64, 2.0)
        assert store.clear() == 2
        assert len(store) == 0

    def test_effective_bank_throughput_persists_across_processes(
        self, isolated_store, monkeypatch
    ):
        calls = []
        original = spmu_module.measure_bank_utilization

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(spmu_module, "measure_bank_utilization", counting)
        config = SpMUConfig(banks=8, words_per_bank=512)
        first = spmu_module.effective_bank_throughput(config=config, lanes=8)
        assert len(calls) == 1
        # Simulate a fresh process: the in-process memo is gone, but the
        # persisted measurement is served without re-simulating.
        spmu_module._THROUGHPUT_CACHE.clear()
        second = spmu_module.effective_bank_throughput(config=config, lanes=8)
        assert len(calls) == 1
        assert second == first
        assert len(isolated_store) == 1

    def test_kill_switch_disables_persistence(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_THROUGHPUT_CACHE", str(tmp_path / "throughput"))
        monkeypatch.setenv("REPRO_THROUGHPUT_CACHE_DISABLE", "1")
        monkeypatch.setattr(spmu_module, "_THROUGHPUT_CACHE", {})
        assert not throughput_store_enabled()
        spmu_module.effective_bank_throughput(
            config=SpMUConfig(banks=8, words_per_bank=512), lanes=8
        )
        assert not (tmp_path / "throughput").exists()


class TestSweepConfigAxes:
    def test_lanes_and_banks_axes(self):
        variants = sweep(lanes=(8, 16), banks=(8, 32))
        assert list(variants) == ["8-8", "8-32", "16-8", "16-32"]
        assert variants["8-32"].config.lanes == 8
        assert variants["8-32"].config.spmu.banks == 32
        # Untouched structural fields keep their defaults.
        assert variants["8-32"].config.spmu.queue_depth == 16

    def test_queue_depth_and_compute_units_axes(self):
        variants = sweep(compute_units=(100, 200), queue_depth=(8, 16))
        assert variants["100-8"].config.compute_units == 100
        assert variants["100-8"].config.spmu.queue_depth == 8
        assert variants["200-16"].config.spmu.queue_depth == 16

    def test_non_integer_values_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(lanes=("wide",))
        with pytest.raises(ConfigurationError):
            sweep(banks=(True,))
        with pytest.raises(ConfigurationError):
            sweep(queue_depth=(0,))

    def test_policy_field_values_validated(self):
        # A typo would otherwise be silently costed as the greedy allocator.
        with pytest.raises(ConfigurationError):
            sweep(allocator=("separable", "sepparable"))
        with pytest.raises(ConfigurationError):
            sweep(bank_mapping=("linearr",))
        with pytest.raises(ConfigurationError):
            sweep(ordering=("unordered",))  # must be an OrderingMode, not a string


    def test_illegal_structural_values_rejected_at_build(self):
        # Every sweep builds through build_variant, which validates.
        with pytest.raises(ConfigurationError, match="lanes must be a power of two"):
            sweep(lanes=(8, 12))
        with pytest.raises(ConfigurationError, match="banks must be a power of two"):
            sweep(banks=(24,))


class TestVariantBuilder:
    @pytest.mark.parametrize(
        "axis, values",
        list(DEFAULT_SEARCH_AXES.items())
        + [("shuffle", ("none", "mrg-16")), ("ideal_sram", ("true", "false"))],
    )
    def test_axis_value_reads_back_what_build_variant_wrote(self, axis, values):
        for value in values:
            native = parse_axis_value(axis, value)
            platform = build_variant(None, {axis: native}, "probe")
            assert platform.name == "probe"
            assert axis_value(platform, axis) == native

    def test_unknown_axis_has_no_value(self):
        with pytest.raises(ConfigurationError, match="unknown sweep axis"):
            axis_value(build_variant(None, {}, "base"), "warp")


class TestParetoFrontier:
    def test_simple_frontier(self):
        costs = np.array([[1.0, 5.0], [2.0, 2.0], [3.0, 3.0], [5.0, 1.0]])
        assert list(pareto_frontier(costs)) == [0, 1, 3]

    def test_duplicates_all_kept(self):
        costs = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        assert list(pareto_frontier(costs)) == [0, 1]

    def test_single_point(self):
        assert list(pareto_frontier(np.array([[3.0, 7.0]]))) == [0]

    def test_constant_column_reduces_to_other_objectives(self):
        # A degenerate objective (same value everywhere) must not hide
        # domination in the remaining columns.
        costs = np.array([[1.0, 5.0], [1.0, 2.0], [1.0, 3.0]])
        assert list(pareto_frontier(costs)) == [1]

    def test_one_point_dominating_every_other(self):
        costs = np.array([[5.0, 5.0], [1.0, 1.0], [3.0, 4.0], [2.0, 6.0]])
        assert list(pareto_frontier(costs)) == [1]

    def test_three_objectives(self):
        costs = np.array(
            [
                [1.0, 3.0, 3.0],
                [3.0, 1.0, 3.0],
                [3.0, 3.0, 1.0],
                [2.0, 2.0, 2.0],
                [3.0, 3.0, 3.0],  # dominated by [2, 2, 2]
            ]
        )
        assert list(pareto_frontier(costs)) == [0, 1, 2, 3]

    def test_rejects_non_2d(self):
        with pytest.raises(ConfigurationError):
            pareto_frontier(np.array([1.0, 2.0]))


class TestExplore:
    def _profiles(self):
        return [
            WorkloadProfile(
                app="a", dataset="d",
                compute_iterations=50_000, vector_slots=4_000,
                sram_random_updates=30_000, outer_parallelism=32,
                dram_stream_read_bytes=1e6,
            ),
            WorkloadProfile(
                app="b", dataset="e",
                compute_iterations=9_000, vector_slots=700,
                sram_random_updates=5_000, cross_tile_request_fraction=0.5,
                sequential_rounds=4, pipelinable=False, outer_parallelism=8,
            ),
        ]

    def test_explore_with_prebuilt_profiles(self):
        result = explore(profiles=self._profiles(), lanes=(8, 16), banks=(16, 32))
        assert result.cycles.shape == (2, 4)
        assert result.names == ["8-16", "8-32", "16-16", "16-32"]
        assert result.tasks == [("a", "d"), ("b", "e")]
        assert (result.area_mm2 > 0).all()
        assert (result.gmean_cycles > 0).all()
        frontier = result.frontier()
        assert frontier and set(frontier) <= set(result.names)
        # Every frontier point must be non-dominated in (cycles, area).
        costs = np.column_stack([result.gmean_cycles, result.area_mm2])
        for name in frontier:
            i = result.names.index(name)
            dominated = np.any(
                np.all(costs <= costs[i], axis=1) & np.any(costs < costs[i], axis=1)
            )
            assert not dominated

    def test_rows_carry_pareto_flags(self):
        result = explore(profiles=self._profiles(), banks=(16, 32))
        rows = result.rows()
        assert {row["name"] for row in rows} == set(result.names)
        assert {row["name"] for row in rows if row["pareto"]} == set(result.frontier())

    def test_invalid_structural_combo_rejected(self):
        with pytest.raises(ConfigurationError):
            explore(profiles=self._profiles(), lanes=(12,))

    def test_top_rows_streaming_safe_under_memory_budget(self, monkeypatch):
        """``--top`` must work when the per-cell grid was streamed out."""
        kwargs = dict(profiles=self._profiles(), lanes=(8, 16), banks=(16, 32))
        full = explore(**kwargs)
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1024")
        streamed = explore(**kwargs)
        assert streamed.batch is None  # the grid really was streamed out
        with pytest.raises(ConfigurationError):
            _ = streamed.cycles
        top = streamed.top_rows(2)
        assert top == full.top_rows(2)
        assert [r["gmean_cycles"] for r in top] == sorted(
            r["gmean_cycles"] for r in top
        )
        assert len(streamed.top_rows(100)) == 4  # n beyond the grid is fine
        assert streamed.top_rows(2, key="area_mm2") == full.top_rows(2, key="area_mm2")

    def test_top_rows_rejects_unknown_key(self):
        result = explore(profiles=self._profiles(), lanes=(8, 16))
        with pytest.raises(ConfigurationError):
            result.top_rows(1, key="speed")
        with pytest.raises(ConfigurationError):
            result.top_rows(1, key="gmean_energy_mj")  # energy not costed

    def test_explore_energy_objective(self):
        result = explore(
            profiles=self._profiles(), energy=True, lanes=(8, 16), banks=(16, 32)
        )
        assert result.gmean_energy_mj is not None
        assert (result.gmean_energy_mj > 0).all()
        assert all("gmean_energy_mj" in row for row in result.rows())
        energy_frontier = result.frontier(("cycles", "area", "energy"))
        assert set(result.frontier()) <= set(energy_frontier)
        top = result.top_rows(2, key="gmean_energy_mj")
        assert top[0]["gmean_energy_mj"] <= top[1]["gmean_energy_mj"]

    def test_energy_frontier_requires_energy(self):
        result = explore(profiles=self._profiles(), lanes=(8, 16))
        with pytest.raises(ConfigurationError):
            result.frontier(("cycles", "energy"))

    def test_seed_shuffles_order_not_content(self):
        kwargs = dict(profiles=self._profiles(), lanes=(8, 16), banks=(16, 32))
        plain = explore(**kwargs)
        seeded = explore(seed=7, **kwargs)
        again = explore(seed=7, **kwargs)
        assert seeded.names == again.names  # deterministic per seed
        assert seeded.names != plain.names  # but actually shuffled
        assert sorted(seeded.names) == sorted(plain.names)
        # Costs ride with their variants through the shuffle.
        by_name = {r["name"]: r for r in plain.rows()}
        for row in seeded.rows():
            assert row == by_name[row["name"]]


class TestDseCli:
    def test_dse_cli_end_to_end(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_THROUGHPUT_CACHE", str(tmp_path / "throughput"))
        out_json = tmp_path / "dse.json"
        rc = cli_main(
            [
                "dse",
                "--axis", "banks=16,32",
                "--axis", "memory=hbm2e,ddr4",
                "--apps", "spmv-csr",
                "--scale", "1/512",
                "--cache-dir", str(tmp_path / "profiles"),
                "--json", str(out_json),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        payload = json.loads(out_json.read_text())
        assert len(payload["variants"]) == 4
        assert payload["frontier"]
        assert len(payload["cycles"]) == len(payload["tasks"]) == 3

    def test_dse_cli_rejects_unknown_axis(self):
        with pytest.raises(SystemExit):
            cli_main(["dse", "--axis", "nonsense=1,2"])

    def test_dse_cli_rejects_unknown_app(self, capsys):
        assert cli_main(["dse", "--axis", "banks=16", "--apps", "nope"]) == 2

    def test_dse_cli_rejects_misspelled_policy_values(self):
        with pytest.raises(SystemExit):
            cli_main(["dse", "--axis", "allocator=separable,sepparable"])
        with pytest.raises(SystemExit):
            cli_main(["dse", "--axis", "bank_mapping=linearr"])

    def test_dse_cli_rejects_duplicate_axis(self):
        with pytest.raises(SystemExit):
            cli_main(["dse", "--axis", "lanes=8,16", "--axis", "lanes=32"])
