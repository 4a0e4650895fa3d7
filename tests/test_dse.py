"""Tests for the DSE subsystem and the persistent throughput store."""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps.profile import WorkloadProfile
from repro.apps.timing import PLATFORM_ALLOCATORS, CapstanPlatform, platform_throughput_variant
from repro.config import MemoryTechnology, ShuffleMode, SpMUConfig
from repro.core.bank_hash import BANK_MAPPINGS
from repro.core import spmu as spmu_module
from repro.core.ordering import OrderingMode
from repro.core.spmu import SpMUVariant
from repro.errors import ConfigurationError
from repro.runtime import cache as cache_module
from repro.runtime import dse as dse_module
from repro.runtime import search as search_module
from repro.runtime.cache import ThroughputStore, throughput_store_enabled
from repro.runtime.cli import main as cli_main
from repro.runtime.dse import explore, pareto_frontier
from repro.runtime.search import DEFAULT_SEARCH_AXES, pareto_ranks, rank_order
from repro.runtime.sweep import (
    KNOWN_AXES,
    SPMU_AXES,
    axis_value,
    build_variant,
    parse_axis_value,
    spmu_projection_bound,
    spmu_projection_sweep,
    sweep,
)


class TestThroughputStore:
    def test_roundtrip(self, tmp_path):
        store = ThroughputStore(root=tmp_path)
        key = store.key(SpMUVariant())
        assert store.load(key) is None
        store.store(key, 12.625)
        assert store.load(key) == 12.625
        assert len(store) == 1

    def test_key_changes_with_configuration_and_code(self, tmp_path, monkeypatch):
        store = ThroughputStore(root=tmp_path)
        variant = SpMUVariant()
        base = store.key(variant)
        for changed in (
            replace(variant, bank_mapping="linear"),
            replace(variant, allocator_kind="greedy"),
            replace(variant, lanes=32),
            replace(variant, config=SpMUConfig(banks=32)),
            replace(variant, ordering=OrderingMode.ARBITRATED),
            replace(variant, pipeline_latency=4),
        ):
            assert store.key(changed) != base
        # The random trace is part of the measurement: Table 4 measures
        # SpMUConfig() at 160 vectors, timing calibration at 120.
        assert store.key(variant, vectors=160) != base
        assert store.key(variant, vectors=120) == base
        assert store.key(variant, fingerprint="deadbeef") != base
        assert store.key(SpMUVariant()) == base
        monkeypatch.setattr(cache_module, "THROUGHPUT_SEED", 8)
        assert store.key(variant) != base

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
        original = spmu_module.simulate_variants

        def counting(variants, *args, **kwargs):
            calls.append(len(variants))
            return original(variants, *args, **kwargs)

        monkeypatch.setattr(spmu_module, "simulate_variants", counting)
        variant = SpMUVariant(config=SpMUConfig(banks=8, words_per_bank=512), lanes=8)
        [first] = spmu_module.effective_bank_throughput_batch([variant])
        assert calls == [1]
        # Simulate a fresh process: the in-process memo is gone, but the
        # persisted measurement is served without re-simulating.
        spmu_module._THROUGHPUT_CACHE.clear()
        [second] = spmu_module.effective_bank_throughput_batch([variant])
        assert calls == [1]
        assert second == first
        assert len(isolated_store) == 1

    def test_kill_switch_disables_persistence(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_THROUGHPUT_CACHE", str(tmp_path / "throughput"))
        monkeypatch.setenv("REPRO_THROUGHPUT_CACHE_DISABLE", "1")
        monkeypatch.setattr(spmu_module, "_THROUGHPUT_CACHE", {})
        assert not throughput_store_enabled()
        spmu_module.effective_bank_throughput_batch(
            [SpMUVariant(config=SpMUConfig(banks=8, words_per_bank=512), lanes=8)]
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

    @pytest.mark.parametrize(
        "base, axes",
        [
            # The perfbench ``dse`` grid's shape: 2,048 variants.
            (
                None,
                {
                    "lanes": ("8", "16"),
                    "banks": ("16", "32"),
                    "queue_depth": ("8", "16"),
                    "crossbar_inputs": ("16", "32"),
                    "compute_units": ("64", "100", "144", "196", "256", "324", "400", "484"),
                    "bank_mapping": ("hash", "linear"),
                    "allocator": ("separable", "greedy"),
                    "ordering": ("unordered", "address-ordered"),
                    "memory": ("hbm2e", "ddr4"),
                },
            ),
            # Both extremes of every search axis plus shuffle and
            # ideal_sram, over a base that differs from the default.
            (
                CapstanPlatform(ideal_network=True, allocator="greedy"),
                {
                    **{axis: (vs[0], vs[-1]) for axis, vs in DEFAULT_SEARCH_AXES.items()},
                    "shuffle": ("none", "mrg-16"),
                    "ideal_sram": ("true", "false"),
                },
            ),
        ],
        ids=["dse-grid", "every-axis"],
    )
    def test_sweep_equals_the_per_axis_fold(self, base, axes):
        native = {axis: [parse_axis_value(axis, v) for v in vs] for axis, vs in axes.items()}
        variants = sweep(base, **native)
        keys = list(native)
        combos = itertools.product(*(native[k] for k in keys))
        assert len(variants) == math.prod(len(v) for v in native.values())
        for (name, platform), values in zip(variants.items(), combos):
            assert platform == _fold_build(base, dict(zip(keys, values)), name)


def _fold_build(base, combo, name):
    """The oracle :func:`build_variant` is pinned against: one ``replace``
    per axis per level, then the name, then one validation."""
    platform = base if base is not None else CapstanPlatform()
    for axis, value in combo.items():
        if axis in ("ordering", "bank_mapping", "allocator", "ideal_sram"):
            platform = replace(platform, **{axis: value})
            continue
        config = platform.config
        if axis == "memory":
            config = replace(config, memory=value)
        elif axis == "shuffle":
            config = replace(config, shuffle=replace(config.shuffle, mode=value))
        elif axis in ("lanes", "compute_units"):
            config = replace(config, **{axis: value})
        else:
            config = replace(config, spmu=replace(config.spmu, **{axis: value}))
        platform = replace(platform, config=config)
    platform = replace(platform, name=name)
    platform.config.validate()
    return platform


#: Legal values of every sweep axis, for probing what each one moves.
_AXIS_PROBES = {
    "ordering": tuple(OrderingMode),
    "bank_mapping": BANK_MAPPINGS,
    "allocator": PLATFORM_ALLOCATORS,
    "ideal_sram": (True, False),
    "memory": tuple(MemoryTechnology),
    "shuffle": tuple(ShuffleMode),
    "lanes": (4, 8, 32),
    "compute_units": (64, 484),
    "banks": (8, 64),
    "queue_depth": (4, 32),
    "crossbar_inputs": (8, 64),
}


def _projection(platform):
    return platform_throughput_variant(platform), platform.ideal_sram


class TestSpmuAxes:
    """``SPMU_AXES`` is exactly the set of axes that move a platform's SpMU
    projection or its ideal-SRAM filter, so the search's up-front batch
    (every projection of the SpMU sub-space) misses none."""

    def test_every_axis_is_probed(self):
        assert set(_AXIS_PROBES) == set(KNOWN_AXES)
        assert set(SPMU_AXES) <= set(KNOWN_AXES)

    @pytest.mark.parametrize("axis", KNOWN_AXES)
    def test_only_spmu_axes_move_the_projection(self, axis):
        default = _projection(CapstanPlatform())
        moved = [
            _projection(build_variant(None, {axis: value}, "probe")) != default
            for value in _AXIS_PROBES[axis]
        ]
        assert any(moved) == (axis in SPMU_AXES)

    def test_projection_sweep_covers_the_full_sweep(self):
        axes = {
            "lanes": (8, 16),
            "compute_units": (64, 144, 256),
            "memory": (MemoryTechnology.DDR4, MemoryTechnology.HBM2E),
            "allocator": PLATFORM_ALLOCATORS,
            "ideal_sram": (False, True),
        }
        projections = spmu_projection_sweep(axes)
        assert len(projections) == spmu_projection_bound(axes) == 12
        assert {_projection(p) for p in projections.values()} == {
            _projection(p) for p in sweep(**axes).values()
        }

    def test_projection_sweep_checks_every_value(self):
        # compute_units is not enumerated past its first value, but an
        # illegal later value still fails as it does in the full sweep.
        with pytest.raises(ConfigurationError, match="positive integers"):
            spmu_projection_sweep({"lanes": (8,), "compute_units": (64, 0)})
        with pytest.raises(ConfigurationError, match="lanes must be a power of two"):
            spmu_projection_sweep({"lanes": (8, 12), "compute_units": (64,)})

    def test_cli_prefill_builds_only_the_projection_sweep(
        self, isolated_store, monkeypatch, capsys
    ):
        # ``repro.runtime.sweep`` the attribute is the re-exported function.
        sweep_module = importlib.import_module("repro.runtime.sweep")
        built = []
        original = sweep_module.build_variant

        def counting(base, combo, name):
            built.append(name)
            return original(base, combo, name)

        monkeypatch.setattr(sweep_module, "build_variant", counting)
        rc = cli_main(
            [
                "dse",
                "--axis", "lanes=8",
                "--axis", "compute_units=64,100,144,196",
                "--axis", "queue_depth=4,8",
                "--prefill-only",
            ]
        )
        assert rc == 0
        assert "prefilled SpMU throughputs for 2 distinct variants" in capsys.readouterr().out
        assert len(built) == 2
        assert len(isolated_store) == 2


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

    def test_no_objectives_keeps_every_point(self):
        assert list(pareto_frontier(np.zeros((3, 0)))) == [0, 1, 2]


def _pareto_frontier_loop(costs):
    """The original per-point frontier loop, kept as the sweep's oracle."""
    costs = np.asarray(costs, dtype=np.float64)
    keep = np.ones(costs.shape[0], dtype=bool)
    for i in range(costs.shape[0]):
        dominators = np.all(costs <= costs[i], axis=1) & np.any(costs < costs[i], axis=1)
        if np.any(dominators):
            keep[i] = False
    return np.nonzero(keep)[0]


#: Few distinct values, so ties and duplicated points are common.
_COST_VALUES = st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 1.0, 2.0, np.inf])
_COSTS = st.integers(1, 3).flatmap(
    lambda d: arrays(np.float64, st.tuples(st.integers(0, 40), st.just(d)), elements=_COST_VALUES)
)


class TestParetoSweepMatchesLoop:
    """The lexsort-then-sweep frontier is index-for-index the original loop."""

    @settings(max_examples=200, deadline=None)
    @given(costs=_COSTS, block=st.sampled_from([1, 2, 3, 64]))
    def test_frontier(self, costs, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dse_module, "_PARETO_BLOCK_ROWS", block)
            swept = pareto_frontier(costs)
        assert swept.tolist() == _pareto_frontier_loop(costs).tolist()

    @settings(max_examples=100, deadline=None)
    @given(costs=_COSTS)
    def test_ranks_and_rank_order(self, costs):
        with np.errstate(all="ignore"):  # infinite costs scalarize to nan
            ranks, order = pareto_ranks(costs), rank_order(costs)
        with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
            patch.setattr(search_module, "pareto_frontier", _pareto_frontier_loop)
            assert ranks.tolist() == pareto_ranks(costs).tolist()
            assert order.tolist() == rank_order(costs).tolist()

    def test_large_grid_with_nan(self):
        rng = np.random.default_rng(5)
        costs = rng.integers(0, 12, size=(1500, 3)).astype(np.float64)
        costs[rng.integers(0, 1500, size=20), rng.integers(0, 3, size=20)] = np.nan
        assert pareto_frontier(costs).tolist() == _pareto_frontier_loop(costs).tolist()


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


#: ``repro-eval dse`` over a small grid holding hash-mapped 32-bank variants.
DSE_GOLDEN_ARGS = [
    "dse", "--scale", "1/256", "--apps", "spmv-csr,bfs,spmspm",
    "--axis", "lanes=8,16,32", "--axis", "banks=8,16,32", "--axis", "queue_depth=8,16",
]

#: sha256 of the ``--json`` file of DSE_GOLDEN_ARGS per search mode (mode, extra args,
#: digest). A change that moves DSE output on purpose re-records these from the
#: printed hashes and names the move in CHANGES.md.
DSE_GOLDENS = [
    ("exhaustive", [], "f91eb7e866dbf44660c6254e67f80860e51fa065762b66476fafd4ef04fc7ba6"),
    (
        "evolve",
        ["--search", "evolve", "--population", "8", "--generations", "3", "--seed", "0"],
        "75c3b55335137667739963a093dc1114615caacab4bc9d618927f50bba53398b",
    ),
    (
        "halving",
        ["--search", "halving", "--population", "16", "--seed", "0"],
        "34c30cbeff35f4d7673a4ecac22f3c31c6c0ee4724acaff172b918d77412cb42",
    ),
]


class TestDseCli:
    @pytest.mark.parametrize("mode, extra, golden", DSE_GOLDENS, ids=[g[0] for g in DSE_GOLDENS])
    def test_dse_json_matches_golden(self, mode, extra, golden, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SEARCH_STORE", str(tmp_path / "search"))
        out_json = tmp_path / "dse.json"
        assert cli_main(DSE_GOLDEN_ARGS + extra + ["--json", str(out_json)]) == 0
        digest = hashlib.sha256(out_json.read_bytes()).hexdigest()
        assert digest == golden, f"dse {mode} JSON moved; new sha256: {digest}"

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
