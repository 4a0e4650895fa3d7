"""Adaptive DSE search: spaces, ranking, quality, durability, and the CLI.

Quality is pinned against exhaustive enumeration on a small space: both
strategies must recover >= 95% of the exhaustive frontier's hypervolume
while charging <= 25% of its evaluations (the ISSUE's acceptance bar,
reproduced here at test scale). Durability: a SIGKILLed ``repro-eval dse
--search`` run, re-run with the same command, resumes from the search
store's last committed generation and writes JSON byte-identical to an
uninterrupted run, with an equal evaluation count.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.apps.profile import WorkloadProfile
from repro.apps.timing import platform_throughput_variant
from repro.errors import ConfigurationError
from repro.runtime.cli import main as cli_main
from repro.runtime.dse import explore
from repro.runtime.executors.subprocess import _worker_env
from repro.runtime.jobs import JobSpec, execute_unit
from repro.runtime import search as search_module
from repro.runtime.registry import RunContext
from repro.runtime.runner import ExperimentRunner
from repro.runtime.search import (
    AdaptiveSearch,
    SearchSpace,
    SearchStore,
    SuccessiveHalving,
    hypervolume,
    make_strategy,
    pareto_ranks,
    rank_order,
    scalarize,
)
from repro.runtime.sweep import parse_axis_value

#: A 128-point space covering structural and platform axes; string values
#: exercise the shared sweep parsers.
AXES = {
    "lanes": ["8", "16"],
    "banks": ["16", "32"],
    "queue_depth": ["8", "16", "32", "4"],
    "memory": ["ddr4", "hbm2e"],
    "allocator": ["separable", "greedy"],
    "crossbar_inputs": ["16", "32"],
}


def _profiles():
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
        WorkloadProfile(
            app="c", dataset="f",
            compute_iterations=120_000, scan_cycles=20_000,
            dram_random_updates=8_000, dram_stream_read_bytes=4e6,
            outer_parallelism=16,
        ),
    ]


class TestSearchSpace:
    def test_from_axes_parses_and_dedupes(self):
        space = SearchSpace.from_axes({"lanes": ["8", "16", "8"], "memory": ["hbm2e"]})
        assert [axis for axis, _ in space.axes] == ["lanes", "memory"]
        assert space.size == 2
        assert space.combo_values((1, 0))["lanes"] == 16

    def test_variant_name_matches_sweep_style(self):
        space = SearchSpace.from_axes(AXES)
        assert space.variant_name((0, 1, 0, 1, 0, 1)) == "8-32-8-hbm2e-separable-32"

    def test_platform_is_validated(self):
        space = SearchSpace.from_axes(AXES)
        platform = space.platform((1, 0, 0, 0, 1, 0))
        assert platform.config.lanes == 16
        assert platform.config.spmu.banks == 16
        assert platform.allocator == "greedy"
        with pytest.raises(ConfigurationError):
            SearchSpace.from_axes({"lanes": ["12"]}).platform((0,))

    def test_rejects_illegal_values_at_construction(self):
        # Before any generation runs: a search over this space used to
        # commit generation 0 and only then fail on a lanes=12 proposal.
        with pytest.raises(ConfigurationError, match="lanes must be a power of two"):
            SearchSpace.from_axes(
                {"lanes": [8, 12, 16], "banks": [8, 16, 32], "queue_depth": [4, 8, 16]}
            )
        with pytest.raises(ConfigurationError, match="banks must be a power of two"):
            SearchSpace.from_axes({"lanes": [8], "banks": ["16", "24"]})
        with pytest.raises(ConfigurationError, match="positive integers"):
            SearchSpace.from_axes({"queue_depth": [4, 0]})

    def test_rejects_empty_and_unknown_axes(self):
        with pytest.raises(ConfigurationError):
            SearchSpace.from_axes({})
        with pytest.raises(ConfigurationError):
            SearchSpace.from_axes({"lanes": []})
        with pytest.raises(ConfigurationError):
            SearchSpace.from_axes({"warp": [1, 2]})

    def test_mutate_always_changes_something(self):
        space = SearchSpace.from_axes(AXES)
        rng = np.random.default_rng(0)
        combo = space.default_combo()
        for _ in range(50):
            mutated = space.mutate(combo, rng, rate=0.1)
            assert mutated != combo
            assert all(
                0 <= gene < len(values)
                for gene, (_, values) in zip(mutated, space.axes)
            )

    def test_crossover_genes_come_from_parents(self):
        space = SearchSpace.from_axes(AXES)
        rng = np.random.default_rng(1)
        a = tuple(0 for _ in space.axes)
        b = tuple(len(values) - 1 for _, values in space.axes)
        child = space.crossover(a, b, rng)
        assert all(g in (x, y) for g, x, y in zip(child, a, b))

    def test_seed_combos_start_from_paper_design_point(self):
        space = SearchSpace.from_axes(AXES)
        seeds = space.seed_combos()
        assert seeds[0] == space.default_combo()
        # The paper's 16/16 point is a candidate on both axes, so the
        # default combo picks it rather than the middle fallback.
        values = space.combo_values(seeds[0])
        assert values["lanes"] == 16 and values["banks"] == 16
        assert len(seeds) == len(set(seeds))


class TestRanking:
    def test_scalarize_is_zero_at_the_per_objective_best(self):
        costs = np.array([[1.0, 1.0], [2.0, 2.0]])
        scores = scalarize(costs)
        assert scores[0] == 0.0
        assert scores[1] == pytest.approx(np.log(2.0))

    def test_scalarize_rejects_bad_weights(self):
        costs = np.array([[1.0, 2.0]])
        with pytest.raises(ConfigurationError):
            scalarize(costs, weights=[1.0])
        with pytest.raises(ConfigurationError):
            scalarize(costs, weights=[-1.0, 1.0])
        with pytest.raises(ConfigurationError):
            scalarize(np.array([1.0, 2.0]))

    def test_pareto_ranks_peel_layers(self):
        costs = np.array([[1.0, 5.0], [2.0, 2.0], [5.0, 1.0], [3.0, 3.0], [6.0, 6.0]])
        assert list(pareto_ranks(costs)) == [0, 0, 0, 1, 2]

    def test_rank_order_prefers_frontier_then_scalar(self):
        costs = np.array([[3.0, 3.0], [1.0, 1.0], [10.0, 10.0]])
        assert list(rank_order(costs)) == [1, 0, 2]


class TestHypervolume:
    def test_single_point_box(self):
        assert hypervolume(np.array([[1.0, 1.0]]), (2.0, 2.0)) == pytest.approx(1.0)

    def test_two_point_staircase(self):
        costs = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert hypervolume(costs, (3.0, 3.0)) == pytest.approx(3.0)

    def test_duplicates_and_dominated_points_add_nothing(self):
        base = np.array([[1.0, 2.0], [2.0, 1.0]])
        noisy = np.vstack([base, base, [[2.5, 2.5]]])
        assert hypervolume(noisy, (3.0, 3.0)) == pytest.approx(3.0)

    def test_points_beyond_reference_contribute_zero(self):
        assert hypervolume(np.array([[4.0, 4.0]]), (3.0, 3.0)) == 0.0

    def test_three_objectives_inclusion_exclusion(self):
        # Boxes 2x1x1 and 1x2x2 overlapping in 1x1x1: 2 + 4 - 1 = 5.
        costs = np.array([[1.0, 2.0, 2.0], [2.0, 1.0, 1.0]])
        assert hypervolume(costs, (3.0, 3.0, 3.0)) == pytest.approx(5.0)

    def test_rejects_mismatched_reference(self):
        with pytest.raises(ConfigurationError):
            hypervolume(np.array([[1.0, 1.0]]), (2.0,))


class TestSearchQuality:
    """Both strategies against the exhaustive frontier, at test scale."""

    def _exhaustive(self):
        axes = {
            axis: [SearchSpace.from_axes({axis: values}).axes[0][1][i]
                   for i in range(len(values))]
            for axis, values in AXES.items()
        }
        result = explore(profiles=_profiles(), energy=True, **axes)
        return np.column_stack(
            [result.gmean_cycles, result.area_mm2, result.gmean_energy_mj]
        )

    @pytest.mark.parametrize(
        "strategy",
        [
            make_strategy("halving", population=48, generations=3, eta=4),
            make_strategy("evolve", population=8, generations=4),
        ],
        ids=["halving", "evolve"],
    )
    def test_recovers_frontier_within_budget(self, strategy):
        space = SearchSpace.from_axes(AXES)
        exhaustive = self._exhaustive()
        reference = exhaustive.max(axis=0) * 1.1
        best = hypervolume(exhaustive, reference)

        engine = AdaptiveSearch(space, strategy, _profiles(), seed=3)
        result = engine.run()
        assert result.evaluations <= 0.25 * space.size
        assert result.hypervolume(reference) >= 0.95 * best
        assert result.frontier()

    def test_same_seed_is_byte_identical(self):
        space = SearchSpace.from_axes(AXES)
        runs = [
            AdaptiveSearch(
                space, make_strategy("evolve", population=6, generations=3),
                _profiles(), seed=11,
            ).run()
            for _ in range(2)
        ]
        a, b = (json.dumps(r.to_dict(), sort_keys=True) for r in runs)
        assert a == b

    def test_different_seeds_diverge(self):
        space = SearchSpace.from_axes(AXES)
        explored = [
            set(
                AdaptiveSearch(
                    space, make_strategy("evolve", population=6, generations=3),
                    _profiles(), seed=seed,
                ).run().names
            )
            for seed in (0, 1)
        ]
        assert explored[0] != explored[1]

    def test_engine_takes_no_base_key_or_budget(self):
        # A search is named by its parameters and costed under
        # REPRO_MEMORY_BUDGET; there is no other way to set either.
        space = SearchSpace.from_axes(AXES)
        for knob in ("base", "key", "memory_budget"):
            with pytest.raises(TypeError, match=knob):
                AdaptiveSearch(space, make_strategy("evolve"), _profiles(), **{knob: None})

    def test_objectives_validated(self):
        space = SearchSpace.from_axes(AXES)
        with pytest.raises(ConfigurationError):
            AdaptiveSearch(
                space, make_strategy("evolve"), _profiles(), objectives=("watts",)
            )
        with pytest.raises(ConfigurationError):
            AdaptiveSearch(space, make_strategy("evolve"), [])


class TestStoreResume:
    def _params(self):
        return dict(population=6, generations=4)

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        space = SearchSpace.from_axes(AXES)
        reference = AdaptiveSearch(
            space, make_strategy("evolve", **self._params()), _profiles(), seed=2
        ).run()

        store = SearchStore(tmp_path / "search")
        first = AdaptiveSearch(
            space, make_strategy("evolve", **self._params()), _profiles(),
            seed=2, store=store,
        )
        first.step()
        first.step()
        # States are numbered by generations completed: 1 and 2 committed.
        assert store.committed_generations(first.key) == [1, 2]

        resumed = AdaptiveSearch(
            space, make_strategy("evolve", **self._params()), _profiles(),
            seed=2, store=store,
        )
        assert resumed.generation == 2  # picked up mid-search
        evaluations_at_resume = resumed.evaluations
        result = resumed.run()
        assert resumed.evaluations > evaluations_at_resume
        assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
            reference.to_dict(), sort_keys=True
        )
        assert result.evaluations == reference.evaluations

        latest = store.load_latest_result()
        assert latest is not None and latest["search_key"] == first.key
        assert latest["frontier"] == list(result.frontier())

    def test_code_or_parameter_change_starts_fresh(self, tmp_path):
        space = SearchSpace.from_axes(AXES)
        store = SearchStore(tmp_path / "search")
        engine = AdaptiveSearch(
            space, make_strategy("evolve", **self._params()), _profiles(),
            seed=2, store=store,
        )
        engine.step()
        other_seed = AdaptiveSearch(
            space, make_strategy("evolve", **self._params()), _profiles(),
            seed=3, store=store,
        )
        assert other_seed.key != engine.key
        assert other_seed.generation == 0


@pytest.fixture
def isolated_caches(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE_CACHE", str(tmp_path / "profiles"))
    monkeypatch.setenv("REPRO_THROUGHPUT_CACHE", str(tmp_path / "throughput"))
    monkeypatch.setenv("REPRO_SEARCH_STORE", str(tmp_path / "search-default"))
    return tmp_path


class TestSearchCli:
    def test_search_cli_same_seed_byte_identical(self, isolated_caches, tmp_path):
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = cli_main(
                [
                    "dse",
                    "--axis", "lanes=8,16",
                    "--axis", "banks=16,32",
                    "--axis", "memory=ddr4,hbm2e",
                    "--apps", "spmv-csr",
                    "--scale", "1/512",
                    "--search", "evolve",
                    "--population", "4",
                    "--generations", "2",
                    "--seed", "9",
                    "--search-store", "none",
                    "--json", str(out),
                ]
            )
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["strategy"] == "evolve"
        assert payload["seed"] == 9
        assert payload["frontier"]
        assert payload["objectives"] == ["cycles", "area", "energy"]

    def test_illegal_axis_value_exits_before_any_state(
        self, isolated_caches, tmp_path, capsys
    ):
        out = tmp_path / "out.json"
        rc = cli_main(
            [
                "dse",
                "--apps", "spmv-csr",
                "--scale", "1/512",
                "--search", "evolve",
                "--population", "4",
                "--seed", "0",
                "--axis", "lanes=8,12,16",
                "--json", str(out),
            ]
        )
        assert rc == 1
        assert "lanes must be a power of two" in capsys.readouterr().err
        assert not out.exists()
        assert not (isolated_caches / "search-default").exists()
        assert not (isolated_caches / "profiles").exists()

    def test_sigkill_mid_search_then_rerun_resumes(self, isolated_caches, tmp_path):
        """A search killed after its first commit, re-run with the same
        command, resumes from the store and writes the uninterrupted JSON."""
        store = tmp_path / "search"
        search = ["--apps", "spmv-csr", "--scale", "1/512", "--search", "evolve"]
        generations = 8
        search += ["--population", "8", "--generations", str(generations), "--seed", "5"]

        def command(store_arg, out):
            return [sys.executable, "-m", "repro.runtime.cli", "dse", *search,
                    "--search-store", str(store_arg), "--json", str(out)]

        proc = subprocess.Popen(
            command(store, tmp_path / "killed.json"), env=_worker_env(),
            stdout=subprocess.DEVNULL,
        )
        try:
            deadline = time.perf_counter() + 120.0
            while not list(store.glob("*/gen-*.json")):
                assert proc.poll() is None, "the search exited before it was killed"
                assert time.perf_counter() < deadline, "no generation was committed"
                time.sleep(0.01)
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=10)
        assert proc.returncode == -signal.SIGKILL
        assert not (tmp_path / "killed.json").exists()

        [search_dir] = store.iterdir()
        committed = SearchStore(store).committed_generations(search_dir.name)
        assert committed == list(range(1, len(committed) + 1))
        assert len(committed) < generations
        before = {path: path.stat() for path in search_dir.glob("gen-*.json")}

        for name, store_arg in {"resumed": store, "reference": "none"}.items():
            subprocess.run(
                command(store_arg, tmp_path / f"{name}.json"), env=_worker_env(),
                stdout=subprocess.DEVNULL, check=True,
            )
        resumed = (tmp_path / "resumed.json").read_bytes()
        assert resumed == (tmp_path / "reference.json").read_bytes()
        reference = json.loads(resumed)
        assert reference["generations"] == generations
        # The rerun wrote no committed generation again: a rewrite replaces
        # the file (temp file, then rename) and so changes its inode.
        for path, stat in before.items():
            after = path.stat()
            assert (after.st_ino, after.st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)
        assert SearchStore(store).committed_generations(search_dir.name) == list(
            range(1, generations + 1)
        )
        persisted = SearchStore(store).load_result(search_dir.name)
        assert persisted["evaluations"] == reference["evaluations"]

    def test_memory_budget_streams_the_costing_and_keeps_the_bytes(
        self, isolated_caches, tmp_path, monkeypatch
    ):
        from repro.runtime import dse as dse_module

        # Registered with monkeypatch, so the value the CLI exports is undone.
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "")
        chunks = []
        original = dse_module.iter_cycles_batches

        def counting(*args, **kwargs):
            batches = list(original(*args, **kwargs))
            chunks.append(len(batches))
            return iter(batches)

        monkeypatch.setattr(dse_module, "iter_cycles_batches", counting)
        outputs = []
        for budget in ([], ["--memory-budget", "4K"]):
            chunks.clear()
            out = tmp_path / f"search-{len(budget)}.json"
            rc = cli_main(
                ["dse", "--apps", "spmv-csr,bfs", "--scale", "1/512", "--search", "evolve"]
                + ["--population", "8", "--generations", "3", "--seed", "5"]
                + ["--search-store", "none", "--json", str(out), *budget]
            )
            assert rc == 0
            outputs.append((out.read_bytes(), max(chunks)))
        (unbudgeted, whole), (budgeted, streamed) = outputs
        assert whole == 1 and streamed > 1
        assert budgeted == unbudgeted

    def test_search_flags_require_search(self):
        with pytest.raises(SystemExit):
            cli_main(["dse", "--population", "8"])
        with pytest.raises(SystemExit):
            cli_main(["dse", "--search", "evolve", "--prefill"])
        with pytest.raises(SystemExit):
            cli_main(["dse", "--objective", "cycles,watts"])

    @pytest.mark.parametrize("flag", [["--top", "1"], ["--pareto-only"]])
    def test_search_rejects_ranking_flags(self, flag, capsys):
        # The search prints its whole frontier; a ranking flag it cannot
        # honour is a usage error, not silently ignored.
        with pytest.raises(SystemExit) as exit_info:
            cli_main(
                ["dse", "--search", "evolve", "--population", "4", "--generations", "2"]
                + ["--apps", "bfs", "--scale", "1/256", "--search-store", "none"]
                + flag
            )
        assert exit_info.value.code == 2
        assert "--top/--pareto-only only apply to exhaustive enumeration" in (
            capsys.readouterr().err
        )


class TestOneCostingCore:
    """explore, the search engine and dse_chunk units cost through one core."""

    AXES = {"lanes": [8, 16], "banks": [16, 32], "memory": ["ddr4", "hbm2e"]}
    APPS = ["spmv-csr", "bfs"]

    def test_every_caller_costs_each_variant_bit_equal(self, isolated_caches):
        context = RunContext(scale=1 / 512)
        parsed = {
            axis: [parse_axis_value(axis, value) for value in values]
            for axis, values in self.AXES.items()
        }
        exhaustive = {
            row["name"]: (row["gmean_cycles"], row["area_mm2"], row["gmean_energy_mj"])
            for row in explore(apps=self.APPS, context=context, energy=True, **parsed).rows()
        }
        assert len(exhaustive) == 8

        profiles = ExperimentRunner(context=context, workers=1).run(apps=self.APPS).profiles()
        space = SearchSpace.from_axes(self.AXES)
        searched = AdaptiveSearch(
            space, make_strategy("evolve", population=8, generations=1), profiles, seed=0
        ).run()
        assert sorted(searched.names) == sorted(exhaustive)
        for name, costs in zip(searched.names, searched.costs):
            assert tuple(float(c) for c in costs) == exhaustive[name]

        chunked = {}
        for unit in JobSpec.dse_grid(self.AXES, apps=self.APPS, context=context, max_chunk=3).units:
            result = execute_unit(unit.payload)
            chunked.update(zip(result["names"], zip(result["gmean_cycles"], result["area_mm2"])))
        # dse_chunk units report cycles and area only.
        assert chunked == {name: costs[:2] for name, costs in exhaustive.items()}


class TestProjectionPrefill:
    """A fresh search over a space with few SpMU projections simulates them
    all in one batch before generation 0; any other search does not."""

    #: 24 points but only 4 SpMU projections (lanes x banks).
    SMALL_AXES = {
        "lanes": [8, 16],
        "banks": [16, 32],
        "compute_units": [64, 144, 256],
        "memory": ["ddr4", "hbm2e"],
    }

    @pytest.fixture
    def simulated(self, isolated_store, monkeypatch):
        """Every lock-step batch: its variants and the memory budget it runs under."""
        from repro._budget import resolve_memory_budget
        from repro.core import spmu as spmu_module

        calls = []
        original = spmu_module.simulate_variants

        def recording(variants, *args, **kwargs):
            calls.append((list(variants), resolve_memory_budget(kwargs.get("memory_budget"))))
            return original(variants, *args, **kwargs)

        monkeypatch.setattr(spmu_module, "simulate_variants", recording)
        return calls

    @staticmethod
    def _projections(space):
        from repro.apps.timing import platform_throughput_variant
        from repro.runtime.sweep import sweep

        return {platform_throughput_variant(p) for p in sweep(**dict(space.axes)).values()}

    def test_fresh_small_space_simulates_every_projection_up_front(
        self, simulated, monkeypatch
    ):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", str(1 << 20))
        space = SearchSpace.from_axes(self.SMALL_AXES)
        engine = AdaptiveSearch(
            space, make_strategy("evolve", population=4, generations=3), _profiles(), seed=1
        )
        engine.step()
        assert len(simulated) == 1
        variants, budget = simulated[0]
        assert set(variants) == self._projections(space)
        assert len(variants) == 4
        assert budget == 1 << 20
        engine.run()
        assert len(simulated) == 1

    def test_up_front_batch_costs_the_same_bits(self, isolated_store, monkeypatch):
        space = SearchSpace.from_axes(self.SMALL_AXES)

        def search():
            from repro.core import spmu as spmu_module

            monkeypatch.setattr(spmu_module, "_THROUGHPUT_CACHE", {})
            result = AdaptiveSearch(
                space, make_strategy("evolve", population=4, generations=3), _profiles(),
                seed=1,
            ).run()
            return json.dumps(result.to_dict(), sort_keys=True)

        monkeypatch.setenv("REPRO_THROUGHPUT_CACHE_DISABLE", "1")
        prefilled = search()
        monkeypatch.setattr(AdaptiveSearch, "_prefill_projections", lambda self, width: None)
        assert search() == prefilled

    def test_space_over_the_budget_gets_no_up_front_batch(self, simulated, monkeypatch):
        enumerated = []
        monkeypatch.setattr(
            search_module, "spmu_projection_sweep", lambda *args: enumerated.append(args)
        )
        # 64 projections against a budget of 4 x 2 evaluations.
        space = SearchSpace.from_axes(AXES)
        AdaptiveSearch(
            space, make_strategy("evolve", population=4, generations=2), _profiles(), seed=1
        ).run()
        assert enumerated == []
        assert simulated and all(len(variants) <= 4 for variants, _ in simulated)

    #: 48 SpMU projections.
    HALVING_AXES = {
        "lanes": [8, 16],
        "banks": [8, 16, 32],
        "queue_depth": [4, 8, 16, 32],
        "bank_mapping": ["hash", "linear"],
    }

    def test_halving_is_budgeted_by_its_first_rung(self, simulated, monkeypatch):
        # Halving proposes new points only in rung 0, so 16 x 3 is a budget
        # of 16 projections, not 48: the search simulates the 16 it costs.
        from repro.core import spmu as spmu_module

        space = SearchSpace.from_axes(self.HALVING_AXES)

        def search():
            monkeypatch.setattr(spmu_module, "_THROUGHPUT_CACHE", {})
            result = AdaptiveSearch(
                space, make_strategy("halving", population=16, generations=3), _profiles(),
                seed=1,
            ).run()
            return json.dumps(result.to_dict(), sort_keys=True)

        monkeypatch.setenv("REPRO_THROUGHPUT_CACHE_DISABLE", "1")
        budgeted = search()
        assert [len(variants) for variants, _ in simulated] == [16]
        simulated.clear()
        monkeypatch.setattr(SuccessiveHalving, "fresh_generations", lambda self: 3)
        assert search() == budgeted
        assert [len(variants) for variants, _ in simulated] == [48]

    @pytest.mark.parametrize("name", ("halving", "evolve"))
    def test_fresh_generations_bound_the_new_points(self, name, isolated_store, monkeypatch):
        # The prefill budget's premise: new points appear only in the first
        # fresh_generations() generations, each with at most as many as the first.
        strategy = make_strategy(name, population=8, generations=3)
        propose = strategy.propose
        seen, fresh = set(), []

        def recording(generation, rng, engine):
            proposal = propose(generation, rng, engine)
            new = set(proposal.combos) - seen
            seen.update(new)
            fresh.append(len(new))
            return proposal

        monkeypatch.setattr(strategy, "propose", recording)
        AdaptiveSearch(SearchSpace.from_axes(AXES), strategy, _profiles(), seed=1).run()
        assert len(fresh) == strategy.total_generations()
        assert fresh[0] > 0 and max(fresh) == fresh[0]
        assert sum(1 for count in fresh if count) <= strategy.fresh_generations()
        if name == "halving":
            assert strategy.fresh_generations() == 1

    def test_evolve_on_the_dse_grid_prefills_every_projection(self, monkeypatch):
        # The 2,048-variant grid of the ``dse`` benchmark has 128 projections,
        # within evolve 48 x 8's budget of 384 new points.
        axes = {
            "lanes": [8, 16],
            "banks": [16, 32],
            "queue_depth": [8, 16],
            "crossbar_inputs": [16, 32],
            "compute_units": [64, 100, 144, 196, 256, 324, 400, 484],
            "bank_mapping": ["hash", "linear"],
            "allocator": ["separable", "greedy"],
            "ordering": ["unordered", "address-ordered"],
            "memory": ["hbm2e", "ddr4"],
        }
        prefilled = []
        monkeypatch.setattr(
            search_module,
            "prefill_throughputs",
            lambda platforms, **kwargs: prefilled.append(list(platforms)),
        )
        space = SearchSpace.from_axes(axes)
        assert space.size == 2048
        AdaptiveSearch(
            space, make_strategy("evolve", population=48, generations=8), _profiles(), seed=1
        )._prefill_projections(48)
        [platforms] = prefilled
        assert len({platform_throughput_variant(p) for p in platforms}) == 128

    def test_resumed_search_gets_no_up_front_batch(self, simulated, tmp_path, monkeypatch):
        from repro.core import spmu as spmu_module

        space = SearchSpace.from_axes(self.SMALL_AXES)
        store = SearchStore(tmp_path / "search")
        params = dict(population=4, generations=3)
        AdaptiveSearch(
            space, make_strategy("evolve", **params), _profiles(), seed=1, store=store
        ).step()
        assert len(simulated) == 1
        monkeypatch.setattr(spmu_module, "_THROUGHPUT_CACHE", {})
        monkeypatch.setenv("REPRO_THROUGHPUT_CACHE_DISABLE", "1")
        enumerated = []
        monkeypatch.setattr(
            search_module, "spmu_projection_sweep", lambda *args: enumerated.append(args)
        )
        resumed = AdaptiveSearch(
            space, make_strategy("evolve", **params), _profiles(), seed=1, store=store
        )
        assert resumed.generation == 1
        resumed.run()
        assert enumerated == []
