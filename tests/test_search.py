"""Adaptive DSE search: spaces, ranking, quality, durability, and the CLI.

Quality is pinned against exhaustive enumeration on a small space: both
strategies must recover >= 95% of the exhaustive frontier's hypervolume
while charging <= 25% of its evaluations (the ISSUE's acceptance bar,
reproduced here at test scale). Durability mirrors the job layer's
SIGKILL discipline: a killed ``dse_search`` job resumes from the last
committed generation and finishes byte-identical to an uninterrupted
run, with an equal evaluation count.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.apps.profile import WorkloadProfile
from repro.errors import ConfigurationError
from repro.runtime.cli import main as cli_main
from repro.runtime.dse import explore
from repro.runtime.executors import LocalExecutor
from repro.runtime.executors.subprocess import _worker_env
from repro.runtime.jobs import UNIT_DONE, JobSpec, JobStore, execute_unit
from repro.runtime.registry import RunContext
from repro.runtime.runner import ExperimentRunner
from repro.runtime.search import (
    OBJECTIVES,
    AdaptiveSearch,
    SearchSpace,
    SearchStore,
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
        assert space.names == ["lanes", "memory"]
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


class TestDseSearchJob:
    SMALL_AXES = {
        "lanes": [8, 16],
        "banks": [16, 32],
        "memory": ["ddr4", "hbm2e"],
    }

    def _spec(self, store_root, generations=3):
        return JobSpec.dse_search(
            self.SMALL_AXES,
            strategy="evolve",
            params={"population": 4, "generations": generations},
            seed=5,
            apps=["spmv-csr"],
            context=RunContext(scale=1 / 512),
            store_root=store_root,
        )

    def test_payload_axes_are_the_parsed_space(self, tmp_path):
        spec = self._spec(tmp_path / "search", generations=1)
        payload = spec.units[0].payload
        # Unchanged unit material for inputs without duplicate values.
        assert payload["axes"] == [[axis, values] for axis, values in self.SMALL_AXES.items()]
        assert payload["objectives"] == list(OBJECTIVES)
        deduped = JobSpec.dse_search({"lanes": ["8", 16, "8"]}, params={"generations": 1})
        assert deduped.units[0].payload["axes"] == [["lanes", [8, 16]]]

    def test_illegal_axis_value_fails_at_submit(self, tmp_path):
        with JobStore(tmp_path / "runs.sqlite") as store:
            with pytest.raises(ConfigurationError, match="lanes must be a power of two"):
                store.submit(
                    JobSpec.dse_search(
                        {"lanes": [8, 12, 16]},
                        params={"population": 4, "generations": 2},
                        store_root=tmp_path / "search",
                    )
                )
            assert store.jobs() == []
        assert not (tmp_path / "search").exists()

    def test_one_unit_per_generation(self, tmp_path):
        spec = self._spec(tmp_path / "search", generations=3)
        assert len(spec.units) == 3
        assert len({unit.key for unit in spec.units}) == 3
        assert all(unit.kind == "dse_search" for unit in spec.units)
        assert spec.key == self._spec(tmp_path / "search", generations=3).key

    def test_job_equals_direct_engine(self, isolated_caches, tmp_path):
        job_store_root = tmp_path / "job-search"
        with JobStore(tmp_path / "runs.sqlite") as store:
            job = store.submit(self._spec(job_store_root))
            summary = store.run_job(job.id, LocalExecutor())
            assert summary.failed == 0
            final = store.results(job.id)[-1][1]
        assert final["done"] is True

        profiles = (
            ExperimentRunner(context=RunContext(scale=1 / 512), workers=1)
            .run(apps=["spmv-csr"])
            .profiles()
        )
        direct = AdaptiveSearch(
            SearchSpace.from_axes(self.SMALL_AXES),
            make_strategy("evolve", population=4, generations=3),
            profiles,
            seed=5,
        ).run()

        persisted = SearchStore(job_store_root).load_result(final["search_key"])
        assert persisted is not None
        persisted.pop("search_key")
        assert json.dumps(persisted, sort_keys=True) == json.dumps(
            direct.to_dict(), sort_keys=True
        )

    def test_sigkill_mid_search_then_resume(self, isolated_caches, tmp_path):
        """A killed search job resumes from the last committed generation
        and finishes byte-identical, with zero extra evaluations."""
        db = tmp_path / "runs.sqlite"
        search_root = tmp_path / "killed-search"
        spec = self._spec(search_root, generations=8)
        with JobStore(db) as store:
            job_id = store.submit(spec).id

        child_code = (
            "import sys\n"
            "from pathlib import Path\n"
            "from repro.runtime.executors import LocalExecutor\n"
            "from repro.runtime.jobs import JobStore\n"
            "with JobStore(Path(sys.argv[1])) as store:\n"
            "    store.run_job(int(sys.argv[2]), LocalExecutor())\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", child_code, str(db), str(job_id)],
            env=_worker_env(),
        )
        try:
            # Kill as soon as at least one generation state is committed.
            deadline = time.perf_counter() + 120.0
            while time.perf_counter() < deadline:
                if list(search_root.glob("*/gen-*.json")):
                    break
                if proc.poll() is not None:
                    break  # finished before we could kill: resume is a no-op
                time.sleep(0.01)
            else:
                pytest.fail("child never committed a generation")
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=10)

        committed_dirs = list(search_root.glob("*/"))
        assert committed_dirs, "no search state survived the kill"
        key = committed_dirs[0].name
        committed_after_kill = SearchStore(search_root).committed_generations(key)
        assert committed_after_kill == list(range(1, len(committed_after_kill) + 1))

        # The resumed engine starts from the committed frontier, not zero.
        profiles = (
            ExperimentRunner(context=RunContext(scale=1 / 512), workers=1)
            .run(apps=["spmv-csr"])
            .profiles()
        )
        probe = AdaptiveSearch(
            SearchSpace.from_axes(self.SMALL_AXES),
            make_strategy("evolve", population=4, generations=8),
            profiles,
            seed=5,
            store=SearchStore(search_root),
        )
        assert probe.key == key
        assert probe.generation == len(committed_after_kill)

        with JobStore(db) as store:
            summary = store.run_job(job_id, LocalExecutor())
            assert summary.failed == 0
            assert store.unit_states(job_id)[UNIT_DONE] == 8

        # Byte-identical to an uninterrupted in-process reference, with an
        # equal evaluation budget: committed generations were never redone.
        reference = AdaptiveSearch(
            SearchSpace.from_axes(self.SMALL_AXES),
            make_strategy("evolve", population=4, generations=8),
            profiles,
            seed=5,
        ).run()
        persisted = SearchStore(search_root).load_result(key)
        assert persisted is not None
        persisted.pop("search_key")
        assert json.dumps(persisted, sort_keys=True) == json.dumps(
            reference.to_dict(), sort_keys=True
        )
        assert persisted["evaluations"] == reference.evaluations


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
