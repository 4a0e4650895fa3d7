"""Tests for the experiment runtime: registry, profile cache, runner, sweep."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import threading

import pytest

from repro.apps.profile import WorkloadProfile
from repro.apps.scan_model import ScanCost, record_scans
from repro.core.ordering import OrderingMode
from repro.config import MemoryTechnology, ScannerConfig
from repro.errors import ConfigurationError
from repro.eval.experiments import APP_DATASETS, APP_ORDER
from repro.runtime import registry as registry_module
from repro.runtime import cache as cache_module
from repro.runtime import cli
from repro.runtime.cache import (
    ProfileCache,
    ScanCostStore,
    ThroughputStore,
    env_root,
    profile_from_dict,
    profile_to_dict,
    read_json,
    write_json_atomic,
)
from repro.runtime import runner as runner_module
from repro.runtime.executors import pool as pool_module
from repro.runtime.registry import AppSpec, RegistryError, RunContext, parse_scale, register
from repro.runtime.runner import ExperimentRunner, default_workers, pool_is_profitable
from repro.runtime.sweep import sweep


@pytest.fixture
def multicore(monkeypatch):
    """Pretend the machine has cores so worker pools are not elided."""
    monkeypatch.setattr(runner_module.os, "cpu_count", lambda: 4)

#: Expected Table 12 application order.
EXPECTED_APPS = (
    "spmv-csr",
    "spmv-coo",
    "spmv-csc",
    "conv",
    "pagerank-pull",
    "pagerank-edge",
    "bfs",
    "sssp",
    "spadd",
    "spmspm",
    "bicgstab",
)

#: Small scale for the functional runs these tests do perform.
TINY = 1.0 / 512.0


class TestRegistry:
    def test_all_eleven_apps_registered_in_order(self):
        assert registry_module.app_order() == EXPECTED_APPS

    def test_registry_matches_eval_views(self):
        assert APP_ORDER == registry_module.app_order()
        assert APP_DATASETS == registry_module.app_datasets()
        for spec in registry_module.registered_specs():
            assert len(spec.datasets) == 3

    def test_unknown_app_raises(self):
        with pytest.raises(RegistryError):
            registry_module.get_spec("not-an-app")
        # RegistryError is a ValueError, preserving the legacy contract.
        with pytest.raises(ValueError):
            registry_module.execute("not-an-app", "ckt11752_dc_1")

    def test_conflicting_registration_raises_identical_reload_allowed(self):
        spec = registry_module.get_spec("bfs")
        # A module reload produces a new-but-identical spec: allowed.
        clone = dataclasses.replace(spec)
        try:
            assert register(clone) is clone
        finally:
            register(spec)
        # Same name with a different shape: rejected.
        conflicting = dataclasses.replace(spec, datasets=("flickr",))
        with pytest.raises(RegistryError):
            register(conflicting)
        assert registry_module.get_spec("bfs").datasets == spec.datasets

    def test_execute_round_trips_through_spec(self):
        context = RunContext(scale=TINY)
        profile = registry_module.execute("spmv-csr", "ckt11752_dc_1", context)
        assert profile.app == "spmv-csr"
        assert profile.dataset == "ckt11752_dc_1"
        assert profile.compute_iterations > 0

    def test_recorded_scanner_changes_scan_cost_and_restores_default(self):
        from repro.apps import scan_model

        default_ctor = scan_model.ScannerConfig
        base = registry_module.execute("spadd", "ckt11752_dc_1", RunContext(scale=TINY))
        with record_scans([ScannerConfig(bit_width=1, output_vectorization=1)]):
            narrow = registry_module.execute("spadd", "ckt11752_dc_1", RunContext(scale=TINY))
        again = registry_module.execute("spadd", "ckt11752_dc_1", RunContext(scale=TINY))
        assert scan_model.ScannerConfig is default_ctor
        assert narrow.scan_cycles > base.scan_cycles
        assert again.scan_cycles == base.scan_cycles

    def test_recorded_scanner_is_invisible_to_concurrent_runs(self):
        """Recorded and plain runs in parallel threads each get their own
        sequential profile: a recording never leaks into another run."""
        dataset = "ckt11752_dc_1"
        context = RunContext(scale=TINY)
        scanners = (ScannerConfig(bit_width=1, output_vectorization=1), None)

        def profile(scanner):
            with record_scans([scanner]) if scanner else contextlib.nullcontext():
                return profile_to_dict(registry_module.execute("spadd", dataset, context))

        expected = {scanner: profile(scanner) for scanner in scanners}
        assert len({str(result) for result in expected.values()}) == 2
        start = threading.Barrier(len(scanners))
        mismatches = []

        def profile_repeatedly(scanner) -> None:
            start.wait()
            for _ in range(40):
                result = profile(scanner)
                if result != expected[scanner]:
                    mismatches.append((scanner, result["scan_cycles"]))

        threads = [
            threading.Thread(target=profile_repeatedly, args=(scanner,)) for scanner in scanners
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not mismatches


@pytest.mark.parametrize(
    "text, expected", [("1/64", 1 / 64), ("0.015625", 0.015625), ("3/4", 0.75), ("1", 1.0)]
)
def test_parse_scale_reads_floats_and_ratios(text, expected):
    assert parse_scale(text) == expected


@pytest.mark.parametrize("text", ["1/0", "banana", "1/x", ""])
def test_parse_scale_raises_value_error(text):
    with pytest.raises(ValueError):
        parse_scale(text)


class TestProfileCache:
    def _profile(self, **overrides) -> WorkloadProfile:
        values = dict(
            app="spmv-csr",
            dataset="ckt11752_dc_1",
            compute_iterations=100,
            vector_slots=10,
            tile_work=[1.0, 2.5],
            extra={"touched_nnz": 42.0},
        )
        values.update(overrides)
        return WorkloadProfile(**values)

    def test_round_trip_preserves_every_field(self, tmp_path):
        cache = ProfileCache(root=tmp_path)
        profile = self._profile()
        key = cache.key("spmv-csr", "ckt11752_dc_1", RunContext(scale=TINY))
        cache.store(key, profile)
        loaded = cache.load(key)
        assert loaded is not None
        assert profile_to_dict(loaded) == profile_to_dict(profile)
        assert cache.hits == 1 and cache.stores == 1

    def test_miss_on_empty_cache(self, tmp_path):
        cache = ProfileCache(root=tmp_path)
        assert cache.load(cache.key("bfs", "flickr", RunContext())) is None
        assert cache.misses == 1

    def test_key_changes_with_scale_and_context(self, tmp_path):
        cache = ProfileCache(root=tmp_path)
        base = cache.key("bfs", "flickr", RunContext(scale=1 / 64))
        assert cache.key("bfs", "flickr", RunContext(scale=1 / 128)) != base
        assert cache.key("bfs", "usroads-48", RunContext(scale=1 / 64)) != base
        assert cache.key("sssp", "flickr", RunContext(scale=1 / 64)) != base
        assert cache.key("bfs", "flickr", RunContext(scale=1 / 64)) == base
        pagerank = cache.key("pagerank-pull", "flickr", RunContext(scale=1 / 64))
        assert (
            cache.key("pagerank-pull", "flickr", RunContext(scale=1 / 64, pagerank_iterations=3))
            != pagerank
        )

    def test_key_fingerprints_only_declared_context_fields(self, tmp_path):
        cache = ProfileCache(root=tmp_path)
        base = cache.key("bfs", "flickr", RunContext(scale=1 / 64))
        same = cache.key(
            "bfs", "flickr", RunContext(scale=1 / 64, pagerank_iterations=5, conv_scale=0.5)
        )
        assert same == base
        assert registry_module.get_spec("bfs").context_fields == ("scale",)
        # SpMSpM hardcodes full scale, so its profiles are scale-independent.
        assert registry_module.get_spec("spmspm").context_fields == ()
        assert cache.key("spmspm", "qc324", RunContext(scale=1 / 64)) == cache.key(
            "spmspm", "qc324", RunContext(scale=1 / 512)
        )

    def test_scan_cost_key_includes_full_scanner_config(self, tmp_path):
        profile_key = ProfileCache(root=tmp_path).key("conv", "resnet50-1", RunContext())
        scans = ScanCostStore(tmp_path)
        wide = scans.key(profile_key, ScannerConfig(data_width=16))
        narrow = scans.key(profile_key, ScannerConfig(data_width=1))
        assert wide != narrow

    def test_key_changes_with_code_fingerprint(self, tmp_path):
        cache = ProfileCache(root=tmp_path)
        context = RunContext(scale=1 / 64)
        old_code = cache.key("bfs", "flickr", context, fingerprint="aaa")
        new_code = cache.key("bfs", "flickr", context, fingerprint="bbb")
        assert old_code != new_code
        cache.store(old_code, self._profile(app="bfs", dataset="flickr"))
        assert cache.load(new_code) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ProfileCache(root=tmp_path)
        key = cache.key("bfs", "flickr", RunContext())
        cache.store(key, self._profile(app="bfs", dataset="flickr"))
        (tmp_path / f"{key}.json").write_text("{not json")
        assert cache.load(key) is None

    def test_unknown_fields_ignored_on_load(self):
        data = profile_to_dict(self._profile())
        data["from_the_future"] = 1
        restored = profile_from_dict(data)
        assert restored.app == "spmv-csr"

    def test_clear(self, tmp_path):
        cache = ProfileCache(root=tmp_path)
        cache.store(cache.key("bfs", "flickr", RunContext()), self._profile())
        (tmp_path / "leftover.tmp").write_text("partial write")
        assert len(cache) == 1
        assert cache.clear() == 2
        assert len(cache) == 0
        assert not list(tmp_path.glob("*.tmp"))

    def test_prune_removes_stale_code_entries_and_temps(self, tmp_path):
        cache = ProfileCache(root=tmp_path)
        fresh_key = cache.key("bfs", "flickr", RunContext())
        cache.store(fresh_key, self._profile(app="bfs", dataset="flickr"))
        stale_path = tmp_path / "stale.json"
        payload = json.loads((tmp_path / f"{fresh_key}.json").read_text())
        payload["code"] = "an-older-fingerprint"
        stale_path.write_text(json.dumps(payload))
        (tmp_path / "leftover.tmp").write_text("partial write")
        assert cache.prune() == 2
        assert cache.load(fresh_key) is not None
        assert not stale_path.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_cli_clear_and_prune_cover_the_scan_costs(self, tmp_path, capsys):
        cache, scans = ProfileCache(root=tmp_path), ScanCostStore(tmp_path)
        key = cache.key("bfs", "flickr", RunContext())
        cache.store(key, self._profile(app="bfs", dataset="flickr"))
        cost = ScanCost(cycles=9, empty_cycles=1, elements=40, chunks=3)
        for config in (ScannerConfig(), ScannerConfig(bit_width=512)):
            scans.store(scans.key(key, config), cost)
        stale = read_json(scans.root / f"{scans.key(key, ScannerConfig())}.json")
        (scans.root / "stale.json").write_text(json.dumps(dict(stale, code="older")))
        assert cli.main(["--prune-cache", "--cache-dir", str(tmp_path)]) == 0
        pruned = capsys.readouterr().out
        assert f"pruned 0 cached profiles and 1 scan costs from {tmp_path}" in pruned
        assert len(scans) == 2
        assert cli.main(["--clear-cache", "--cache-dir", str(tmp_path)]) == 0
        removed = capsys.readouterr().out
        assert f"removed 1 cached profiles and 2 scan costs from {tmp_path}" in removed
        assert len(cache) == 0 and len(scans) == 0


class TestEntryLayer:
    """The one atomic-JSON entry layer every on-disk store shares."""

    def test_read_json_treats_absent_corrupt_and_non_objects_as_none(self, tmp_path):
        path = tmp_path / "entry.json"
        assert read_json(path) is None
        path.write_text("{not json")
        assert read_json(path) is None
        path.write_text("[1, 2]")
        assert read_json(path) is None
        path.write_text('{"a": 1}')
        assert read_json(path) == {"a": 1}

    def test_write_is_compact_creates_parents_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "nested" / "entry.json"
        write_json_atomic(path, {"b": [1, 2], "a": "x"})
        assert path.read_text() == '{"b": [1, 2], "a": "x"}'
        assert not list(path.parent.glob("*.tmp"))

    def test_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SOME_STORE", str(tmp_path))
        assert env_root("REPRO_SOME_STORE", "some") == tmp_path
        monkeypatch.delenv("REPRO_SOME_STORE")
        assert env_root("REPRO_SOME_STORE", "some") == (
            cache_module.Path.home() / ".cache" / "repro" / "some"
        )

    def test_throughput_entries_are_stamped_so_prune_serves_them(self, tmp_path):
        store = ThroughputStore(root=tmp_path)
        store.store("a" * 64, 1.5)
        stale = read_json(tmp_path / f"{'a' * 64}.json")
        assert stale["code"] == cache_module.code_fingerprint()
        stale["code"] = "an-older-fingerprint"
        (tmp_path / "stale.json").write_text(json.dumps(stale))
        assert store.prune() == 1
        assert store.load("a" * 64) == 1.5 and len(store) == 1


class TestExperimentRunner:
    APPS = ["spmv-csr", "bfs"]

    def test_serial_and_parallel_results_equivalent(self, multicore):
        context = RunContext(scale=TINY)
        serial = ExperimentRunner(context=context, workers=1, cache=False).run(apps=self.APPS)
        parallel = ExperimentRunner(context=context, workers=2, cache=False).run(apps=self.APPS)
        assert [(r.app, r.dataset, r.status) for r in serial.results] == [
            (r.app, r.dataset, r.status) for r in parallel.results
        ]
        for left, right in zip(serial.results, parallel.results):
            assert profile_to_dict(left.profile) == profile_to_dict(right.profile)

    def test_warm_cache_run_performs_zero_functional_executions(self, tmp_path, monkeypatch):
        context = RunContext(scale=TINY)
        cache = ProfileCache(root=tmp_path)
        cold = ExperimentRunner(context=context, workers=1, cache=cache).run(apps=self.APPS)
        assert cold.executed_count() == len(cold.results)

        def forbidden(*args, **kwargs):
            raise AssertionError("functional execution on a warm cache")

        monkeypatch.setattr(registry_module, "execute", forbidden)
        warm = ExperimentRunner(context=context, workers=1, cache=cache).run(apps=self.APPS)
        assert warm.cached_count() == len(warm.results)
        assert warm.executed_count() == 0
        for left, right in zip(cold.results, warm.results):
            assert profile_to_dict(left.profile) == profile_to_dict(right.profile)

    def test_cache_invalidated_on_scale_change(self, tmp_path):
        cache = ProfileCache(root=tmp_path)
        first = ExperimentRunner(
            context=RunContext(scale=TINY), workers=1, cache=cache
        ).run(apps=["spmv-csr"])
        assert first.cached_count() == 0
        rescaled = ExperimentRunner(
            context=RunContext(scale=1 / 256), workers=1, cache=cache
        ).run(apps=["spmv-csr"])
        assert rescaled.cached_count() == 0
        assert rescaled.executed_count() == len(rescaled.results)

    def test_task_grid_is_deterministic(self):
        runner = ExperimentRunner(cache=False)
        grid = runner.tasks()
        assert grid == [
            (app, dataset) for app in EXPECTED_APPS for dataset in APP_DATASETS[app]
        ]

    def test_error_reporting_without_raise(self, multicore):
        failing = AppSpec(
            name="always-fails",
            datasets=("ckt11752_dc_1", "Trefethen_20000"),
            prepare=lambda dataset, context: {},
            run=lambda: (_ for _ in ()).throw(RuntimeError("boom")),
            order=9999,
        )
        register(failing)
        try:
            report = ExperimentRunner(cache=False, raise_on_error=False).run(
                apps=["always-fails"]
            )
            assert len(report.errors()) == 2
            assert "boom" in report.errors()[0].error
            with pytest.raises(RuntimeError):
                ExperimentRunner(cache=False, raise_on_error=True).run(apps=["always-fails"])
            # Across a process pool the worker traceback is chained on.
            with pytest.raises(RuntimeError) as excinfo:
                ExperimentRunner(cache=False, workers=2, raise_on_error=True).run(
                    apps=["always-fails"]
                )
            assert "boom" in str(excinfo.value.__cause__)
        finally:
            registry_module._REGISTRY.pop("always-fails", None)

    def test_pool_elided_on_single_core(self, monkeypatch):
        monkeypatch.setattr(runner_module.os, "cpu_count", lambda: 1)

        def forbidden(*args, **kwargs):
            raise AssertionError("process pool used on a single-core machine")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", forbidden)
        report = ExperimentRunner(
            context=RunContext(scale=TINY), workers=4, cache=False
        ).run(apps=["spmv-csr"])
        assert report.executed_count() == len(report.results)

    def test_cached_results_report_lookup_time(self, tmp_path):
        context = RunContext(scale=TINY)
        cache = ProfileCache(root=tmp_path)
        ExperimentRunner(context=context, workers=1, cache=cache).run(apps=["spmv-csr"])
        warm = ExperimentRunner(context=context, workers=1, cache=cache).run(
            apps=["spmv-csr"]
        )
        assert warm.cached_count() == len(warm.results)
        # The lookup is fast but it is real work; 0.0 would hide it.
        assert all(r.duration_s > 0.0 for r in warm.results)

    def test_default_workers_warns_once_on_bad_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_WORKERS", "8x")
        monkeypatch.setattr(runner_module, "_warned_bad_workers", False)
        with pytest.warns(RuntimeWarning, match="REPRO_EVAL_WORKERS"):
            assert default_workers() == 1
        # Second call falls back silently instead of spamming.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert default_workers() == 1

    def test_default_workers_parses_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_WORKERS", "6")
        assert default_workers() == 6

    def test_pool_profitability_rules(self, monkeypatch):
        monkeypatch.setattr(runner_module.os, "cpu_count", lambda: 8)
        assert pool_is_profitable(4, 10)
        assert not pool_is_profitable(1, 10)  # serial requested
        assert not pool_is_profitable(4, 1)  # nothing to overlap
        monkeypatch.setattr(runner_module.os, "cpu_count", lambda: 1)
        assert not pool_is_profitable(4, 10)  # no cores to use
        monkeypatch.setattr(runner_module.os, "cpu_count", lambda: None)
        assert not pool_is_profitable(4, 10)  # unknown counts as one


class TestBackendPlumbing:
    def test_backend_threaded_to_run_callable(self):
        seen = {}

        def fake_run(backend="vectorized", **kwargs):
            seen["backend"] = backend
            return WorkloadProfile(app="probe", dataset="d")

        probe = AppSpec(
            name="backend-probe",
            datasets=("d",),
            prepare=lambda dataset, context: {},
            run=fake_run,
            order=9999,
        )
        register(probe)
        try:
            registry_module.execute(
                "backend-probe", "d", RunContext(backend="reference")
            )
            assert seen["backend"] == "reference"
        finally:
            registry_module._REGISTRY.pop("backend-probe", None)

    def test_backendless_run_callable_still_works(self):
        probe = AppSpec(
            name="no-backend-probe",
            datasets=("d",),
            prepare=lambda dataset, context: {},
            run=lambda: WorkloadProfile(app="probe", dataset="d"),
            order=9999,
        )
        register(probe)
        try:
            profile = registry_module.execute("no-backend-probe", "d", RunContext())
            assert profile.app == "probe"
        finally:
            registry_module._REGISTRY.pop("no-backend-probe", None)

    def test_cache_key_distinguishes_backends(self, tmp_path):
        cache = ProfileCache(root=tmp_path)
        vectorized = cache.key("bfs", "flickr", RunContext(backend="vectorized"))
        reference = cache.key("bfs", "flickr", RunContext(backend="reference"))
        assert vectorized != reference
        # The backend is fingerprinted even for apps declaring no context
        # fields (cached profiles always record which kernels produced them).
        assert cache.key("spmspm", "qc324", RunContext(backend="vectorized")) != cache.key(
            "spmspm", "qc324", RunContext(backend="reference")
        )



class TestCLIRunContext:
    """``repro-eval``, ``dse`` and ``sweep`` read the run context identically."""

    PARSERS = (cli.build_parser, cli.build_dse_parser, cli.build_sweep_parser)

    @pytest.mark.parametrize(
        "flags",
        [
            [],
            [
                "--apps=bfs, sssp,",
                "--scale=1/256",
                "--pagerank-iterations=3",
                "--conv-scale=0.25",
                "--backend=reference",
                "--memory-budget=64M",
            ],
        ],
    )
    def test_three_parsers_yield_equal_contexts(self, flags):
        setups = []
        for build in self.PARSERS:
            args = build().parse_args(flags)
            context, apps, _ = cli._run_setup(args)
            setups.append((context, apps, args.memory_budget))
        assert setups[0] == setups[1] == setups[2]
        if flags:
            assert setups[0] == (
                RunContext(
                    scale=1 / 256, pagerank_iterations=3, conv_scale=0.25, backend="reference"
                ),
                ["bfs", "sssp"],
                "64M",
            )
        else:
            assert setups[0] == (RunContext(), None, None)

    @pytest.mark.parametrize("subcommand", [[], ["dse"], ["sweep"]])
    def test_unknown_app_exits_2_in_every_command(self, subcommand, tmp_path, capsys):
        argv = subcommand + ["--apps", "bfs,nope"]
        if subcommand == ["sweep"]:
            argv += ["--db", str(tmp_path / "runs.sqlite")]
        assert cli.main(argv) == 2
        assert "unknown applications: nope" in capsys.readouterr().err
        assert not (tmp_path / "runs.sqlite").exists()

    @pytest.mark.parametrize("subcommand", [[], ["dse"], ["sweep"]])
    @pytest.mark.parametrize("flag", ["--scale", "--conv-scale"])
    def test_zero_denominator_exits_2_in_every_command(self, subcommand, flag, capsys):
        with pytest.raises(SystemExit) as exited:
            cli.main(subcommand + [flag, "1/0"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid" in err and "'1/0'" in err

    def test_cache_policy_follows_the_cache_flags(self, tmp_path):
        parse = cli.build_parser().parse_args
        assert cli._run_setup(parse([]))[2] is True
        assert cli._run_setup(parse(["--no-cache"]))[2] is False
        cache = cli._run_setup(parse(["--cache-dir", str(tmp_path)]))[2]
        assert isinstance(cache, ProfileCache) and cache.root == tmp_path


class TestSweep:
    def test_cartesian_order_and_names(self):
        variants = sweep(
            allocator=("separable", "greedy"), bank_mapping=("hash", "linear")
        )
        assert list(variants) == [
            "separable-hash",
            "separable-linear",
            "greedy-hash",
            "greedy-linear",
        ]
        assert variants["greedy-linear"].allocator == "greedy"
        assert variants["greedy-linear"].bank_mapping == "linear"
        assert variants["greedy-linear"].name == "greedy-linear"

    def test_memory_and_ordering_axes(self):
        variants = sweep(
            memory=(MemoryTechnology.HBM2E, MemoryTechnology.DDR4),
            ordering=(OrderingMode.UNORDERED,),
        )
        assert list(variants) == ["hbm2e-unordered", "ddr4-unordered"]
        assert variants["ddr4-unordered"].config.memory is MemoryTechnology.DDR4

    def test_custom_naming(self):
        variants = sweep(
            memory=(MemoryTechnology.HBM2,),
            name=lambda combo: f"capstan-{combo['memory'].value}",
        )
        assert list(variants) == ["capstan-hbm2"]

    def test_invalid_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(warp_drive=(1, 2))
        with pytest.raises(ConfigurationError):
            sweep()
        with pytest.raises(ConfigurationError):
            sweep(memory=("hbm2e",))
