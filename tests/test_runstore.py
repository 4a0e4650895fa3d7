"""Tests for the SQLite experiment store and the regression analytics.

Covers the tentpole contract end to end: schema round-trips, fingerprint
keying, baseline snapshot/compare, expectation evaluation with every
failure category, trend detection on synthetic run histories, the
``bench-history`` / ``bench-compare`` CLI JSON outputs, and the proof
that a committed-file baseline (``--baseline FILE``) and a named store
baseline (``--compare-baseline NAME``) reach the same verdict on the
committed ``BENCH_runner.json``.
"""

from __future__ import annotations

import copy
import json
import sqlite3
from pathlib import Path

import pytest

from repro.errors import CapstanError
from repro.eval import regression
from repro.eval.regression import (
    compare_to_baseline,
    detect_trends,
    evaluate_expectations,
    format_comparison_markdown,
    format_comparison_report,
    format_history,
    format_trends,
    load_expectations,
    normalize_expectations,
)
from repro.runtime import cli
from repro.runtime.runstore import (
    SCHEMA_VERSION,
    RunStore,
    RunStoreError,
    default_run_db,
    flatten_metrics,
    record_sections,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_RECORD = json.loads((REPO_ROOT / "BENCH_runner.json").read_text())
EXPECTATIONS_TOML = REPO_ROOT / "benchmarks" / "expectations.toml"

FINGERPRINT_A = "a" * 64
FINGERPRINT_B = "b" * 64


def make_record(**overrides):
    """A deep copy of the committed bench record with dotted overrides.

    ``make_record(**{"spmu.array_s": 0.9})`` replaces one nested value;
    a value of ``...`` (Ellipsis) deletes the key instead.
    """
    record = copy.deepcopy(BENCH_RECORD)
    for dotted, value in overrides.items():
        target = record
        *parents, leaf = dotted.split(".")
        for part in parents:
            target = target[part]
        if value is Ellipsis:
            del target[leaf]
        else:
            target[leaf] = value
    return record


@pytest.fixture
def store(tmp_path):
    with RunStore(tmp_path / "runs.sqlite") as opened:
        yield opened


def _stored_sections(store, run_id):
    """The ``sections`` rows of one run, name -> section dict."""
    rows = store.connection.execute(
        "SELECT name, metrics_json FROM sections WHERE run_id=?", (run_id,)
    ).fetchall()
    return {row["name"]: json.loads(row["metrics_json"]) for row in rows}


# ----------------------------------------------------------------- RunStore


class TestRunStore:
    def test_record_round_trip(self, store):
        run_id = store.record_run(BENCH_RECORD, label="seed", fingerprint=FINGERPRINT_A)
        run = store.load_run(run_id)
        assert run.record == BENCH_RECORD
        assert run.label == "seed"
        assert run.fingerprint == FINGERPRINT_A
        assert run.scale == BENCH_RECORD["scale"]
        assert run.workers == BENCH_RECORD["workers"]
        assert len(store) == 1
        assert store.latest_run().id == run_id

    def test_sections_and_metrics_rows(self, store):
        run_id = store.record_run(BENCH_RECORD, fingerprint=FINGERPRINT_A)
        sections = _stored_sections(store, run_id)
        assert set(sections) == {
            "runner",
            "costing",
            "spmu",
            "formats",
            "chunked",
            "dse",
        }
        assert sections["spmu"] == BENCH_RECORD["spmu"]
        assert sections["runner"]["cold_serial_s"] == BENCH_RECORD["cold_serial_s"]
        # Nested format-axis metrics flatten into dotted rows.
        history = store.metric_history("formats", "scan.speedup", limit=5)
        assert history == [(run_id, BENCH_RECORD["formats"]["scan"]["speedup"])]
        # Null metrics are unrecorded, not stored as NULL history rows.
        null_run = store.record_run(make_record(**{"spmu.probe_speedup": None}))
        assert _stored_sections(store, null_run)["spmu"]["probe_speedup"] is None
        assert store.metric_history("spmu", "probe_speedup") == []

    def test_wal_mode_and_user_version(self, store):
        connection = sqlite3.connect(store.path)
        assert connection.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert connection.execute("PRAGMA user_version").fetchone()[0] == SCHEMA_VERSION
        connection.close()

    def test_reopen_preserves_rows(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        with RunStore(path) as first:
            run_id = first.record_run(BENCH_RECORD, fingerprint=FINGERPRINT_A)
        with RunStore(path) as second:
            assert second.load_run(run_id).record == BENCH_RECORD

    def test_newer_schema_refused(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        connection = sqlite3.connect(path)
        connection.execute("PRAGMA user_version=99")
        connection.close()
        with pytest.raises(RunStoreError, match="schema version 99"):
            RunStore(path)

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_DB", str(tmp_path / "custom.sqlite"))
        assert default_run_db() == tmp_path / "custom.sqlite"
        with RunStore() as opened:
            assert opened.path == tmp_path / "custom.sqlite"

    def test_fingerprint_keying(self, store):
        store.record_run(BENCH_RECORD, fingerprint=FINGERPRINT_A)
        store.record_run(BENCH_RECORD, fingerprint=FINGERPRINT_B)
        store.record_run(BENCH_RECORD, fingerprint=FINGERPRINT_A)
        assert len(store.runs()) == 3
        keyed = store.runs(fingerprint=FINGERPRINT_A)
        assert [run.fingerprint for run in keyed] == [FINGERPRINT_A] * 2
        assert store.runs(limit=1)[0].id == 3

    def test_default_fingerprint_is_live_code(self, store):
        from repro.runtime.cache import code_fingerprint

        run_id = store.record_run(BENCH_RECORD)
        assert store.load_run(run_id).fingerprint == code_fingerprint()

    def test_baseline_snapshot_round_trip(self, store):
        store.record_run(BENCH_RECORD, fingerprint=FINGERPRINT_A)
        frozen = store.snapshot_baseline("main")
        loaded = store.baseline("main")
        assert loaded.record == BENCH_RECORD
        assert loaded.run_id == frozen.run_id
        assert loaded.fingerprint == FINGERPRINT_A
        assert store.baseline("missing") is None

    def test_baseline_refreeze_replaces(self, store):
        store.record_run(BENCH_RECORD, fingerprint=FINGERPRINT_A)
        store.record_run(make_record(scale=0.125), fingerprint=FINGERPRINT_B)
        store.snapshot_baseline("main", run_id=1)
        store.snapshot_baseline("main", run_id=2)
        assert store.baseline("main").run_id == 2
        count = store.connection.execute("SELECT COUNT(*) FROM baselines").fetchone()[0]
        assert count == 1

    def test_snapshot_without_runs_raises(self, store):
        with pytest.raises(RunStoreError, match="no runs"):
            store.snapshot_baseline("main")

    def test_record_sections_and_flatten(self):
        sections = record_sections({"a": 1, "nested": {"x": 2.0, "flag": True}})
        assert sections == {"nested": {"x": 2.0, "flag": True}, "runner": {"a": 1}}
        flat = flatten_metrics(
            {"x": 2, "skip": None, "flag": True, "inner": {"y": 3.5, "s": "txt"}}
        )
        assert flat == {"x": 2.0, "inner.y": 3.5}


# ----------------------------------------------------------- expectations


class TestExpectations:
    @pytest.mark.parametrize(
        "text",
        (
            "[unclosed\n",
            "version = 1\nversion = 2\n",
            "[sections.spmu.min]\nspeedup =\n",
            '[sections.spmu.min]\nspeedup = "fast\n',
        ),
        ids=("unclosed-table", "duplicate-key", "missing-value", "unterminated-string"),
    )
    def test_malformed_file_raises_capstan_error(self, tmp_path, text):
        path = tmp_path / "expectations.toml"
        path.write_text(text)
        with pytest.raises(CapstanError, match="malformed expectations file"):
            load_expectations(path)

    def test_normalize_rejects_unknown_keys(self):
        with pytest.raises(CapstanError, match="unknown expectations keys"):
            normalize_expectations({"sectoins": {}})
        with pytest.raises(CapstanError, match="unknown keys in expectations section"):
            normalize_expectations({"sections": {"spmu": {"mni": {"speedup": 1}}}})
        with pytest.raises(CapstanError, match="must be a number"):
            normalize_expectations({"sections": {"spmu": {"min": {"speedup": True}}}})


    def test_no_path_loads_the_tree_gate(self):
        assert regression.EXPECTATIONS_PATH == EXPECTATIONS_TOML
        assert load_expectations() == load_expectations(EXPECTATIONS_TOML)

    def test_absent_file_raises_capstan_error(self, tmp_path):
        absent = tmp_path / "absent.toml"
        with pytest.raises(CapstanError, match="no expectations file at"):
            load_expectations(absent)

    def test_trend_settings_default_per_key(self):
        assert normalize_expectations({"sections": {}})["trends"] == {
            "window": 5,
            "min_drift": 1.1,
        }
        partial = normalize_expectations({"trends": {"window": 3}})
        assert partial["trends"] == {"window": 3, "min_drift": 1.1}

    def test_evaluation_defaults_to_the_tree_gate(self, tmp_path, monkeypatch):
        # With no expectations given, evaluation reads EXPECTATIONS_PATH
        # at call time: a stricter copy there fails the committed record.
        record = make_record()
        assert evaluate_expectations(record) == evaluate_expectations(
            record, load_expectations(EXPECTATIONS_TOML)
        )
        strict = tmp_path / "expectations.toml"
        strict.write_text(
            EXPECTATIONS_TOML.read_text() + "\n[sections.spmu.max]\narray_s = 0.0\n"
        )
        monkeypatch.setattr(regression, "EXPECTATIONS_PATH", strict)
        failed = [check for check in evaluate_expectations(record) if not check.passed]
        assert [(check.section, check.name) for check in failed] == [("spmu", "max:array_s")]
        monkeypatch.setattr(regression, "EXPECTATIONS_PATH", tmp_path / "absent.toml")
        with pytest.raises(CapstanError, match="no expectations file at"):
            evaluate_expectations(record)


# ------------------------------------------------------------- evaluation


class TestEvaluation:
    def test_committed_record_passes(self):
        checks = evaluate_expectations(BENCH_RECORD)
        assert checks and all(check.passed for check in checks)
        # A null metric is skipped, not failed.
        expectations = normalize_expectations(
            {"sections": {"spmu": {"min": {"speedup": 6.0, "probe_speedup": 3.0}}}}
        )
        checks = evaluate_expectations(
            make_record(**{"spmu.probe_speedup": None}), expectations
        )
        assert all(check.passed for check in checks)
        skipped = [c for c in checks if c.category == regression.SKIPPED]
        assert [c.name for c in skipped] == ["min:probe_speedup"]

    def test_speedup_floor_regression(self):
        checks = evaluate_expectations(make_record(**{"costing.batch_speedup": 2.0}))
        failing = [c for c in checks if not c.passed]
        assert [(c.section, c.category) for c in failing] == [
            ("costing", regression.REGRESSION)
        ]

    def test_identity_broken(self):
        checks = evaluate_expectations(make_record(**{"formats.identical": False}))
        failing = [c for c in checks if not c.passed]
        assert [(c.section, c.category) for c in failing] == [
            ("formats", regression.IDENTITY_BROKEN)
        ]

    def test_missing_section(self):
        checks = evaluate_expectations(make_record(spmu=Ellipsis))
        failing = [c for c in checks if not c.passed]
        assert [(c.section, c.category) for c in failing] == [
            ("spmu", regression.MISSING_SECTION)
        ]

    def test_missing_metric_is_categorized(self):
        checks = evaluate_expectations(make_record(**{"chunked.peak_ratio": Ellipsis}))
        failing = [c for c in checks if not c.passed]
        assert [(c.name, c.category) for c in failing] == [
            ("max:peak_ratio", regression.MISSING_SECTION)
        ]


class TestComparison:
    def test_self_comparison_passes(self):
        report = compare_to_baseline(BENCH_RECORD, BENCH_RECORD)
        assert report.passed and not report.scale_mismatch
        assert report.categories() == {}

    def test_ratio_regression_detected(self):
        slow = make_record(**{"spmu.array_s": BENCH_RECORD["spmu"]["array_s"] * 3})
        report = compare_to_baseline(slow, BENCH_RECORD)
        assert not report.passed
        assert report.categories() == {regression.REGRESSION: 1}
        [failure] = report.failures()
        assert failure.name == "compare:array_s"
        assert failure.baseline_value == BENCH_RECORD["spmu"]["array_s"]

    def test_within_tolerance_passes(self):
        slower = make_record(
            **{"spmu.array_s": BENCH_RECORD["spmu"]["array_s"] * 1.9}
        )
        assert compare_to_baseline(slower, BENCH_RECORD).passed

    def test_scale_mismatch_is_categorized_not_fatal(self):
        bumped = make_record(scale=0.125)
        report = compare_to_baseline(bumped, BENCH_RECORD)
        assert report.passed and report.scale_mismatch
        scale_checks = [
            c for c in report.checks if c.category == regression.SCALE_MISMATCH
        ]
        # Every ratio check is recorded as scale-mismatch, none evaluated.
        assert {c.name for c in scale_checks} == {
            "compare:cold_serial_s",
            "compare:batch_s",
            "compare:array_s",
            "compare:chunked_s",
            "compare:search_s",
        }
        # Absolute gates still apply across a scale bump.
        broken = make_record(scale=0.125, **{"spmu.identical": False})
        report = compare_to_baseline(broken, BENCH_RECORD)
        assert not report.passed
        assert [c.category for c in report.failures()] == [regression.IDENTITY_BROKEN]

    def test_baseline_missing_section_is_skipped(self):
        baseline = make_record(chunked=Ellipsis)
        report = compare_to_baseline(BENCH_RECORD, baseline)
        assert report.passed
        skipped = [c for c in report.checks if c.category == regression.SKIPPED]
        assert any(c.name == "compare:chunked_s" for c in skipped)

    def test_no_baseline_runs_absolute_only(self):
        report = compare_to_baseline(make_record(), None)
        assert report.passed and report.baseline is None
        assert not any(c.name.startswith("compare:") for c in report.checks)

    def test_store_baseline_round_trip(self, store):
        store.record_run(BENCH_RECORD, fingerprint=FINGERPRINT_A)
        frozen = store.snapshot_baseline("main")
        report = compare_to_baseline(make_record(), frozen)
        assert report.passed
        assert report.baseline["name"] == "main"

    def test_report_renderers(self):
        report = compare_to_baseline(
            make_record(**{"costing.identical": False}), BENCH_RECORD
        )
        text = format_comparison_report(report)
        assert "verdict: FAIL" in text and "identity-broken" in text
        markdown = format_comparison_markdown(report)
        assert markdown.startswith("## Bench comparison")
        assert "| ❌ | costing |" in markdown
        assert report.to_dict()["categories"] == {regression.IDENTITY_BROKEN: 1}


# ------------------------------------------------------------------ trends


class TestTrends:
    def _record_history(self, store, values, metric="chunked.chunked_s"):
        for index, value in enumerate(values):
            store.record_run(
                make_record(**{metric: value}),
                fingerprint=FINGERPRINT_A,
                created_at=f"2026-08-08T00:{index:02d}:00Z",
            )

    def test_monotonic_drift_flagged(self, store):
        self._record_history(store, [0.040, 0.042, 0.044, 0.046, 0.048])
        trends = detect_trends(store)
        assert [(t.section, t.metric) for t in trends] == [("chunked", "chunked_s")]
        [trend] = trends
        assert trend.drift == pytest.approx(1.2)
        assert trend.run_ids == (1, 2, 3, 4, 5)
        assert "DRIFT chunked.chunked_s" in format_trends(trends)

    def test_noisy_history_not_flagged(self, store):
        self._record_history(store, [0.040, 0.048, 0.044, 0.046, 0.048])
        assert detect_trends(store) == []

    def test_small_drift_below_threshold_not_flagged(self, store):
        self._record_history(store, [0.040, 0.0401, 0.0402, 0.0403, 0.0404])
        assert detect_trends(store) == []

    def test_short_history_not_flagged(self, store):
        self._record_history(store, [0.040, 0.044, 0.048])
        assert detect_trends(store) == []

    def test_window_uses_latest_runs_only(self, store):
        # A long-flat history whose last five runs drift monotonically.
        self._record_history(
            store, [0.040, 0.040, 0.040, 0.041, 0.043, 0.045, 0.047, 0.049]
        )
        trends = detect_trends(store)
        assert [t.run_ids for t in trends] == [(4, 5, 6, 7, 8)]


# --------------------------------------------------------------------- CLI


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


class TestBenchCLI:
    @pytest.fixture
    def db(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        with RunStore(path) as store:
            store.record_run(
                BENCH_RECORD, fingerprint=FINGERPRINT_A, created_at="2026-08-08T00:00:00Z"
            )
            store.snapshot_baseline("main")
            store.record_run(
                make_record(**{"spmu.array_s": BENCH_RECORD["spmu"]["array_s"] * 2.6}),
                fingerprint=FINGERPRINT_B,
                created_at="2026-08-08T01:00:00Z",
            )
        return path

    def test_bench_history_json(self, db, tmp_path, capsys):
        out_path = tmp_path / "history.json"
        code, out = run_cli(
            capsys, "bench-history", "--db", str(db), "--json", str(out_path)
        )
        assert code == 0
        assert "runner.cold_serial_s" in out
        payload = json.loads(out_path.read_text())
        assert [row["id"] for row in payload["runs"]] == [2, 1]
        assert payload["runs"][0]["fingerprint"] == FINGERPRINT_B[:12]
        assert payload["records"][1]["record"] == BENCH_RECORD

    def test_bench_history_trends_read_the_tree_gate(self, tmp_path, monkeypatch, capsys):
        # Without --expectations, --trends applies benchmarks/expectations.toml's
        # [trends]: a copy with a three-run window flags a three-run drift
        # that the committed five-run window does not.
        assert regression.EXPECTATIONS_PATH == EXPECTATIONS_TOML
        db = tmp_path / "drift.sqlite"
        with RunStore(db) as store:
            for index, value in enumerate((0.040, 0.044, 0.048)):
                store.record_run(
                    make_record(**{"chunked.chunked_s": value}),
                    fingerprint=FINGERPRINT_A,
                    created_at=f"2026-08-08T00:{index:02d}:00Z",
                )
        code, out = run_cli(capsys, "bench-history", "--db", str(db), "--trends")
        assert code == 0 and "DRIFT" not in out
        narrow = tmp_path / "expectations.toml"
        text = EXPECTATIONS_TOML.read_text()
        assert "window = 5" in text
        narrow.write_text(text.replace("window = 5", "window = 3"))
        monkeypatch.setattr(regression, "EXPECTATIONS_PATH", narrow)
        code, out = run_cli(capsys, "bench-history", "--db", str(db), "--trends")
        assert code == 0 and "DRIFT chunked.chunked_s" in out
        # No gate file at all: a clean usage error, not a silent pass.
        monkeypatch.setattr(regression, "EXPECTATIONS_PATH", tmp_path / "absent.toml")
        for command in ("bench-history", "bench-compare"):
            argv = [command, "--db", str(db)]
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + ["--trends"] if command == "bench-history" else argv)
            assert exc.value.code == 2
            assert "no expectations file" in capsys.readouterr().err

    def test_bench_history_empty_store(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "bench-history", "--db", str(tmp_path / "fresh.sqlite")
        )
        assert code == 0 and "no runs recorded" in out

    def test_bench_compare_json_verdicts(self, db, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        # Latest run (run 2) regressed ~2.6x against the frozen baseline.
        code, _ = run_cli(
            capsys,
            "bench-compare",
            "--db",
            str(db),
            "--baseline",
            "main",
            "--json",
            str(out_path),
        )
        assert code == 1
        payload = json.loads(out_path.read_text())
        assert payload["passed"] is False
        assert payload["run"]["id"] == 2
        assert payload["categories"] == {regression.REGRESSION: 1}
        # Run 1 is the baseline itself: clean pass.
        code, _ = run_cli(
            capsys, "bench-compare", "--db", str(db), "--baseline", "main", "--run", "1"
        )
        assert code == 0

    def test_bench_compare_against_run_and_json_baselines(self, db, capsys):
        code, _ = run_cli(
            capsys, "bench-compare", "--db", str(db), "--baseline-run", "1"
        )
        assert code == 1
        code, _ = run_cli(
            capsys,
            "bench-compare",
            "--db",
            str(db),
            "--baseline-json",
            str(REPO_ROOT / "BENCH_runner.json"),
            "--run",
            "1",
            "--expectations",
            str(EXPECTATIONS_TOML),
        )
        assert code == 0

    def test_bench_compare_missing_targets(self, db, tmp_path, capsys):
        code = cli.main(["bench-compare", "--db", str(db), "--baseline", "nope"])
        assert code == 2
        code = cli.main(
            ["bench-compare", "--db", str(tmp_path / "fresh.sqlite")]
        )
        assert code == 2

    def test_bench_baseline_freezes(self, db, capsys):
        code, out = run_cli(
            capsys, "bench-baseline", "release", "--db", str(db), "--run", "2"
        )
        assert code == 0 and "froze baseline 'release' from run 2" in out
        with RunStore(db) as store:
            assert store.baseline("release").run_id == 2


# -------------------------------------------------- bench_runner migration


def _load_bench_runner():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_runner", REPO_ROOT / "benchmarks" / "bench_runner.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchRunnerGate:
    """The file baseline and the stored baseline gate alike."""

    @pytest.fixture(scope="class")
    def bench_runner(self):
        return _load_bench_runner()

    @pytest.fixture(autouse=True)
    def isolated_db(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_DB", str(tmp_path / "runs.sqlite"))
        self.db = tmp_path / "runs.sqlite"
        self.tmp_path = tmp_path

    def _replay(self, bench_runner, record, *argv):
        path = self.tmp_path / "replay.json"
        path.write_text(json.dumps(record))
        return bench_runner.main(["--replay", str(path), *argv])

    def test_flag_and_store_paths_agree_on_committed_record(self, bench_runner):
        from_file = self._replay(
            bench_runner,
            BENCH_RECORD,
            "--baseline",
            str(REPO_ROOT / "BENCH_runner.json"),
            "--snapshot-baseline",
            "main",
        )
        stored = self._replay(
            bench_runner, BENCH_RECORD, "--compare-baseline", "main"
        )
        assert from_file == stored == 0
        with RunStore(self.db) as store:
            assert len(store) == 2  # both paths recorded their run

    @pytest.mark.parametrize(
        "flag",
        (
            "--max-slowdown",
            "--min-batch-speedup",
            "--min-spmu-speedup",
            "--min-formats-speedup",
            "--max-peak-ratio",
            "--min-hypervolume-ratio",
            "--max-eval-fraction",
        ),
    )
    def test_retired_override_flag_is_a_usage_error(self, bench_runner, flag, capsys):
        # expectations.toml is the only gate: a retired threshold flag must
        # fail loudly instead of being accepted and silently ignored.
        with pytest.raises(SystemExit) as exc:
            self._replay(bench_runner, BENCH_RECORD, "--no-run-db", flag, "1.0")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_both_paths_fail_on_injected_regression(self, bench_runner):
        bad = make_record(
            **{"formats.batch_s": BENCH_RECORD["formats"]["batch_s"] * 4}
        )
        from_file = self._replay(
            bench_runner,
            bad,
            "--baseline",
            str(REPO_ROOT / "BENCH_runner.json"),
        )
        # Store-backed path: freeze the committed record, replay the bad run.
        self._replay(bench_runner, BENCH_RECORD, "--snapshot-baseline", "main")
        stored = self._replay(bench_runner, bad, "--compare-baseline", "main")
        assert from_file == stored == 1

    def test_identity_failure_without_baseline(self, bench_runner):
        bad = make_record(**{"costing.identical": False})
        assert self._replay(bench_runner, bad, "--no-run-db") == 1

    def test_scale_bump_no_longer_hard_fails(self, bench_runner):
        bumped = make_record(scale=0.125)
        code = self._replay(
            bench_runner,
            bumped,
            "--baseline",
            str(REPO_ROOT / "BENCH_runner.json"),
        )
        assert code == 0

    def test_missing_baseline_name_falls_back_to_absolute(self, bench_runner, capsys):
        assert self._replay(bench_runner, BENCH_RECORD, "--compare-baseline", "nope") == 0
        assert "absolute checks only" in capsys.readouterr().err

    def test_summary_markdown_written(self, bench_runner):
        summary = self.tmp_path / "summary.md"
        self._replay(
            bench_runner,
            BENCH_RECORD,
            "--baseline",
            str(REPO_ROOT / "BENCH_runner.json"),
            "--summary",
            str(summary),
        )
        text = summary.read_text()
        assert text.startswith("## Bench comparison")
        assert "| ✅ | spmu |" in text

    def test_skipped_sections_are_not_missing(self, bench_runner):
        partial = make_record(spmu=Ellipsis, chunked=Ellipsis)
        code = self._replay(
            bench_runner, partial, "--no-run-db", "--no-spmu", "--no-chunked"
        )
        assert code == 0


def test_history_formatting_smoke(store):
    store.record_run(BENCH_RECORD, fingerprint=FINGERPRINT_A)
    text = format_history(store.runs())
    assert "chunked.chunked_s" in text
    markdown = format_history(store.runs(), markdown=True)
    assert markdown.splitlines()[0].startswith("| run |")
