"""Health-layer tests: error classification, windows, circuit breakers.

The breaker tests drive state transitions with an injected clock, so no
test here sleeps; the classification tests pin the cross-process
contract (type names in summary strings) that the retry loop and the
dead-letter logic both depend on.
"""

from __future__ import annotations

import builtins
import importlib
import pkgutil

import repro
from repro.errors import CapstanError, ConfigurationError
from repro.runtime.executors.base import WorkerError
from repro.runtime.health import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    PERMANENT,
    PERMANENT_ERROR_NAMES,
    TRANSIENT,
    CircuitBreaker,
    HealthRegistry,
    RollingWindow,
    WorkerHealth,
    classify_error,
)
from repro.runtime.jobs import JobError, UnitSpecError


class TestClassifyError:
    def test_live_exceptions_by_mro(self):
        assert classify_error(TypeError("bad call")) == PERMANENT
        assert classify_error(ModuleNotFoundError("no module")) == PERMANENT
        assert classify_error(ConfigurationError("bad knob")) == PERMANENT
        assert classify_error(RuntimeError("flaky")) == TRANSIENT
        assert classify_error(OSError("pipe broke")) == TRANSIENT

    def test_subclass_inherits_permanence(self):
        class CustomSpecError(UnitSpecError):
            pass

        assert classify_error(CustomSpecError("still a spec problem")) == PERMANENT

    def test_job_error_stays_transient(self):
        # The probe unit's deliberate failures raise JobError; retry tests
        # depend on those earning retries.
        assert classify_error(JobError("probe failing on attempt 1 of 2")) == TRANSIENT

    def test_summary_strings_cross_process(self):
        assert classify_error("ImportError: no module named numba") == PERMANENT
        assert classify_error("UnitSpecError: unknown work-unit kind 'x'") == PERMANENT
        assert classify_error("JobError: probe failing on attempt 1 of 3") == TRANSIENT
        # Prose (no leading type name) is not a classification signal.
        assert classify_error("unit exceeded 5s timeout") == TRANSIENT
        # Dotted names classify by their last component.
        assert classify_error("repro.errors.ConfigurationError: bad") == PERMANENT

    def test_worker_error_classifies_by_message_head(self):
        # Across the subprocess boundary only the summary survives, inside
        # a WorkerError whose own type is (correctly) transient.
        assert classify_error(WorkerError("AttributeError: 'NoneType' ...")) == PERMANENT
        assert classify_error(WorkerError("worker died mid-unit")) == TRANSIENT

    def test_unknowns_default_transient(self):
        assert classify_error(None) == TRANSIENT
        assert classify_error(42) == TRANSIENT

    def test_permanent_names_are_live_exception_classes(self):
        # A classifier entry naming a deleted or renamed class would never
        # match again; every entry must be a builtin exception or a
        # CapstanError subclass defined somewhere in the package.
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(module.name)
        defined = set()
        pending = [CapstanError]
        while pending:
            cls = pending.pop()
            if cls.__module__.split(".")[0] == "repro":
                defined.add(cls.__name__)
            pending.extend(cls.__subclasses__())
        builtin = {
            name
            for name, value in vars(builtins).items()
            if isinstance(value, type) and issubclass(value, BaseException)
        }
        assert PERMANENT_ERROR_NAMES - builtin - defined == set()


class TestRollingWindow:
    def test_bounded_and_aggregated(self):
        window = RollingWindow(size=4)
        for i in range(6):
            window.record(ok=(i % 2 == 0), duration_s=float(i))
        assert len(window) == 4  # only the last four survive
        assert window.failures == 2
        assert window.failure_rate == 0.5
        assert window.mean_duration_s == (2 + 3 + 4 + 5) / 4

    def test_empty_window_rates(self):
        window = RollingWindow()
        assert window.failure_rate == 0.0
        assert window.mean_duration_s == 0.0


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        self.now = 0.0
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("cooldown_s", 10.0)
        return CircuitBreaker(clock=lambda: self.now, **kwargs)

    def test_closed_until_threshold(self):
        breaker = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_streak(self):
        breaker = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED  # never three *consecutive* failures

    def test_half_open_admits_exactly_one_probe(self):
        breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()  # cooldown not elapsed
        self.now = 10.0
        assert breaker.allow()  # the probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # held while the probe is in flight

    def test_probe_success_closes(self):
        breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        self.now = 10.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED and breaker.allow()

    def test_probe_failure_reopens_for_another_cooldown(self):
        breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        self.now = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 2
        assert not breaker.allow()  # a fresh cooldown starts at now=10
        self.now = 20.0
        assert breaker.allow()

    def test_zero_cooldown_goes_straight_to_probe(self):
        # The subprocess executor's default: replace immediately, no stall.
        breaker = self._breaker(cooldown_s=0.0, failure_threshold=1)
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.allow()
        assert breaker.state == HALF_OPEN


class TestWorkerHealth:
    def test_record_feeds_window_and_breaker(self):
        health = WorkerHealth(slot=0)
        health.record(ok=False, duration_s=0.1)
        health.record(ok=True, duration_s=0.2)
        assert health.window.failures == 1
        assert health.breaker.state == CLOSED

    def test_spawn_after_trip_counts_as_replacement(self):
        health = WorkerHealth(slot=0, breaker=CircuitBreaker(failure_threshold=1))
        health.note_spawn()
        assert (health.launched, health.replaced) == (1, 0)
        health.record(ok=False, duration_s=0.1)
        health.breaker.allow()  # quarantine check transitions to half-open
        health.note_spawn()
        assert (health.launched, health.replaced) == (2, 1)

    def test_registry_report(self):
        registry = HealthRegistry(window=8, failure_threshold=2)
        registry.slot(0).record(ok=True, duration_s=0.5)
        registry.slot(1).record(ok=False, duration_s=0.1)
        report = registry.report()
        assert sorted(report) == [0, 1]
        assert report[0]["failures"] == 0
        assert report[1]["failures"] == 1
        assert report[1]["state"] == CLOSED
        assert registry.slot(0) is registry.slot(0)  # stable per-slot objects
