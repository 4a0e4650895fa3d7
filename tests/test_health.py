"""Error-classification tests.

They pin the cross-process contract (type names in summary strings) that
the retry loop and the dead-letter logic both depend on.
"""

from __future__ import annotations

import builtins
import importlib
import pkgutil

import repro
from repro.errors import CapstanError, ConfigurationError
from repro.runtime.executors.base import WorkerError
from repro.runtime.health import (
    PERMANENT,
    PERMANENT_ERROR_NAMES,
    TRANSIENT,
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

    def test_bare_type_names(self):
        # A summary that is only a type name still classifies by it.
        assert classify_error("TypeError") == PERMANENT
        assert classify_error("RuntimeError") == TRANSIENT
        assert classify_error("") == TRANSIENT

    def test_worker_error_with_dotted_summary(self):
        error = WorkerError("repro.runtime.jobs.UnitSpecError: unknown work-unit kind 'x'")
        assert classify_error(error) == PERMANENT

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

