"""Experiment runtime: registry, caching, parallel execution, sweeps.

This package is the layer between the applications (:mod:`repro.apps`) and
the evaluation harnesses (:mod:`repro.eval`). It owns these concerns:

* :mod:`repro.runtime.registry` -- a decorator-based :class:`AppSpec`
  registry each application module registers into, replacing hand-written
  dispatch tables;
* :mod:`repro.runtime.cache` -- a content-addressed on-disk cache for
  :class:`~repro.apps.profile.WorkloadProfile` objects keyed by
  (app, dataset, run context, code fingerprint);
* :mod:`repro.runtime.runner` -- an :class:`ExperimentRunner` that fans the
  (app x dataset) grid out over ``repro-eval worker`` subprocesses (see
  :mod:`repro.runtime.executors`) with structured per-task results and
  deterministic ordering;
* :mod:`repro.runtime.sweep` -- a declarative generator for the
  :class:`~repro.apps.timing.CapstanPlatform` variants the sensitivity
  studies cost profiles under;
* :mod:`repro.runtime.dse` -- design-space exploration: batched costing of
  whole configuration grids (including structural axes) with Pareto-frontier
  extraction over cycles and area;
* :mod:`repro.runtime.runstore` -- the SQLite experiment store recording
  every bench run (schema in ``schema.sql``, ``REPRO_RUN_DB`` seam); the
  regression analytics in :mod:`repro.eval.regression` read it.
"""

from .registry import (
    AppSpec,
    RegistryError,
    RunContext,
    app_datasets,
    app_order,
    execute,
    get_spec,
    register_app,
    registered_specs,
)
from .cache import (
    ProfileCache,
    ThroughputStore,
    code_fingerprint,
    profile_from_dict,
    profile_to_dict,
)
from .dse import DSEResult, explore, pareto_frontier, prefill_throughputs
from .runner import ExperimentRunner, RunReport, TaskResult
from .runstore import BaselineRecord, RunRecord, RunStore, default_run_db

__all__ = [
    "DSEResult",
    "ThroughputStore",
    "explore",
    "pareto_frontier",
    "prefill_throughputs",
    "AppSpec",
    "RegistryError",
    "RunContext",
    "app_datasets",
    "app_order",
    "execute",
    "get_spec",
    "register_app",
    "registered_specs",
    "ProfileCache",
    "code_fingerprint",
    "profile_to_dict",
    "profile_from_dict",
    "ExperimentRunner",
    "RunReport",
    "TaskResult",
    "BaselineRecord",
    "RunRecord",
    "RunStore",
    "default_run_db",
]
