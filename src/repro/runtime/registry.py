"""Decorator-based application registry.

Every application module in :mod:`repro.apps` registers an :class:`AppSpec`
describing how to evaluate one application variant: its Table 12 name, the
Table 6 datasets it runs on, an input-preparation callable, and the
functional run callable. The registry replaces the three hand-maintained
structures the eval layer used to carry (``APP_ORDER``, ``APP_DATASETS``,
and a chain of per-app input helpers), so adding a new application or
dataset is a single registration:

    @register_app("spmv-csr", datasets=LINEAR_ALGEBRA_DATASETS,
                  run=spmv_csr, order=10)
    def _prepare(dataset: str, context: RunContext) -> dict:
        ...
        return {"matrix": csr, "vector": vector, "dataset": name}

This module deliberately imports nothing from :mod:`repro.apps` at import
time: the app modules import the registry (to register themselves), not the
other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..apps.profile import WorkloadProfile
    from ..config import ScannerConfig


class RegistryError(ValueError):
    """Raised for unknown applications or conflicting registrations."""


#: All tunable RunContext parameter names (scanner overrides are separate).
CONTEXT_PARAMETERS = ("scale", "pagerank_iterations", "conv_scale")


@dataclass(frozen=True)
class RunContext:
    """Everything that parameterizes one functional evaluation run.

    The context, together with the application name, the dataset name, and
    the code fingerprint, fully determines a
    :class:`~repro.apps.profile.WorkloadProfile`; it is therefore also the
    cache-key material for :class:`~repro.runtime.cache.ProfileCache`.

    Attributes:
        scale: Dataset scale factor for the Table 6 stand-ins.
        pagerank_iterations: Power iterations per PageRank run.
        conv_scale: Channel scale for the ResNet layers.
        scanner: Optional scanner-configuration override; when set, the
            application's scan costs are computed as if the default
            scanner had this configuration.
        backend: Profiling-kernel backend every application runs with:
            ``"vectorized"`` (default, batch numpy kernels) or
            ``"reference"`` (the per-element loop implementations the
            vectorized kernels are validated against).
    """

    scale: float = 1.0 / 64.0
    pagerank_iterations: int = 2
    conv_scale: float = 0.125
    scanner: Optional["ScannerConfig"] = None
    backend: str = "vectorized"

    def fingerprint(self, fields: Optional[Tuple[str, ...]] = None) -> Dict[str, Any]:
        """A JSON-serializable dict identifying this context for caching.

        Args:
            fields: The parameter names to include (an application's
                :attr:`AppSpec.context_fields`); ``None`` includes all of
                them. A scanner override is always included -- it changes
                every application's scan-cost profile -- and so is the
                kernel backend: the two backends must produce identical
                profiles, but cached entries still record which kernels
                computed them so an equivalence regression can never be
                masked (or caused) by a stale cache hit.
        """
        import dataclasses

        selected = CONTEXT_PARAMETERS if fields is None else fields
        material: Dict[str, Any] = {name: getattr(self, name) for name in selected}
        material["backend"] = self.backend
        if self.scanner is not None:
            material["scanner"] = dataclasses.asdict(self.scanner)
        return material


@dataclass(frozen=True)
class AppSpec:
    """One registered application variant.

    Attributes:
        name: Application name as reported in the tables (e.g. ``"spmv-csr"``).
        datasets: Dataset names the application is evaluated on (Table 6).
        prepare: ``prepare(dataset, context) -> kwargs`` building the inputs
            of one functional run.
        run: The application entry point, called as ``run(**kwargs)``;
            returns an :class:`~repro.apps.common.AppRun` (or anything with a
            ``profile`` attribute, or a bare profile).
        order: Sort key giving the Table 12 application order.
        context_fields: The :class:`RunContext` parameters this application's
            profile actually depends on; the profile cache fingerprints only
            these, so changing e.g. ``pagerank_iterations`` does not
            invalidate non-PageRank entries. ``None`` means all of them.
    """

    name: str
    datasets: Tuple[str, ...]
    prepare: Callable[[str, RunContext], Mapping[str, Any]]
    run: Callable[..., Any]
    order: int = 1000
    context_fields: Optional[Tuple[str, ...]] = CONTEXT_PARAMETERS

    def execute(self, dataset: str, context: Optional[RunContext] = None) -> "WorkloadProfile":
        """Prepare inputs and run this application once on ``dataset``.

        A scanner override only changes how the run's scans are costed: the
        run's scan-cost calls are costed under the override (a context-local
        setting, so concurrent runs keep their own scanner).
        """
        context = context or RunContext()
        inputs = dict(self.prepare(dataset, context))
        if _accepts_backend(self.run):
            inputs.setdefault("backend", context.backend)
        if context.scanner is None:
            result = self.run(**inputs)
        else:
            from ..apps.scan_model import record_scans

            with record_scans([context.scanner]):
                result = self.run(**inputs)
        return getattr(result, "profile", result)


def _accepts_backend(run: Callable[..., Any]) -> bool:
    """Whether a run callable takes the ``backend`` keyword.

    Every application in :mod:`repro.apps` does; ad-hoc callables registered
    by tests or notebooks may not, and keep working without it.
    """
    import inspect

    try:
        parameters = inspect.signature(run).parameters
    except (TypeError, ValueError):  # builtins / C callables
        return False
    if "backend" in parameters:
        return True
    return any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values())


#: All registered specs by name (populated by the app modules on import).
_REGISTRY: Dict[str, AppSpec] = {}


def register(spec: AppSpec) -> AppSpec:
    """Register one spec; conflicting re-registration of a name is an error.

    Re-registering a logically identical spec (same name, datasets, order,
    and context fields -- the callables are allowed to differ so module
    reloads in notebooks/REPLs stay idempotent) replaces the old entry.
    """
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing is not spec:
        same_shape = (
            existing.datasets == spec.datasets
            and existing.order == spec.order
            and existing.context_fields == spec.context_fields
        )
        if not same_shape:
            raise RegistryError(
                f"application {spec.name!r} is already registered with a different spec"
            )
    _REGISTRY[spec.name] = spec
    return spec


def register_app(
    name: str,
    *,
    datasets: Tuple[str, ...],
    run: Callable[..., Any],
    order: int = 1000,
    context_fields: Optional[Tuple[str, ...]] = CONTEXT_PARAMETERS,
) -> Callable[[Callable[[str, RunContext], Mapping[str, Any]]], Callable]:
    """Decorator registering ``prepare`` as the input builder of one app."""

    def decorate(prepare: Callable[[str, RunContext], Mapping[str, Any]]):
        register(
            AppSpec(
                name=name,
                datasets=tuple(datasets),
                prepare=prepare,
                run=run,
                order=order,
                context_fields=context_fields,
            )
        )
        return prepare

    return decorate


def get_spec(name: str) -> AppSpec:
    """Look up one registered application (raises :class:`RegistryError`)."""
    _ensure_apps_imported()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise RegistryError(f"unknown application {name!r}; registered: {known}") from None


def registered_specs() -> List[AppSpec]:
    """All registered specs in Table 12 order."""
    _ensure_apps_imported()
    return sorted(_REGISTRY.values(), key=lambda spec: (spec.order, spec.name))


def app_order() -> Tuple[str, ...]:
    """Registered application names in Table 12 order."""
    return tuple(spec.name for spec in registered_specs())


def app_datasets() -> Dict[str, List[str]]:
    """Datasets evaluated per application (Table 6), in registry order."""
    return {spec.name: list(spec.datasets) for spec in registered_specs()}


def execute(name: str, dataset: str, context: Optional[RunContext] = None) -> "WorkloadProfile":
    """Run one registered application functionally and return its profile.

    This is pure execution -- no caching; callers that want the on-disk
    profile cache should go through
    :class:`~repro.runtime.runner.ExperimentRunner`.
    """
    return get_spec(name).execute(dataset, context)


def _ensure_apps_imported() -> None:
    """Import :mod:`repro.apps` so its modules have registered their specs.

    Lookups may happen before anything imported the apps package (e.g. in a
    freshly spawned worker process); importing it here makes the registry
    self-populating without creating an import cycle at module load.
    """
    if not _REGISTRY:
        from .. import apps  # noqa: F401
