"""Shared experiment infrastructure: run every application on its datasets.

The evaluation section costs eleven application variants (CSR/COO/CSC SpMV,
Conv, PR-Pull, PR-Edge, BFS, SSSP, M+M, SpMSpM, BiCGStab) on three datasets
each (Table 6). :func:`collect_profiles` runs them all functionally once --
through the registry-driven :class:`~repro.runtime.runner.ExperimentRunner`,
so runs are cached on disk and can fan out over a process pool -- and every
table/figure harness then re-costs those platform-independent profiles under
its own platform variants, which keeps the whole evaluation tractable.

The application dispatch itself lives in :mod:`repro.runtime.registry`;
each module in :mod:`repro.apps` registers its spec (name, Table 6
datasets, input preparation, run callable). ``APP_ORDER`` and
``APP_DATASETS`` below are the harnesses' views of that registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from .. import apps  # noqa: F401  (importing the package registers every app spec)
from ..apps.profile import WorkloadProfile
from ..runtime.cache import ProfileCache
from ..runtime.registry import RunContext, app_datasets, app_order
from ..runtime.runner import ExperimentRunner

#: Default dataset scale for full-suite evaluation runs (see DESIGN.md).
EVAL_SCALE = 1.0 / 64.0

#: The application order used in Table 12 and Figure 7 (registry-derived).
APP_ORDER = app_order()

#: Datasets evaluated per application group (Table 6, registry-derived).
APP_DATASETS: Dict[str, List[str]] = app_datasets()


@dataclass
class ProfileSet:
    """All collected profiles keyed by ``(app, dataset)``."""

    profiles: Dict[tuple, WorkloadProfile]
    scale: float

    def for_app(self, app: str) -> List[WorkloadProfile]:
        """All profiles of one application, in dataset order."""
        return [self.profiles[(app, ds)] for ds in APP_DATASETS[app] if (app, ds) in self.profiles]

    def apps(self) -> List[str]:
        """Applications present in the set, in Table 12 order."""
        present = {app for app, _ in self.profiles}
        return [app for app in APP_ORDER if app in present]


def collect_profiles(
    apps: Optional[List[str]] = None,
    scale: float = EVAL_SCALE,
    pagerank_iterations: int = 2,
    conv_scale: float = 0.125,
    workers: Optional[int] = None,
    cache: Union[ProfileCache, bool, None] = True,
    backend: str = "vectorized",
    executor: Optional[str] = None,
) -> ProfileSet:
    """Run the requested applications functionally and collect profiles.

    Args:
        apps: Application names (defaults to all eleven variants).
        scale: Dataset scale factor for the Table 6 stand-ins.
        pagerank_iterations: Power iterations per PageRank run.
        conv_scale: Channel scale for the ResNet layers.
        workers: Process-pool size for the functional runs; ``None`` reads
            ``REPRO_EVAL_WORKERS`` (default serial).
        cache: On-disk profile cache policy (``True`` uses the default
            cache, ``False`` disables it, or pass a
            :class:`~repro.runtime.cache.ProfileCache`).
        backend: Profiling-kernel backend (``"vectorized"`` or the
            per-element loop ``"reference"``); both produce identical
            profiles.
        executor: Executor name (``"local"``, ``"pool"``, ``"subprocess"``)
            forwarded to the runner; ``None`` picks automatically.
    """
    context = RunContext(
        scale=scale,
        pagerank_iterations=pagerank_iterations,
        conv_scale=conv_scale,
        backend=backend,
    )
    runner = ExperimentRunner(context=context, workers=workers, cache=cache, executor=executor)
    report = runner.run(apps=apps)
    return ProfileSet(
        profiles={(p.app, p.dataset): p for p in report.profiles()}, scale=scale
    )
