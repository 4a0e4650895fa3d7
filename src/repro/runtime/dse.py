"""Design-space exploration: batched costing over configuration grids.

The paper evaluates one fixed Capstan design point and studies sensitivity
along one axis at a time (Tables 9-12). This module opens the configuration
space as a first-class object: :func:`explore` generates a validated
platform grid from :func:`~repro.runtime.sweep.sweep` axes -- including
the structural axes ``lanes`` / ``banks`` / ``compute_units`` /
``queue_depth`` -- collects workload profiles through the cached
:class:`~repro.runtime.runner.ExperimentRunner`, costs the whole
(profile x variant) matrix through :func:`cost_variants`, and extracts the
cycles-vs-area Pareto frontier. ``repro-eval dse`` drives it from the
command line.

:func:`cost_variants` is the one costing core of the DSE layer: the
exhaustive :func:`explore`, the adaptive
:class:`~repro.runtime.search.AdaptiveSearch` and the job layer's
``dse_chunk`` units all reduce (profiles x platforms) to per-variant
gmean cycles, area and gmean energy through it, so a variant costs the
same bits whichever path costs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._budget import resolve_memory_budget
from ..apps.profile import WorkloadProfile
from ..apps.timing import (
    COSTING_BYTES_PER_CELL,
    BatchCostResult,
    CapstanPlatform,
    estimate_cycles_batch,
    iter_cycles_batches,
    merge_batches,
    platform_throughput_variant,
)
from ..core.area import capstan_area
from ..core.spmu import effective_bank_throughput_batch
from ..errors import ConfigurationError
from ..sim.stats import geometric_mean
from .cache import ProfileCache
from .executors import Executor
from .registry import RunContext
from .runner import ExperimentRunner
from .sweep import sweep


def prefill_throughputs(
    platforms: Iterable[CapstanPlatform], *, memory_budget: Optional[int] = None
) -> int:
    """Warm the SpMU throughput caches for a family of platforms.

    Deduplicates the platforms' calibration microbenchmarks, simulates
    every cold one in a single batched lock-step pass (its state bounded by
    ``memory_budget``; ``None`` defers to ``REPRO_MEMORY_BUDGET``), and
    persists the results with one
    :class:`~repro.runtime.cache.ThroughputStore` transaction. Running this
    before launching parallel sweeps (``repro-eval dse --prefill``) means
    the workers find every microbenchmark warm instead of racing to
    re-simulate the same cold variants; the adaptive search runs it over a
    small space's projections before its first generation.

    Returns:
        The number of distinct SpMU variants resolved (warm or cold).
    """
    variants = {
        platform_throughput_variant(p) for p in platforms if not p.ideal_sram
    }
    if not variants:
        return 0
    effective_bank_throughput_batch(sorted(variants, key=repr), memory_budget=memory_budget)
    return len(variants)


#: :func:`pareto_frontier` sweeps at most this many points per block (64
#: was fastest of 16-512 on 2,048 x 3 costs) and compares at most
#: ``_PARETO_BLOCK_PAIRS`` (block point, frontier point) pairs at once.
_PARETO_BLOCK_ROWS = 64
_PARETO_BLOCK_PAIRS = 1 << 18


def _dominated(points: np.ndarray, by: np.ndarray) -> np.ndarray:
    """Per row of ``points``: does some row of ``by`` dominate it?"""
    if not by.shape[0]:
        return np.zeros(points.shape[0], dtype=bool)
    below = by[None, :, :] <= points[:, None, :]
    strict = by[None, :, :] < points[:, None, :]
    return (below.all(axis=2) & strict.any(axis=2)).any(axis=1)


def pareto_frontier(costs: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated rows of a (points x objectives) matrix.

    All objectives are minimized. A point is dominated when some other
    point is no worse in every objective and strictly better in at least
    one; ties (duplicated points) are all kept. Indices come back in input
    order.

    A dominator is no worse everywhere and strictly better somewhere, so it
    sorts strictly before the point it dominates lexicographically; and
    dominance is transitive, so a point is dominated iff a non-dominated
    point dominates it. The sweep therefore visits points in lexicographic
    order, a block at a time, and tests each block only against the
    frontier found so far and the block's own survivors.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2:
        raise ConfigurationError("costs must be a 2-D (points x objectives) array")
    points, objectives = costs.shape
    if not objectives:
        return np.arange(points)
    order = np.lexsort(costs.T[::-1])
    ranked = costs[order]
    keep = np.zeros(points, dtype=bool)
    front = ranked[:0]
    start = 0
    while start < points:
        block = max(1, min(_PARETO_BLOCK_ROWS, _PARETO_BLOCK_PAIRS // (front.shape[0] + 1)))
        stop = min(start + block, points)
        rows = np.arange(start, stop)
        rows = rows[~_dominated(ranked[start:stop], front)]
        rows = rows[~_dominated(ranked[rows], ranked[rows])]
        keep[order[rows]] = True
        front = np.concatenate([front, ranked[rows]])
        start = stop
    return np.nonzero(keep)[0]


@dataclass
class VariantCosts:
    """Per-variant objectives of one (profile x variant) costing pass.

    Attributes:
        gmean_cycles: Geometric-mean cycles over the profiles, per variant.
        area_mm2: Modelled chip area per variant.
        gmean_energy_mj: Geometric-mean energy (mJ) per variant when costed
            with ``energy=True``, else ``None``.
        batch: The full per-cell costing (cycles and stall categories) when
            kept, else ``None`` (streamed out under a memory budget).
    """

    gmean_cycles: np.ndarray
    area_mm2: np.ndarray
    gmean_energy_mj: Optional[np.ndarray] = None
    batch: Optional[BatchCostResult] = None


@dataclass(kw_only=True)
class DSEResult(VariantCosts):
    """Cost/area grid of one design-space exploration.

    Attributes:
        variants: The swept platforms by variant name, in sweep order.
        tasks: The ``(app, dataset)`` coordinates of each profile row.
    """

    variants: Dict[str, CapstanPlatform]
    tasks: List[Tuple[str, str]]
    _frontiers: Dict[Tuple[str, ...], Tuple[str, ...]] = field(
        default_factory=dict, repr=False
    )

    @property
    def names(self) -> List[str]:
        """Variant names in sweep order."""
        return list(self.variants)

    @property
    def cycles(self) -> np.ndarray:
        """Per-cell cycles, shape ``(len(tasks), len(variants))``."""
        if self.batch is None:
            raise ConfigurationError(
                "per-cell cycles were streamed out under the memory budget; "
                "drop the budget, or raise it to fit the whole grid, to keep them"
            )
        return self.batch.cycles

    def _objective_values(self, objective: str) -> np.ndarray:
        if objective == "cycles":
            return self.gmean_cycles
        if objective == "area":
            return self.area_mm2
        if objective == "energy":
            if self.gmean_energy_mj is None:
                raise ConfigurationError(
                    "energy was not costed; pass energy=True to explore() "
                    "(repro-eval dse --objective ...,energy)"
                )
            return self.gmean_energy_mj
        raise ConfigurationError(
            f"unknown objective {objective!r}; known: cycles, area, energy"
        )

    def frontier(self, objectives: Optional[Sequence[str]] = None) -> Tuple[str, ...]:
        """Variant names on the Pareto frontier of the given objectives.

        Defaults to the classic (gmean cycles, area) frontier; pass
        ``("cycles", "area", "energy")`` for the energy-aware frontier
        (requires the exploration to have costed energy).
        """
        key = tuple(objectives) if objectives is not None else ("cycles", "area")
        cached = self._frontiers.get(key)
        if cached is None:
            costs = np.column_stack([self._objective_values(o) for o in key])
            names = self.names
            cached = tuple(names[i] for i in pareto_frontier(costs))
            self._frontiers[key] = cached
        return cached

    def rows(self) -> List[Dict[str, Any]]:
        """One report row per variant: name, gmean cycles, area, frontier flag.

        Built from the per-variant aggregate arrays only, so it works even
        when the per-cell grid was streamed out under a memory budget.
        """
        on_frontier = set(self.frontier())
        rows = []
        for j, name in enumerate(self.names):
            row: Dict[str, Any] = {
                "name": name,
                "gmean_cycles": float(self.gmean_cycles[j]),
                "area_mm2": float(self.area_mm2[j]),
            }
            if self.gmean_energy_mj is not None:
                row["gmean_energy_mj"] = float(self.gmean_energy_mj[j])
            row["pareto"] = name in on_frontier
            rows.append(row)
        return rows

    def top_rows(self, n: int, key: str = "gmean_cycles") -> List[Dict[str, Any]]:
        """The ``n`` best report rows, sorted ascending by ``key``.

        Streaming-safe: only the per-variant aggregates are consulted, so
        ``--top`` works under ``--memory-budget`` without materializing
        the per-cell grid.
        """
        rows = self.rows()
        if key not in ("gmean_cycles", "area_mm2", "gmean_energy_mj"):
            raise ConfigurationError(
                f"unknown top_rows key {key!r}; known: gmean_cycles, area_mm2, "
                "gmean_energy_mj"
            )
        if key == "gmean_energy_mj" and self.gmean_energy_mj is None:
            raise ConfigurationError(
                "energy was not costed; pass energy=True to explore()"
            )
        rows.sort(key=lambda r: r[key])
        return rows[: max(0, n)]


def cost_variants(
    profiles: Sequence[WorkloadProfile],
    platforms: Sequence[CapstanPlatform],
    *,
    energy: bool = False,
    memory_budget: Optional[int] = None,
    keep_grid: bool = False,
) -> VariantCosts:
    """Cost every platform on every profile, reduced per variant.

    The grid streams in ``memory_budget``-sized platform chunks (``None``
    defers to ``REPRO_MEMORY_BUDGET``). Each chunk holds whole profile
    columns, so the per-variant gmeans are the floats of the full grid,
    which is only kept (joined by ``merge_batches``) under ``keep_grid``.
    """
    cycles: List[float] = []
    energies: List[float] = []
    parts: List[BatchCostResult] = []
    for _chunk, batch in iter_cycles_batches(
        profiles, platforms, memory_budget=memory_budget, energy=energy
    ):
        for j in range(batch.cycles.shape[1]):
            cycles.append(geometric_mean([float(c) for c in batch.cycles[:, j]]))
            if energy:
                energies.append(geometric_mean([float(e) for e in batch.energy_mj[:, j]]))
        if keep_grid:
            parts.append(batch)
    grid: Optional[BatchCostResult] = None
    if keep_grid:
        # A budgeted pass over zero platforms yields no chunk at all.
        grid = merge_batches(parts) if parts else estimate_cycles_batch(
            profiles, [], energy=energy
        )
    return VariantCosts(
        gmean_cycles=np.asarray(cycles, dtype=np.float64),
        area_mm2=np.array([capstan_area(p.config).total_mm2 for p in platforms]),
        gmean_energy_mj=np.asarray(energies, dtype=np.float64) if energy else None,
        batch=grid,
    )


def explore(
    *,
    base: Optional[CapstanPlatform] = None,
    name: Optional[Callable[[Dict[str, Any]], str]] = None,
    profiles: Optional[Sequence[WorkloadProfile]] = None,
    apps: Optional[Sequence[str]] = None,
    context: Optional[RunContext] = None,
    workers: Optional[int] = None,
    cache: Union[ProfileCache, bool, None] = True,
    executor: Union[str, Executor, None] = None,
    memory_budget: Optional[int] = None,
    energy: bool = False,
    seed: Optional[int] = None,
    **axes: Iterable[Any],
) -> DSEResult:
    """Cost the evaluation workloads over a configuration grid.

    Args:
        base: Platform the variants derive from (default design point).
        name: Optional variant-labelling callable (see :func:`sweep`).
        profiles: Pre-collected profiles to cost; when ``None``, the
            registered applications are collected through the cached
            :class:`ExperimentRunner`.
        apps: Application subset to collect (ignored when ``profiles`` is
            given).
        context: Run parameters for profile collection (scale etc.).
        workers / cache / executor: Forwarded to the
            :class:`ExperimentRunner` (``executor`` picks the execution
            backend for profile collection: a name, an
            :class:`~repro.runtime.executors.base.Executor` instance, or
            ``None`` for ``workers`` subprocess workers when they pay off,
            else serial in process).
        memory_budget: Byte budget for the costing working set; the
            (profile x variant) cross-product streams through it chunk by
            chunk with the geometric-mean / Pareto state folded
            incrementally (identical floats -- each chunk carries complete
            profile columns). ``None`` defers to ``REPRO_MEMORY_BUDGET``.
            The full :class:`BatchCostResult` grid is kept as ``batch``
            without a budget, or when the whole grid fits in it; otherwise
            ``batch`` is ``None`` and only the aggregate arrays (gmean
            cycles, area, frontier) are kept.
        energy: Also cost per-variant energy through the
            :mod:`repro.core.energy` model (fills ``gmean_energy_mj`` and
            enables the energy-aware frontier).
        seed: Shuffle the variant evaluation order with one
            ``numpy.random.default_rng(seed)``. The same seed yields the
            same order (and therefore byte-identical reports); ``None``
            keeps cartesian sweep order.
        **axes: Sweep axes, e.g. ``lanes=(8, 16, 32), banks=(8, 16)``.

    Returns:
        A :class:`DSEResult` with the cost grid, areas, and Pareto frontier.
    """
    variants = sweep(base, name=name, **axes)
    if seed is not None:
        rng = np.random.default_rng(seed)
        names = list(variants)
        order = rng.permutation(len(names))
        variants = {names[i]: variants[names[i]] for i in order}
    if profiles is None:
        runner = ExperimentRunner(
            context=context or RunContext(),
            workers=workers,
            cache=cache,
            executor=executor,
        )
        collected = runner.run(apps=list(apps) if apps is not None else None).profiles()
    else:
        collected = list(profiles)
    budget = resolve_memory_budget(memory_budget)
    keep_grid = budget is None or len(collected) * len(variants) * COSTING_BYTES_PER_CELL <= budget
    costs = cost_variants(
        collected, list(variants.values()), energy=energy, memory_budget=budget, keep_grid=keep_grid
    )
    tasks = [(p.app, p.dataset) for p in collected]
    return DSEResult(variants=variants, tasks=tasks, **vars(costs))
