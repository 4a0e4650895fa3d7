"""Adaptive multi-objective design-space search over kilovariant spaces.

:func:`~repro.runtime.dse.explore` enumerates a configuration grid
exhaustively, which caps practical sweeps at 10^3-10^4 variants even with
the batched costing engines. This module searches instead of enumerating:
an :class:`AdaptiveSearch` proposes whole variant *batches* per
generation, builds them with the sweep's
:func:`~repro.runtime.sweep.build_variant` and costs them through
:func:`~repro.runtime.dse.cost_variants` -- the same core ``explore``
uses, streaming under the memory budget, with
``effective_bank_throughput_batch`` plus the ``ThroughputStore`` as the
shared cross-generation microbenchmark cache, filled in one batch before
generation 0 when the space has few enough SpMU projections -- and drives
the proposals from multi-objective costs over (cycles gmean, area, energy
gmean).

Two strategies ship behind one :class:`SearchStrategy` protocol:

* :class:`SuccessiveHalving` -- evaluate a wide rung on a cheap profile
  subset, promote the Pareto-best survivors to progressively fuller
  costing, finishing on the full profile set;
* :class:`Evolutionary` -- a seeded population (default design point plus
  axis extremes) evolved by tournament selection, uniform crossover, and
  per-axis mutation, always at full fidelity.

Every generation is committed to a :class:`SearchStore` (JSON state files
keyed by the search's content hash), so a killed ``repro-eval dse
--search`` run, re-run with the same parameters, resumes mid-frontier
with zero re-evaluation of committed generations. ``GET /frontier`` on
the serve layer answers from the store's latest persisted result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..apps.profile import WorkloadProfile
from ..apps.timing import PLATFORM_ALLOCATORS, CapstanPlatform
from ..core.bank_hash import BANK_MAPPINGS
from ..errors import ConfigurationError
from .cache import code_fingerprint, content_key, env_root, read_json, write_json_atomic
from .dse import cost_variants, pareto_frontier, prefill_throughputs
from .sweep import (
    axis_value,
    axis_value_to_json,
    build_variant,
    default_variant_name,
    parse_axis_value,
    spmu_projection_bound,
    spmu_projection_sweep,
)

#: Objectives the search can minimize, in canonical order.
OBJECTIVES = ("cycles", "area", "energy")

#: A design point: one value index per search-space axis.
Combo = Tuple[int, ...]

#: Successive halving keeps the best ``1/HALVING_ETA`` of each rung, but
#: at least ``HALVING_MIN_RUNG`` points, and costs its first rung on
#: ``HALVING_MIN_FIDELITY`` of the profiles.
HALVING_ETA = 4
HALVING_MIN_FIDELITY = 0.1
HALVING_MIN_RUNG = 4

#: The evolutionary loop's per-axis mutation rate, crossover probability
#: and tournament size.
EVOLVE_MUTATION = 0.25
EVOLVE_CROSSOVER = 0.6
EVOLVE_TOURNAMENT = 3

#: Default kilovariant search space (110,592 points): every structural
#: axis the SpMU/CU models expose plus the platform-policy axes. Lanes and
#: banks stay powers of two (``CapstanConfig.validate`` requires it).
DEFAULT_SEARCH_AXES: Dict[str, Tuple[Any, ...]] = {
    "lanes": (4, 8, 16, 32),
    "banks": (8, 16, 32, 64),
    "compute_units": (64, 100, 144, 196, 256, 324, 400, 484),
    "queue_depth": (4, 8, 16, 32),
    "crossbar_inputs": (8, 16, 32, 64),
    "memory": ("ddr4", "hbm2", "hbm2e"),
    "ordering": ("unordered", "address-ordered", "fully-ordered"),
    "bank_mapping": BANK_MAPPINGS,
    "allocator": PLATFORM_ALLOCATORS,
}


@dataclass(frozen=True)
class SearchSpace:
    """A discrete design space: an ordered list of axes with candidate
    values, addressed by per-axis value indices (a :data:`Combo`)."""

    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]

    @classmethod
    def from_axes(cls, axes: Mapping[str, Iterable[Any]]) -> "SearchSpace":
        """Build a space from ``{axis: values}``, parsing CLI/JSON values
        through the shared sweep parsers.

        Every value is built onto the default design point once, so an
        illegal one (``lanes=12``) fails here rather than in whichever
        generation first proposes it. ``validate()`` checks each field on
        its own, so a value that builds alone builds in every combination.
        """
        parsed: List[Tuple[str, Tuple[Any, ...]]] = []
        for axis, values in axes.items():
            seen: List[Any] = []
            for value in values:
                native = parse_axis_value(axis, value)
                if native not in seen:
                    build_variant(None, {axis: native}, axis)
                    seen.append(native)
            if not seen:
                raise ConfigurationError(f"search axis {axis!r} has no values")
            parsed.append((axis, tuple(seen)))
        if not parsed:
            raise ConfigurationError("a search space needs at least one axis")
        return cls(axes=tuple(parsed))

    @property
    def size(self) -> int:
        """Number of points in the cartesian space."""
        size = 1
        for _, values in self.axes:
            size *= len(values)
        return size

    def combo_values(self, combo: Combo) -> Dict[str, Any]:
        """The native axis values of one design point."""
        return {axis: values[i] for (axis, values), i in zip(self.axes, combo)}

    def variant_name(self, combo: Combo) -> str:
        """The sweep-style variant label of one design point."""
        return default_variant_name(self.combo_values(combo))

    def platform(self, combo: Combo) -> CapstanPlatform:
        """Materialize one design point as a validated platform."""
        return build_variant(None, self.combo_values(combo), self.variant_name(combo))

    def random_combo(self, rng: np.random.Generator) -> Combo:
        """A uniformly random design point."""
        return tuple(int(rng.integers(len(values))) for _, values in self.axes)

    def mutate(self, combo: Combo, rng: np.random.Generator, rate: float) -> Combo:
        """Resample each gene with probability ``rate`` (at least one)."""
        genes = list(combo)
        mutable = [k for k, (_, values) in enumerate(self.axes) if len(values) > 1]
        if not mutable:
            return combo
        changed = False
        for k in mutable:
            if rng.random() < rate:
                options = len(self.axes[k][1])
                shift = 1 + int(rng.integers(options - 1))
                genes[k] = (genes[k] + shift) % options
                changed = True
        if not changed:
            k = mutable[int(rng.integers(len(mutable)))]
            options = len(self.axes[k][1])
            shift = 1 + int(rng.integers(options - 1))
            genes[k] = (genes[k] + shift) % options
        return tuple(genes)

    def crossover(self, a: Combo, b: Combo, rng: np.random.Generator) -> Combo:
        """Uniform per-gene crossover of two design points."""
        return tuple(
            a[k] if rng.random() < 0.5 else b[k] for k in range(len(self.axes))
        )

    def default_combo(self) -> Combo:
        """The point closest to the paper's design point: per axis, the
        index of its value when that is a candidate, else the middle
        candidate."""
        platform = CapstanPlatform()
        combo = []
        for axis, values in self.axes:
            value = axis_value(platform, axis)
            combo.append(
                values.index(value) if value in values else len(values) // 2
            )
        return tuple(combo)

    def seed_combos(self) -> List[Combo]:
        """Deterministic seed points: the default design point plus, per
        axis, the default with that axis pushed to each extreme."""
        default = self.default_combo()
        seeds = [default]
        for k, (_, values) in enumerate(self.axes):
            for extreme in (0, len(values) - 1):
                candidate = default[:k] + (extreme,) + default[k + 1 :]
                if candidate not in seeds:
                    seeds.append(candidate)
        return seeds

    def to_json(self) -> Dict[str, List[Any]]:
        """JSON form of the axes (enums collapse to their values)."""
        return {
            axis: [axis_value_to_json(v) for v in values] for axis, values in self.axes
        }


# --------------------------------------------------------------------------- #
# Multi-objective utilities
# --------------------------------------------------------------------------- #


def scalarize(costs: np.ndarray) -> np.ndarray:
    """Log-normalized mean of a (points x objectives) cost matrix.

    Each objective is normalized by the population's best value before the
    log, so the scalar is scale-free: a point one "doubling" worse than
    the per-objective best in every objective scores ``log(2)`` regardless
    of the objectives' units. Used to rank points *within* a Pareto rank;
    frontier membership itself stays scalarization-free.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2:
        raise ConfigurationError("costs must be a 2-D (points x objectives) array")
    if costs.shape[0] == 0:
        return np.zeros(0)
    floor = np.maximum(costs, 1e-12)
    best = floor.min(axis=0)
    objectives = costs.shape[1]
    return np.log(floor / best) @ np.full(objectives, 1.0 / objectives)


def pareto_ranks(costs: np.ndarray) -> np.ndarray:
    """Non-dominated sorting ranks (0 = Pareto frontier, peeled layers)."""
    costs = np.asarray(costs, dtype=np.float64)
    n = costs.shape[0]
    ranks = np.zeros(n, dtype=np.int64)
    remaining = np.arange(n)
    layer = 0
    while remaining.size:
        front = pareto_frontier(costs[remaining])
        ranks[remaining[front]] = layer
        remaining = np.delete(remaining, front)
        layer += 1
    return ranks


def rank_order(costs: np.ndarray) -> np.ndarray:
    """Indices of ``costs`` from best to worst: by Pareto rank, scalarized
    score within a rank, and input order as the final (stable) tie-break."""
    costs = np.asarray(costs, dtype=np.float64)
    if costs.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    ranks = pareto_ranks(costs)
    scores = scalarize(costs)
    return np.lexsort((np.arange(costs.shape[0]), scores, ranks))


def hypervolume(costs: np.ndarray, reference: Sequence[float]) -> float:
    """Exact hypervolume dominated by ``costs`` up to ``reference``.

    All objectives are minimized; points not strictly better than the
    reference in every objective contribute nothing. Exact for any
    dimension via slab decomposition on the last objective (intended for
    frontier-sized point sets, not thousands of points).
    """
    costs = np.asarray(costs, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if costs.ndim != 2 or reference.shape != (costs.shape[1],):
        raise ConfigurationError(
            "hypervolume needs (points x objectives) costs and a matching reference"
        )
    points = costs[np.all(costs < reference, axis=1)]
    if points.shape[0] == 0:
        return 0.0
    points = points[pareto_frontier(points)]
    return _hypervolume(points, reference)


def _hypervolume(points: np.ndarray, reference: np.ndarray) -> float:
    """Hypervolume of mutually non-dominated points below ``reference``."""
    d = points.shape[1]
    if d == 1:
        return float(reference[0] - points[:, 0].min())
    if d == 2:
        order = np.lexsort((points[:, 1], points[:, 0]))
        pts = points[order]
        volume = 0.0
        for i in range(len(pts)):
            right = pts[i + 1, 0] if i + 1 < len(pts) else reference[0]
            volume += (right - pts[i, 0]) * (reference[1] - pts[i, 1])
        return float(volume)
    volume = 0.0
    zs = np.unique(points[:, -1])
    uppers = np.append(zs[1:], reference[-1])
    for z, upper in zip(zs, uppers):
        slab = points[points[:, -1] <= z][:, :-1]
        slab = slab[pareto_frontier(slab)]
        volume += _hypervolume(slab, reference[:-1]) * (upper - z)
    return float(volume)


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Generation:
    """One proposed batch: design points plus the evaluation fidelity
    (fraction of the profile set to cost them on)."""

    combos: Tuple[Combo, ...]
    fidelity: float = 1.0


class SearchStrategy:
    """Protocol for generation-based strategies.

    A strategy proposes one :class:`Generation` at a time and observes the
    evaluated costs; all randomness comes from the engine's RNG and all
    cross-generation memory must round-trip through ``state_dict`` /
    ``load_state`` so a search resumes exactly where it stopped.
    """

    name: str = "strategy"

    def total_generations(self) -> int:
        raise NotImplementedError

    def fresh_generations(self) -> int:
        """Generations that propose points not evaluated before; each
        proposes at most as many as the first."""
        return self.total_generations()

    def propose(
        self, generation: int, rng: np.random.Generator, engine: "AdaptiveSearch"
    ) -> Generation:
        raise NotImplementedError

    def observe(self, generation: int, combos: Sequence[Combo], costs: np.ndarray) -> None:
        """Record one generation's evaluated costs (optional)."""

    def state_dict(self) -> Dict[str, Any]:
        return {}

    def load_state(self, state: Dict[str, Any]) -> None:
        pass


def _fill_random(
    space: SearchSpace,
    rng: np.random.Generator,
    target: int,
    taken: set,
    combos: List[Combo],
) -> None:
    """Top ``combos`` up to ``target`` distinct points (best effort)."""
    attempts = 0
    limit = max(64, 20 * target)
    while len(combos) < target and attempts < limit:
        candidate = space.random_combo(rng)
        attempts += 1
        if candidate in taken:
            continue
        taken.add(candidate)
        combos.append(candidate)


class SuccessiveHalving(SearchStrategy):
    """Wide-to-narrow rungs with cheap-to-full costing.

    Rung 0 evaluates ``population`` points (seeds plus random samples) on
    a small profile subset; each following rung keeps the Pareto-best
    ``1/HALVING_ETA`` of the previous rung and costs them on a geometrically
    growing subset, ending with full-grid costing on the final rung. Only
    final-rung (full-fidelity) points enter the result archive.
    """

    name = "halving"

    def __init__(self, population: int = 256, generations: int = 4) -> None:
        if population < 1 or generations < 1:
            raise ConfigurationError("halving needs population/generations >= 1")
        self.population = population
        self.generations = generations
        if generations == 1:
            self.fidelities = [1.0]
        else:
            ratio = (1.0 / HALVING_MIN_FIDELITY) ** (1.0 / (generations - 1))
            self.fidelities = [
                min(1.0, HALVING_MIN_FIDELITY * ratio**r) for r in range(generations)
            ]
            self.fidelities[-1] = 1.0
        self._ranked: List[Combo] = []

    def total_generations(self) -> int:
        return self.generations

    def fresh_generations(self) -> int:
        return 1  # later rungs promote from rung 0

    def rung_width(self, generation: int) -> int:
        return max(HALVING_MIN_RUNG, self.population // (HALVING_ETA**generation))

    def propose(
        self, generation: int, rng: np.random.Generator, engine: "AdaptiveSearch"
    ) -> Generation:
        width = min(self.rung_width(generation), engine.space.size)
        if generation == 0:
            combos = list(engine.space.seed_combos())[:width]
            _fill_random(engine.space, rng, width, set(combos), combos)
        else:
            if not self._ranked:
                raise ConfigurationError(
                    "halving cannot promote: no observed rung to draw from"
                )
            combos = self._ranked[:width]
        return Generation(combos=tuple(combos), fidelity=self.fidelities[generation])

    def observe(self, generation: int, combos: Sequence[Combo], costs: np.ndarray) -> None:
        order = rank_order(costs)
        self._ranked = [combos[i] for i in order]

    def state_dict(self) -> Dict[str, Any]:
        return {"ranked": [list(c) for c in self._ranked]}

    def load_state(self, state: Dict[str, Any]) -> None:
        self._ranked = [tuple(c) for c in state.get("ranked", [])]


class Evolutionary(SearchStrategy):
    """Seeded evolutionary loop at full costing fidelity.

    Generation 0 is the seed set (default design point plus axis
    extremes) topped up with random points; later generations breed
    ``population`` children from the full archive by tournament selection,
    uniform crossover over the structural and platform axes, and per-axis
    mutation. Children duplicating an already-evaluated point are
    discarded before costing, so every archive entry is evaluated once.
    """

    name = "evolve"

    def __init__(self, population: int = 64, generations: int = 8) -> None:
        if population < 2 or generations < 1:
            raise ConfigurationError("evolve needs population >= 2, generations >= 1")
        self.population = population
        self.generations = generations

    def total_generations(self) -> int:
        return self.generations

    def propose(
        self, generation: int, rng: np.random.Generator, engine: "AdaptiveSearch"
    ) -> Generation:
        target = min(self.population, max(0, engine.space.size - len(engine.archive_combos())))
        taken = set(engine.archive_combos())
        combos: List[Combo] = []
        if generation == 0:
            for seed in engine.space.seed_combos():
                if len(combos) >= target:
                    break
                if seed not in taken:
                    taken.add(seed)
                    combos.append(seed)
        else:
            parents, costs = engine.archive()
            order = rank_order(costs)
            # order maps best->worst; invert to a rank per archive index.
            rank_of = np.empty(len(parents), dtype=np.int64)
            rank_of[order] = np.arange(len(parents))

            def select() -> Combo:
                picks = rng.integers(len(parents), size=EVOLVE_TOURNAMENT)
                return parents[int(picks[int(np.argmin(rank_of[picks]))])]

            attempts = 0
            limit = 20 * max(1, target)
            while len(combos) < target and attempts < limit:
                attempts += 1
                if len(parents) >= 2 and rng.random() < EVOLVE_CROSSOVER:
                    child = engine.space.crossover(select(), select(), rng)
                else:
                    child = select()
                child = engine.space.mutate(child, rng, EVOLVE_MUTATION)
                if child in taken:
                    continue
                taken.add(child)
                combos.append(child)
        _fill_random(engine.space, rng, target, taken, combos)
        return Generation(combos=tuple(combos), fidelity=1.0)


def make_strategy(
    name: str,
    *,
    population: Optional[int] = None,
    generations: Optional[int] = None,
) -> SearchStrategy:
    """Build a strategy by CLI name (``halving`` or ``evolve``)."""
    options: Dict[str, int] = {}
    if population is not None:
        options["population"] = population
    if generations is not None:
        options["generations"] = generations
    if name == "halving":
        return SuccessiveHalving(**options)
    if name == "evolve":
        return Evolutionary(**options)
    raise ConfigurationError(f"unknown search strategy {name!r}; known: halving, evolve")


# --------------------------------------------------------------------------- #
# Persistent store
# --------------------------------------------------------------------------- #


class SearchStore:
    """Durable per-generation search states plus the latest final result.

    Layout under the root (``REPRO_SEARCH_STORE`` or
    ``~/.cache/repro/search``)::

        <key>/gen-0007.json   # engine state after generation 7 committed
        <key>/result.json     # final SearchResult.to_dict()
        latest.json           # copy of the most recent result.json

    States are written atomically (write + rename), so a SIGKILL between
    generations leaves the last committed state intact and a resumed
    search replays nothing that was committed.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else env_root("REPRO_SEARCH_STORE", "search")

    def _search_dir(self, key: str) -> Path:
        return self.root / key

    def state_path(self, key: str, generation: int) -> Path:
        return self._search_dir(key) / f"gen-{generation:04d}.json"

    def committed_generations(self, key: str) -> List[int]:
        """Generations with a committed state, ascending."""
        directory = self._search_dir(key)
        if not directory.is_dir():
            return []
        out = []
        for path in directory.glob("gen-*.json"):
            try:
                out.append(int(path.stem.split("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        return sorted(out)

    def save_state(self, key: str, generation: int, state: Dict[str, Any]) -> Path:
        path = self.state_path(key, generation)
        write_json_atomic(path, state)
        return path

    def load_state(self, key: str, generation: int) -> Optional[Dict[str, Any]]:
        return read_json(self.state_path(key, generation))

    def load_latest_state(
        self, key: str
    ) -> Optional[Tuple[int, Dict[str, Any]]]:
        """The newest committed (generation, state), or ``None``."""
        for generation in reversed(self.committed_generations(key)):
            state = self.load_state(key, generation)
            if state is not None:
                return generation, state
        return None

    def save_result(self, key: str, result: Dict[str, Any]) -> Path:
        payload = dict(result)
        payload["search_key"] = key
        write_json_atomic(self._search_dir(key) / "result.json", payload)
        write_json_atomic(self.root / "latest.json", payload)
        return self.root / "latest.json"

    def load_result(self, key: str) -> Optional[Dict[str, Any]]:
        return read_json(self._search_dir(key) / "result.json")

    def load_latest_result(self) -> Optional[Dict[str, Any]]:
        return read_json(self.root / "latest.json")


def search_key(
    *,
    axes: Mapping[str, Iterable[Any]],
    strategy: str,
    params: Mapping[str, Any],
    seed: int,
    objectives: Sequence[str],
    tasks: Sequence[Tuple[str, str]],
) -> str:
    """Content hash identifying one search: space, strategy, parameters,
    seed, objectives, profile coordinates, and the code fingerprint."""
    material = {
        # A list of pairs, not a mapping: axis order shapes the space
        # (gene order, variant names), so it must shape the key.
        "axes": [[k, [axis_value_to_json(v) for v in vs]] for k, vs in axes.items()],
        "strategy": strategy,
        "params": {k: params[k] for k in sorted(params)},
        "seed": seed,
        "objectives": list(objectives),
        "tasks": [list(t) for t in tasks],
        "code": code_fingerprint(),
    }
    return content_key(material)[:16]


# --------------------------------------------------------------------------- #
# Engine
# --------------------------------------------------------------------------- #


@dataclass
class SearchResult:
    """Outcome of one adaptive search: the full-fidelity archive with its
    Pareto frontier and the evaluation budget that produced it."""

    strategy: str
    seed: int
    objectives: Tuple[str, ...]
    axes: Dict[str, List[Any]]
    space_size: int
    generations: int
    evaluations: float
    tasks: List[Tuple[str, str]]
    combos: List[Combo]
    names: List[str]
    costs: np.ndarray
    axis_values: List[Dict[str, Any]]
    frontier_indices: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.costs = np.asarray(self.costs, dtype=np.float64).reshape(
            len(self.combos), len(self.objectives)
        )
        if self.frontier_indices is None:
            self.frontier_indices = (
                pareto_frontier(self.costs)
                if len(self.combos)
                else np.zeros(0, dtype=np.int64)
            )

    def frontier(self) -> Tuple[str, ...]:
        """Variant names on the Pareto frontier, in archive order."""
        return tuple(self.names[i] for i in self.frontier_indices)

    def rows(self) -> List[Dict[str, Any]]:
        """One report row per evaluated (full-fidelity) point."""
        on_frontier = set(int(i) for i in self.frontier_indices)
        rows = []
        for i, name in enumerate(self.names):
            row: Dict[str, Any] = {"name": name}
            for j, objective in enumerate(self.objectives):
                row[objective] = float(self.costs[i, j])
            row["pareto"] = i in on_frontier
            rows.append(row)
        return rows

    def frontier_rows(self) -> List[Dict[str, Any]]:
        """Report rows for the frontier only, sorted by the first objective."""
        rows = [r for r in self.rows() if r["pareto"]]
        rows.sort(key=lambda r: r[self.objectives[0]])
        return rows

    def hypervolume(self, reference: Sequence[float]) -> float:
        """Frontier hypervolume against a reference point."""
        return hypervolume(self.costs, reference)

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic JSON form (byte-identical for identical searches)."""
        points = []
        on_frontier = set(int(i) for i in self.frontier_indices)
        for i, combo in enumerate(self.combos):
            points.append(
                {
                    "name": self.names[i],
                    "axes": {
                        axis: axis_value_to_json(value)
                        for axis, value in self.axis_values[i].items()
                    },
                    "costs": {
                        objective: float(self.costs[i, j])
                        for j, objective in enumerate(self.objectives)
                    },
                    "pareto": i in on_frontier,
                }
            )
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "objectives": list(self.objectives),
            "axes": self.axes,
            "space_size": self.space_size,
            "generations": self.generations,
            "evaluations": self.evaluations,
            "tasks": [list(t) for t in self.tasks],
            "points": points,
            "frontier": [self.names[i] for i in self.frontier_indices],
        }


class AdaptiveSearch:
    """Generation-stepped multi-objective search over a :class:`SearchSpace`.

    The engine owns the RNG, the evaluation caches, and the persistence;
    the strategy only proposes batches and ranks survivors. Evaluation
    counts are tracked in *full-grid equivalents*: costing a batch on a
    profile subset charges ``len(batch) * subset / total`` evaluations, so
    budgets compare one-to-one with exhaustive enumeration. Costing and the
    projection prefill stream under ``REPRO_MEMORY_BUDGET``.

    When a :class:`SearchStore` is attached, every committed generation is
    persisted and a new engine constructed with the same parameters
    resumes from the newest committed state -- re-evaluating nothing.
    """

    def __init__(
        self,
        space: SearchSpace,
        strategy: SearchStrategy,
        profiles: Sequence[WorkloadProfile],
        *,
        objectives: Sequence[str] = OBJECTIVES,
        seed: int = 0,
        store: Optional[SearchStore] = None,
    ) -> None:
        if not profiles:
            raise ConfigurationError("adaptive search needs at least one profile")
        for objective in objectives:
            if objective not in OBJECTIVES:
                raise ConfigurationError(
                    f"unknown objective {objective!r}; known: {', '.join(OBJECTIVES)}"
                )
        if not objectives:
            raise ConfigurationError("adaptive search needs at least one objective")
        self.space = space
        self.strategy = strategy
        self.profiles = list(profiles)
        self.tasks = [(p.app, p.dataset) for p in self.profiles]
        self.objectives = tuple(objectives)
        self.seed = seed
        self.store = store
        self.rng = np.random.default_rng(seed)
        self.generation = 0
        self.evaluations = 0.0
        self._full: Dict[Combo, Tuple[float, ...]] = {}
        self._partial: Dict[float, Dict[Combo, Tuple[float, ...]]] = {}
        self.key = search_key(
            axes=dict(space.to_json()),
            strategy=strategy.name,
            params=_strategy_params(strategy),
            seed=seed,
            objectives=self.objectives,
            tasks=self.tasks,
        )
        if self.store is not None:
            latest = self.store.load_latest_state(self.key)
            if latest is not None:
                generation, state = latest
                if generation <= self.strategy.total_generations():
                    self._load_state(state)

    # -- persistence -------------------------------------------------------- #

    def state_dict(self) -> Dict[str, Any]:
        """The engine's full resumable state (JSON-safe)."""
        return {
            "generation": self.generation,
            "evaluations": self.evaluations,
            "rng_state": self.rng.bit_generator.state,
            "full": [[list(c), list(v)] for c, v in self._full.items()],
            "partial": {
                repr(fraction): [[list(c), list(v)] for c, v in cache.items()]
                for fraction, cache in self._partial.items()
            },
            "strategy": self.strategy.state_dict(),
            "objectives": list(self.objectives),
            "seed": self.seed,
        }

    def _load_state(self, state: Dict[str, Any]) -> None:
        self.generation = int(state["generation"])
        self.evaluations = float(state["evaluations"])
        self.rng.bit_generator.state = state["rng_state"]
        self._full = {
            tuple(combo): tuple(costs) for combo, costs in state.get("full", [])
        }
        self._partial = {
            float(fraction): {
                tuple(combo): tuple(costs) for combo, costs in entries
            }
            for fraction, entries in state.get("partial", {}).items()
        }
        self.strategy.load_state(state.get("strategy", {}))

    # -- archive access (used by strategies) -------------------------------- #

    def archive_combos(self) -> List[Combo]:
        """Full-fidelity evaluated points, in evaluation order."""
        return list(self._full)

    def archive(self) -> Tuple[List[Combo], np.ndarray]:
        """The full-fidelity archive as (combos, costs)."""
        combos = list(self._full)
        costs = np.array([self._full[c] for c in combos], dtype=np.float64).reshape(
            len(combos), len(self.objectives)
        )
        return combos, costs

    # -- evaluation --------------------------------------------------------- #

    def _subset_indices(self, fraction: float) -> List[int]:
        total = len(self.profiles)
        count = max(1, int(math.ceil(total * fraction)))
        if count >= total:
            return list(range(total))
        if count == 1:
            return [0]
        picked = sorted({int(round(i * (total - 1) / (count - 1))) for i in range(count)})
        return picked

    def _evaluate(self, combos: Sequence[Combo], fraction: float) -> np.ndarray:
        """Costs of a batch at one fidelity, through the caches."""
        fraction = min(max(fraction, 0.0), 1.0)
        full = fraction >= 1.0
        cache = self._full if full else self._partial.setdefault(fraction, {})
        fresh = [c for c in combos if c not in cache]
        if fresh:
            indices = self._subset_indices(fraction)
            subset = [self.profiles[i] for i in indices]
            platforms = [self.space.platform(c) for c in fresh]
            costs = cost_variants(subset, platforms, energy="energy" in self.objectives)
            columns = {
                "cycles": costs.gmean_cycles,
                "area": costs.area_mm2,
                "energy": costs.gmean_energy_mj,
            }
            for i, combo in enumerate(fresh):
                cache[combo] = tuple(float(columns[o][i]) for o in self.objectives)
            self.evaluations += len(fresh) * len(indices) / len(self.profiles)
        return np.array([cache[c] for c in combos], dtype=np.float64).reshape(
            len(combos), len(self.objectives)
        )

    def _prefill_projections(self, width: int) -> None:
        """Resolve every SpMU projection of the space in one batch, when
        the space has no more of them than the run can propose (``width``
        new points in each of the strategy's fresh generations).

        The lock-step simulation's cost is per simulated cycle, not per
        variant, so one batch of every projection beats one batch of the
        new ones per generation; each later costing pass then finds its
        throughputs memoized. A larger space (the default one) keeps the
        per-generation batches: enumerating it would simulate projections
        the search never visits.
        """
        axes = dict(self.space.axes)
        if spmu_projection_bound(axes) > width * self.strategy.fresh_generations():
            return
        prefill_throughputs(spmu_projection_sweep(axes).values())

    # -- stepping ----------------------------------------------------------- #

    @property
    def done(self) -> bool:
        """Whether every generation has been committed."""
        return self.generation >= self.strategy.total_generations()

    def step(self) -> None:
        """Run and commit one generation."""
        if self.done:
            raise ConfigurationError("search already finished; nothing to step")
        current = self.generation
        proposal = self.strategy.propose(current, self.rng, self)
        if current == 0:
            self._prefill_projections(len(proposal.combos))
        costs = self._evaluate(proposal.combos, proposal.fidelity)
        self.strategy.observe(current, proposal.combos, costs)
        self.generation = current + 1
        if self.store is not None:
            self.store.save_state(self.key, self.generation, self.state_dict())

    def result(self) -> SearchResult:
        """The current full-fidelity archive as a :class:`SearchResult`."""
        combos, costs = self.archive()
        return SearchResult(
            strategy=self.strategy.name,
            seed=self.seed,
            objectives=self.objectives,
            axes=dict(self.space.to_json()),
            space_size=self.space.size,
            generations=self.generation,
            evaluations=self.evaluations,
            tasks=list(self.tasks),
            combos=combos,
            names=[self.space.variant_name(c) for c in combos],
            costs=costs,
            axis_values=[self.space.combo_values(c) for c in combos],
        )

    def run(self) -> SearchResult:
        """Step to completion, persist the final result, and return it."""
        while not self.done:
            self.step()
        result = self.result()
        if self.store is not None:
            self.store.save_result(self.key, result.to_dict())
        return result


def _strategy_params(strategy: SearchStrategy) -> Dict[str, Any]:
    """The strategy's identifying parameters (for the search key)."""
    if isinstance(strategy, SuccessiveHalving):
        return {
            "population": strategy.population,
            "generations": strategy.generations,
            "eta": HALVING_ETA,
            "min_rung": HALVING_MIN_RUNG,
            "fidelities": [round(f, 6) for f in strategy.fidelities],
        }
    if isinstance(strategy, Evolutionary):
        return {
            "population": strategy.population,
            "generations": strategy.generations,
            "mutation": EVOLVE_MUTATION,
            "crossover": EVOLVE_CROSSOVER,
            "tournament": EVOLVE_TOURNAMENT,
        }
    return {"name": strategy.name}
