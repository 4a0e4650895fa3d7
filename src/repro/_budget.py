"""Memory-budget primitives for chunked batch execution.

The batch engines (platform costing, lock-step SpMU simulation, DSE)
materialize whole grids as numpy tensors. A memory budget bounds that:
given a byte budget and a per-item cost model, :func:`plan_chunks` picks a
chunk size and the engines stream chunk by chunk, aggregating results that
are bit-identical to the unchunked pass.
Each engine owns its cost model and its chunked axis:

* :func:`~repro.apps.timing.estimate_cycles_batch` chunks the platform
  axis (``COSTING_BYTES_PER_CELL`` per cell) -- every cost-model term is
  column-independent, so chunk columns concatenate exactly.
* :func:`~repro.core.spmu_array.simulate_variants` chunks the variant grid
  by each variant's lock-step state -- variants are independent, so
  per-chunk simulation is exact. A chunk that fans out over ``k`` forked
  processes gives each share ``budget / k``.
* :func:`~repro.runtime.dse.explore` streams the (profile x platform)
  cross-product, folding each chunk into running geometric-mean / Pareto
  state instead of materializing the grid.

This module is deliberately low-level (stdlib-only, importable from
``repro.core`` and ``repro.apps`` without layering cycles).

The budget can come from three places, in precedence order: an explicit
argument to the engine, the ``REPRO_MEMORY_BUDGET`` environment variable
(set by ``repro-eval --memory-budget``), or no budget at all (the engines
then run unchunked, exactly as before).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple, TypeVar, Union

from .errors import ConfigurationError

#: Environment variable carrying the process-wide memory budget in bytes
#: (suffixed sizes like ``512M`` are accepted too).
ENV_MEMORY_BUDGET = "REPRO_MEMORY_BUDGET"

_T = TypeVar("_T")

_UNIT_FACTORS = {
    "": 1,
    "b": 1,
    "k": 1 << 10,
    "kb": 1 << 10,
    "kib": 1 << 10,
    "m": 1 << 20,
    "mb": 1 << 20,
    "mib": 1 << 20,
    "g": 1 << 30,
    "gb": 1 << 30,
    "gib": 1 << 30,
    "t": 1 << 40,
    "tb": 1 << 40,
    "tib": 1 << 40,
}


def parse_memory_budget(value: Union[int, float, str, None]) -> Optional[int]:
    """Parse a memory budget into bytes.

    Accepts ``None`` (no budget), plain byte counts (``1048576``), and
    suffixed sizes (``"512M"``, ``"1.5G"``, ``"64KiB"``); suffixes are
    binary (``M`` = MiB). The result must be a positive byte count.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        raise ConfigurationError("memory budget must be a byte count, not a bool")
    if isinstance(value, (int, float)):
        budget = int(value)
    else:
        text = str(value).strip().lower().replace(" ", "")
        number = text.rstrip("abgikmt")
        unit = text[len(number):]
        if unit not in _UNIT_FACTORS:
            raise ConfigurationError(f"unknown memory-budget unit {unit!r} in {value!r}")
        try:
            scale = float(number)
        except ValueError:
            raise ConfigurationError(f"invalid memory budget {value!r}") from None
        budget = int(scale * _UNIT_FACTORS[unit])
    if budget <= 0:
        raise ConfigurationError(f"memory budget must be positive, got {value!r}")
    return budget


def resolve_memory_budget(
    value: Union[int, float, str, None] = None,
) -> Optional[int]:
    """Resolve the effective budget: explicit argument, else the environment.

    ``None`` with no (or empty) ``REPRO_MEMORY_BUDGET`` means unbudgeted.
    """
    if value is not None:
        return parse_memory_budget(value)
    env = os.environ.get(ENV_MEMORY_BUDGET, "").strip()
    if not env:
        return None
    return parse_memory_budget(env)


@dataclass(frozen=True)
class ChunkPlan:
    """A chunking decision: ``total_items`` processed ``chunk_items`` at a time."""

    total_items: int
    chunk_items: int

    def bounds(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(start, stop)`` item ranges in order."""
        for start in range(0, self.total_items, self.chunk_items):
            yield start, min(start + self.chunk_items, self.total_items)


def plan_chunks(
    total_items: int,
    bytes_per_item: Union[int, float],
    memory_budget: Optional[int],
    *,
    min_items: int = 1,
    max_items: Optional[int] = None,
) -> ChunkPlan:
    """Pick a chunk size so one chunk's working set fits the budget.

    Args:
        total_items: Grid extent along the chunked axis.
        bytes_per_item: Cost-model estimate of one item's working set.
        memory_budget: Byte budget, or ``None`` for a single chunk.
        min_items: Floor on the chunk size (a chunk must make progress
            even when one item alone exceeds the budget).
        max_items: Optional ceiling on the chunk size.

    Returns:
        A :class:`ChunkPlan`; with no budget it holds everything in one chunk.
    """
    if total_items < 0:
        raise ConfigurationError("total_items must be non-negative")
    if min_items < 1:
        raise ConfigurationError("min_items must be at least 1")
    if memory_budget is None:
        chunk = max(total_items, min_items)
    else:
        per_item = max(float(bytes_per_item), 1.0)
        chunk = max(int(memory_budget / per_item), min_items)
    if max_items is not None:
        chunk = min(chunk, max(max_items, min_items))
    return ChunkPlan(total_items=total_items, chunk_items=max(chunk, min_items))


def iter_chunked(items: Iterable[_T], chunk_items: int) -> Iterator[List[_T]]:
    """Yield successive lists of up to ``chunk_items`` from any iterable.

    The source is consumed lazily (one chunk ahead at most), so generators
    stream through without up-front materialization.
    """
    if chunk_items < 1:
        raise ConfigurationError("chunk_items must be at least 1")
    iterator = iter(items)
    while True:
        chunk = list(itertools.islice(iterator, chunk_items))
        if not chunk:
            return
        yield chunk
