"""Memory-budget primitives for chunked batch execution.

The batch engines (platform costing, lock-step SpMU simulation, DSE)
materialize whole grids as numpy tensors. A memory budget bounds that:
given the byte budget and a per-item cost model, :func:`iter_chunks` cuts
the grid's chunked axis into in-order chunks that fit it, and the engines
stream chunk by chunk, aggregating results that are bit-identical to the
unchunked pass. Each engine owns its cost model and its chunked axis:

* :func:`~repro.apps.timing.iter_cycles_batches` chunks the platform
  axis (``COSTING_BYTES_PER_CELL`` per cell) -- every cost-model term is
  column-independent, so chunk columns concatenate exactly;
  :func:`~repro.apps.timing.estimate_cycles_batch` joins them and
  :func:`~repro.runtime.dse.cost_variants` folds them into per-variant
  geometric means instead of materializing the grid.
* :func:`~repro.core.spmu_array.simulate_variants` chunks the variant grid
  by each variant's lock-step state -- variants are independent, so
  per-chunk simulation is exact. A chunk that fans out over ``k`` forked
  processes gives each share ``budget // k``.
* :meth:`~repro.runtime.jobs.JobSpec.dse_grid` cuts a sweep into
  ``dse_chunk`` units the same way, capped at ``max_chunk`` variants.

The budget has one source, the ``REPRO_MEMORY_BUDGET`` environment
variable (``--memory-budget`` on ``repro-eval`` and its subcommands
exports it); unset, the engines run unchunked.

This module is deliberately low-level (stdlib-only, importable from
``repro.core`` and ``repro.apps`` without layering cycles).
"""

from __future__ import annotations

import math
import os
from typing import Callable, Iterable, Iterator, List, Optional, TypeVar

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


def parse_memory_budget(text: str) -> int:
    """Parse a memory budget into bytes.

    Accepts plain byte counts (``"1048576"``) and suffixed sizes
    (``"512M"``, ``"1.5G"``, ``"64KiB"``); suffixes are binary (``M`` =
    MiB). The result must be a finite, positive byte count.
    """
    compact = text.strip().lower().replace(" ", "")
    number = compact.rstrip("abgikmt")
    unit = compact[len(number):]
    if unit not in _UNIT_FACTORS:
        raise ConfigurationError(f"unknown memory-budget unit {unit!r} in {text!r}")
    try:
        size = float(number) * _UNIT_FACTORS[unit]
    except ValueError:
        raise ConfigurationError(f"invalid memory budget {text!r}") from None
    if not math.isfinite(size):
        raise ConfigurationError(f"memory budget must be finite, got {text!r}")
    budget = int(size)
    if budget <= 0:
        raise ConfigurationError(f"memory budget must be positive, got {text!r}")
    return budget


def resolve_memory_budget() -> Optional[int]:
    """The process-wide budget: ``REPRO_MEMORY_BUDGET``, parsed.

    An unset or empty variable means unbudgeted.
    """
    env = os.environ.get(ENV_MEMORY_BUDGET, "").strip()
    if not env:
        return None
    return parse_memory_budget(env)


def iter_chunks(
    items: Iterable[_T],
    size: Callable[[_T], int],
    budget: Optional[int],
    *,
    max_items: Optional[int] = None,
) -> Iterator[List[_T]]:
    """Cut ``items``, in order, into the lists one pass works on.

    ``size`` estimates one item's working-set bytes (at least 1 is
    counted). The estimates of a chunk's items sum to at most ``budget``,
    except that a chunk always holds at least one item, and a chunk holds
    at most ``max_items``; with a constant size that is
    ``max(1, budget // size)`` items a chunk. Without a budget no item is
    sized, and with neither a budget nor a cap the whole input is one
    chunk. The input is consumed one chunk at a time, and an empty input
    is one empty chunk, so every pass sees at least one.
    """
    if max_items is not None and max_items < 1:
        raise ConfigurationError("max_items must be at least 1")
    if budget is None and max_items is None:
        yield list(items)
        return
    limit = math.inf if budget is None else budget
    chunk: List[_T] = []
    used = 0
    for item in items:
        cost = 0 if budget is None else max(size(item), 1)
        if chunk and (used + cost > limit or len(chunk) == max_items):
            yield chunk
            chunk, used = [], 0
        chunk.append(item)
        used += cost
    yield chunk
