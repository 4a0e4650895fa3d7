"""Memory-budget planner: chunk shapes and streaming drivers for the engines.

Every batch engine materializes a grid -- (profile x platform) costing
matrices, lock-step SpMU state across a variant grid, tile batches in the
format converter, position ranges in the scanner. Given an explicit byte
budget, this module picks chunk shapes from per-engine cost models and the
engines stream chunk by chunk with results aggregated bit-identically to
the unchunked pass:

* :func:`~repro.apps.timing.estimate_cycles_batch` chunks the platform
  axis -- every cost-model term is column-independent, so concatenating
  chunk columns reproduces the full matrix exactly.
* :func:`~repro.core.spmu_array.simulate_variants` /
  :func:`~repro.core.spmu.effective_bank_throughput_batch` chunk the
  variant grid -- each variant's lock-step state is independent (the batch
  dimension only amortizes per-operation overhead), so per-chunk
  simulation is exact. A chunk that fans out over ``k`` forked processes
  gives each share ``budget / k``, so the shares running side by side
  still hold at most the budget.
* :meth:`~repro.core.format_conversion.FormatConverter.convert_many`
  chunks tiles -- conversion state restarts at tile boundaries and the
  statistics are per-tile sums.
* :meth:`~repro.core.scanner.Scanner.scan_batch` chunks dense-position
  ranges -- chunk outputs are position-disjoint and ordered, so
  concatenation is exact.
* :func:`~repro.runtime.dse.explore` streams the (profile x platform)
  cross-product, folding each chunk into the running geometric-mean /
  Pareto state instead of materializing the grid.

The low-level primitives (:func:`parse_memory_budget`,
:func:`resolve_memory_budget`, :class:`ChunkPlan`, :func:`plan_chunks`,
:func:`iter_chunked`, ``ENV_MEMORY_BUDGET``) live in :mod:`repro._budget`
so the core engines can import them without a layering cycle; this module
re-exports them as the public API next to the per-engine cost models.
"""

from __future__ import annotations

from typing import Optional

from .._budget import (
    ENV_MEMORY_BUDGET,
    ChunkPlan,
    iter_chunked,
    parse_memory_budget,
    plan_chunks,
    resolve_memory_budget,
)
from ..apps.timing import COSTING_BYTES_PER_CELL
from ..core.spmu_array import SpMUVariant, _PreparedTrace, _variant_footprint

__all__ = [
    "ENV_MEMORY_BUDGET",
    "COSTING_BYTES_PER_CELL",
    "ChunkPlan",
    "costing_chunk_platforms",
    "iter_chunked",
    "parse_memory_budget",
    "plan_chunks",
    "resolve_memory_budget",
    "variant_state_bytes",
]


def costing_chunk_platforms(n_profiles: int, memory_budget: Optional[int]) -> Optional[int]:
    """Platform-axis chunk width for the batched costing model.

    The costing model's working set is a handful of ``float64`` temporaries
    per (profile, platform) cell (:data:`COSTING_BYTES_PER_CELL`), so a
    budget divided by the per-platform column cost bounds the chunk width.
    Returns ``None`` (no chunking) when no budget is given.
    """
    if memory_budget is None:
        return None
    per_platform = max(n_profiles, 1) * COSTING_BYTES_PER_CELL
    return plan_chunks(0, per_platform, memory_budget).chunk_items


def variant_state_bytes(variant: SpMUVariant, prep: _PreparedTrace) -> int:
    """Lock-step working-set estimate for one SpMU variant (cost model)."""
    return _variant_footprint(variant, prep)
