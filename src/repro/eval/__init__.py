"""Evaluation harness: one entry point per table and figure in the paper.

:data:`HARNESSES` is the reproduction: the paper's tables and figures in
order, each with the inputs it reads. :func:`run_harnesses` runs any of
them, and :func:`canonical` is the one JSON form their outputs are stored
and hashed in.
"""

from enum import Enum
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .experiments import (
    APP_DATASETS,
    APP_ORDER,
    EVAL_SCALE,
    ProfileSet,
    collect_profiles,
)
from .figures import (
    figure4_ordering_trace,
    figure5a_bandwidth_sensitivity,
    figure5b_area_sensitivity,
    figure5c_compression_sensitivity,
    figure6_scanner_sensitivity,
    figure7_stall_breakdown,
)
from .regression import (
    ComparisonReport,
    compare_to_baseline,
    detect_trends,
    evaluate_expectations,
    format_comparison_report,
    load_expectations,
)
from .report import (
    format_mapping,
    format_run_report,
    format_series,
    format_table,
    paper_vs_measured,
)
from .tables import (
    table4_spmu_throughput,
    table5_scanner_area,
    table8_area,
    table9_spmu_sensitivity,
    table10_ordering_modes,
    table11_shuffle_sensitivity,
    table12_performance,
    table13_asic_comparison,
)


class Harness(NamedTuple):
    """One table or figure of the reproduction.

    ``inputs`` names the keyword arguments the runner passes it, from
    ``"profiles"`` (the collected profile set) and ``"scale"``.
    """

    name: str
    function: Callable[..., Any]
    inputs: Tuple[str, ...]


#: The reproduction, in paper order.
HARNESSES: Tuple[Harness, ...] = (
    Harness("table4", table4_spmu_throughput, ()),
    Harness("table5", table5_scanner_area, ()),
    Harness("table8", table8_area, ()),
    Harness("table9", table9_spmu_sensitivity, ("profiles",)),
    Harness("table10", table10_ordering_modes, ("profiles",)),
    Harness("table11", table11_shuffle_sensitivity, ("profiles",)),
    Harness("table12", table12_performance, ("profiles",)),
    Harness("table13", table13_asic_comparison, ("profiles",)),
    Harness("figure4", figure4_ordering_trace, ()),
    Harness("figure5a", figure5a_bandwidth_sensitivity, ("profiles",)),
    Harness("figure5b", figure5b_area_sensitivity, ("profiles",)),
    Harness("figure5c", figure5c_compression_sensitivity, ("profiles",)),
    Harness("figure6", figure6_scanner_sensitivity, ("scale",)),
    Harness("figure7", figure7_stall_breakdown, ("profiles",)),
)


def run_harnesses(
    names: Optional[Sequence[str]] = None, scale: float = EVAL_SCALE
) -> Dict[str, Any]:
    """Run the named harnesses (default: all) and return their outputs in list order.

    The full profile grid is collected once at ``scale``, and only when a
    chosen harness reads it.
    """
    unknown = set(names or ()) - {harness.name for harness in HARNESSES}
    if unknown:
        raise ConfigurationError(f"unknown harnesses: {', '.join(sorted(unknown))}")
    chosen = [harness for harness in HARNESSES if names is None or harness.name in names]
    inputs: Dict[str, Any] = {"scale": scale}
    if any("profiles" in harness.inputs for harness in chosen):
        inputs["profiles"] = collect_profiles(scale=scale)
    return {
        harness.name: harness.function(**{key: inputs[key] for key in harness.inputs})
        for harness in chosen
    }


def canonical(value: Any) -> Any:
    """The JSON form of a harness output that work units store and goldens hash.

    Tuple keys are joined with ``|``, numpy values become Python values and
    enums their values; hash it as ``json.dumps(..., sort_keys=True)``.
    """
    if isinstance(value, dict):
        return {
            ("|".join(map(str, k)) if isinstance(k, tuple) else str(k)): canonical(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple, np.ndarray)):
        return [canonical(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, Enum):
        return value.value
    return value


__all__ = [
    "APP_DATASETS",
    "APP_ORDER",
    "EVAL_SCALE",
    "HARNESSES",
    "Harness",
    "ProfileSet",
    "canonical",
    "collect_profiles",
    "run_harnesses",
    "table4_spmu_throughput",
    "table5_scanner_area",
    "table8_area",
    "table9_spmu_sensitivity",
    "table10_ordering_modes",
    "table11_shuffle_sensitivity",
    "table12_performance",
    "table13_asic_comparison",
    "figure4_ordering_trace",
    "figure5a_bandwidth_sensitivity",
    "figure5b_area_sensitivity",
    "figure5c_compression_sensitivity",
    "figure6_scanner_sensitivity",
    "figure7_stall_breakdown",
    "format_table",
    "format_mapping",
    "format_run_report",
    "format_series",
    "paper_vs_measured",
    "ComparisonReport",
    "compare_to_baseline",
    "detect_trends",
    "evaluate_expectations",
    "format_comparison_report",
    "load_expectations",
]
