"""Evaluation harness: one entry point per table and figure in the paper."""

from .experiments import (
    APP_DATASETS,
    APP_ORDER,
    EVAL_SCALE,
    ProfileSet,
    best_source,
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

__all__ = [
    "APP_DATASETS",
    "APP_ORDER",
    "EVAL_SCALE",
    "ProfileSet",
    "collect_profiles",
    "best_source",
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
