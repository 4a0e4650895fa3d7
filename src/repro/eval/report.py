"""Report rendering: turn the table/figure harness outputs into text.

Used by the benchmarks and the ``repro-eval`` grid report, so that the
rows the paper prints and the rows this reproduction measures sit side by
side.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence


def format_table(rows: Sequence[Dict], columns: Sequence[str], title: str = "") -> str:
    """Render a list of row dictionaries as a fixed-width text table."""
    lines: List[str] = []
    if title:
        lines.append(title)
    widths = {col: max(len(col), 10) for col in columns}
    for row in rows:
        for col in columns:
            widths[col] = max(widths[col], len(_fmt(row.get(col))))
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(_fmt(row.get(col)).ljust(widths[col]) for col in columns))
    return "\n".join(lines)


def format_mapping(mapping: Dict, title: str = "", value_format: str = "{:.2f}") -> str:
    """Render a flat ``{name: number}`` mapping as aligned text lines."""
    lines: List[str] = []
    if title:
        lines.append(title)
    width = max((len(str(k)) for k in mapping), default=4)
    for key, value in mapping.items():
        lines.append(f"  {str(key).ljust(width)}  {_fmt(value, value_format)}")
    return "\n".join(lines)


def format_series(series: Dict[str, Iterable], x_key: str, title: str = "") -> str:
    """Render a figure's series ({app: [values], x_key: [xs]}) as a table."""
    xs = list(series[x_key])
    apps = [k for k in series if k != x_key]
    rows = []
    for i, x in enumerate(xs):
        row = {x_key: x}
        for app in apps:
            values = list(series[app])
            row[app] = values[i] if i < len(values) else ""
        rows.append(row)
    return format_table(rows, [x_key] + apps, title=title)


def paper_vs_measured(
    measured: Dict[str, float], paper: Dict[str, float], title: str = ""
) -> str:
    """Two-column comparison of measured values against the paper's."""
    rows = []
    for key in paper:
        rows.append(
            {
                "point": key,
                "paper": paper.get(key),
                "measured": measured.get(key),
            }
        )
    for key in measured:
        if key not in paper:
            rows.append({"point": key, "paper": None, "measured": measured[key]})
    return format_table(rows, ["point", "paper", "measured"], title=title)


def format_run_report(report, title: str = "") -> str:
    """Render an :class:`~repro.runtime.runner.RunReport` as a task table.

    One row per (app, dataset) task with its status, wall time, and error
    (if any), followed by a summary line with the cache hit count and total
    wall time.
    """
    rows = [
        {
            "app": result.app,
            "dataset": result.dataset,
            "status": result.status,
            "seconds": result.duration_s,
            "error": result.error or "",
        }
        for result in report.results
    ]
    table = format_table(rows, ["app", "dataset", "status", "seconds", "error"], title=title)
    summary = (
        f"{len(report.results)} tasks: {report.executed_count()} executed, "
        f"{report.cached_count()} cached, {len(report.errors())} failed "
        f"({report.workers} worker{'s' if report.workers != 1 else ''}, "
        f"{report.wall_time_s:.2f}s wall)"
    )
    return f"{table}\n{summary}"


def _fmt(value, value_format: str = "{:.2f}") -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return value_format.format(value)
    return str(value)
