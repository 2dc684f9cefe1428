"""Plain-text table rendering for experiment results, and the no-cliff
rule the degradation sweeps gate on."""

from __future__ import annotations

from collections.abc import Mapping, Sequence

__all__ = ["render_table", "format_value", "render_series", "no_cliff"]

#: the largest share of the preceding level's value one step down may
#: lose before the step counts as a cliff
MAX_STEP_LOSS = 0.5


def no_cliff(values_by_level: Mapping[float, float]) -> bool:
    """True when, walking the levels from highest to lowest, no adjacent
    step loses more than ``MAX_STEP_LOSS`` of the preceding level's value.

    Graceful degradation means quality declines smoothly as the level
    (e.g. service availability) drops; a cliff is a single step that
    wipes out most of the remaining quality.
    """
    ordered = [
        values_by_level[level] for level in sorted(values_by_level, reverse=True)
    ]
    return not any(
        prev > 0 and nxt < (1.0 - MAX_STEP_LOSS) * prev
        for prev, nxt in zip(ordered, ordered[1:])
    )


def format_value(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table."""
    formatted = [[format_value(v) for v in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(row[i]) for row in formatted))
        if formatted
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in formatted:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    xs: Sequence[object], ys: Sequence[float], x_name: str, y_name: str
) -> str:
    """Render an (x, y) series as a two-column table (figure data)."""
    return render_table([x_name, y_name], list(zip(xs, ys)))


def render_bars(
    labels: Sequence[str],
    values: Sequence[float],
    title: str | None = None,
    width: int = 40,
    reference: float | None = None,
) -> str:
    """Render a horizontal ASCII bar chart (for figure benchmarks).

    ``reference`` (e.g. the baseline at relative AUPRC 1.0) is marked
    with a ``|`` on each bar when it falls inside the plotted range.
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    lines: list[str] = []
    if title:
        lines.append(title)
    if not values:
        return "\n".join(lines)
    peak = max(max(values), reference or 0.0, 1e-9)
    label_width = max(len(str(label)) for label in labels)
    ref_pos = (
        int(round(reference / peak * width)) if reference is not None else None
    )
    for label, value in zip(labels, values):
        length = max(int(round(value / peak * width)), 0)
        bar = list("#" * length + " " * (width - length))
        if ref_pos is not None and 0 <= ref_pos < width:
            bar[ref_pos] = "|" if bar[ref_pos] == " " else "+"
        lines.append(
            f"{str(label).ljust(label_width)}  {''.join(bar)} {format_value(value)}"
        )
    return "\n".join(lines)
