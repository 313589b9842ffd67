"""Terminal plots: the figures, drawn where the benchmarks run.

The paper's evaluation is all line plots and heatmaps; this module renders
both as plain text so ``pytest benchmarks/`` output and the result files
carry the *shapes*, not just the numbers.

* :func:`line_plot` — multi-series scatter/line on a character grid
  (Figures 1, 2, 9, 10, 14);
* :func:`heatmap` — shaded cell grid with values (Figures 11–13).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Shades from light to dark for heatmap cells.
_SHADES = " .:-=+*#%@"

_MARKERS = "ox+*@#"


def _scale(value: float, low: float, high: float, steps: int) -> int:
    if high <= low:
        return 0
    position = (value - low) / (high - low)
    return min(steps - 1, max(0, int(round(position * (steps - 1)))))


def line_plot(
    series: Mapping[str, Sequence[Tuple[float, float]]],
    width: int = 60,
    height: int = 16,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render named (x, y) series on one character grid.

    Each series gets a marker; the legend maps markers to names.  Axis
    extremes are annotated.  Later series overwrite earlier ones on
    collisions (draw the most important series last).
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        raise ValueError("nothing to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    grid = [[" "] * width for _ in range(height)]
    for index, (name, pts) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        for x, y in pts:
            column = _scale(x, x_low, x_high, width)
            row = height - 1 - _scale(y, y_low, y_high, height)
            grid[row][column] = marker
    lines: List[str] = []
    if title:
        lines.append(title)
    top_label = f"{y_high:g}"
    bottom_label = f"{y_low:g}"
    pad = max(len(top_label), len(bottom_label), len(y_label))
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label.rjust(pad)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(pad)
        elif row_index == height // 2 and y_label:
            prefix = y_label.rjust(pad)[:pad]
        else:
            prefix = " " * pad
        lines.append(f"{prefix} |{''.join(row)}")
    axis = f"{' ' * pad} +{'-' * width}"
    lines.append(axis)
    x_axis = f"{x_low:g}".ljust(width // 2) + f"{x_high:g}".rjust(width - width // 2)
    lines.append(f"{' ' * pad}  {x_axis}")
    if x_label:
        lines.append(f"{' ' * pad}  {x_label.center(width)}")
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {name}"
        for i, name in enumerate(series)
    )
    lines.append(f"{' ' * pad}  [{legend}]")
    return "\n".join(lines)


def heatmap(
    rows: Sequence[str],
    columns: Sequence[str],
    values: Mapping[Tuple[str, str], float],
    title: str = "",
    low: Optional[float] = None,
    high: Optional[float] = None,
    cell_format: str = "{:.2f}",
) -> str:
    """Render a (row, column) -> value grid with shade + number per cell."""
    observed = [values[(r, c)] for r in rows for c in columns if (r, c) in values]
    if not observed:
        raise ValueError("nothing to plot")
    lo = low if low is not None else min(observed)
    hi = high if high is not None else max(observed)
    cells: Dict[Tuple[str, str], str] = {}
    cell_width = 0
    for r in rows:
        for c in columns:
            value = values.get((r, c))
            if value is None:
                text = "-"
            else:
                shade = _SHADES[_scale(value, lo, hi, len(_SHADES))]
                text = f"{shade}{cell_format.format(value)}"
            cells[(r, c)] = text
            cell_width = max(cell_width, len(text))
    row_width = max(len(str(r)) for r in rows)
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " " * row_width + "  " + "  ".join(
        str(c).rjust(cell_width) for c in columns
    )
    lines.append(header)
    for r in rows:
        lines.append(
            str(r).rjust(row_width)
            + "  "
            + "  ".join(cells[(r, c)].rjust(cell_width) for c in columns)
        )
    lines.append(f"shade scale: {lo:g} '{_SHADES[0]}' .. {hi:g} '{_SHADES[-1]}'")
    return "\n".join(lines)


#: Sparkline glyphs, lowest to highest.
_SPARKS = "▁▂▃▄▅▆▇█"


def sparkline(
    values: Sequence[float],
    low: Optional[float] = None,
    high: Optional[float] = None,
    width: Optional[int] = None,
) -> str:
    """One-line trend glyphs for a numeric series.

    ``low``/``high`` pin the scale (defaults: observed extremes); ``width``
    downsamples long series by bucket-averaging so the line fits a report
    column.  An empty series renders as an empty string.
    """
    data = [float(v) for v in values]
    if not data:
        return ""
    if width is not None and width > 0 and len(data) > width:
        bucketed: List[float] = []
        for index in range(width):
            start = index * len(data) // width
            end = max(start + 1, (index + 1) * len(data) // width)
            chunk = data[start:end]
            bucketed.append(sum(chunk) / len(chunk))
        data = bucketed
    lo = min(data) if low is None else float(low)
    hi = max(data) if high is None else float(high)
    return "".join(_SPARKS[_scale(v, lo, hi, len(_SPARKS))] for v in data)

