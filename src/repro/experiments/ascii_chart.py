"""Terminal charts: figure bar charts and telemetry time-series charts.

The paper's figures are bar charts; ``run_all_experiments.py`` and the
CLI can render a :class:`FigureResult` as ASCII bars so the shape of each
result is visible without plotting libraries.  :func:`series_chart` does
the same for a telemetry :class:`~repro.sim.telemetry.TimeSeries`
(``python -m repro run --chart COLUMN``), so counter dynamics over a run are
inspectable in the terminal too.
"""

from __future__ import annotations

from repro.experiments.common import FigureResult


def bar_chart(
    fig: FigureResult,
    value_col: int,
    label_cols: tuple[int, ...] = (0, 1),
    width: int = 48,
    baseline: float | None = None,
) -> str:
    """Render one numeric column of a figure as horizontal bars.

    ``baseline`` draws a marker at that value (e.g. 1.0 for normalised
    speedups)."""
    rows = [r for r in fig.rows if isinstance(r[value_col], (int, float))]
    if not rows:
        return f"== {fig.figure}: (no numeric rows) =="
    values = [float(r[value_col]) for r in rows]
    vmax = max(max(values), baseline or 0.0)
    if vmax <= 0:
        vmax = 1.0
    labels = [
        " ".join(str(r[c]) for c in label_cols if c < len(r)) for r in rows
    ]
    label_w = max(len(s) for s in labels)
    lines = [f"== {fig.figure}: {fig.title} =="]
    marker = (
        int(round((baseline / vmax) * width)) if baseline is not None else -1
    )
    for label, value in zip(labels, values):
        filled = int(round((value / vmax) * width))
        bar = list("#" * filled + " " * (width - filled))
        if 0 <= marker < width and bar[marker] == " ":
            bar[marker] = "|"
        lines.append(f"{label.ljust(label_w)}  {''.join(bar)} {value:.3f}")
    return "\n".join(lines)


def series_chart(
    series,
    column: str,
    width: int = 48,
    max_rows: int = 24,
    title: str | None = None,
) -> str:
    """Render one column of a telemetry time series as horizontal bars.

    Each output row covers a window of consecutive samples (the series is
    downsampled to at most ``max_rows`` rows by summing each window --
    right for the delta columns, which dominate; gauge columns read as
    window totals).  Row labels give the access index at the window
    end."""
    samples = series.samples
    if not samples:
        return f"== {title or column}: (no samples) =="
    values = series.column(column)
    indices = series.column("access_index")
    stride = max(1, -(-len(values) // max_rows))  # ceil division
    rows = []
    for start in range(0, len(values), stride):
        window = values[start:start + stride]
        rows.append((indices[min(start + stride, len(values)) - 1],
                     sum(window)))
    vmax = max((v for _, v in rows), default=0)
    if vmax <= 0:
        vmax = 1
    label_w = max(len(str(idx)) for idx, _ in rows)
    head = title or column
    lines = [f"== {head} ==",
             f"(access index vs. {column}, {len(samples)} samples"
             + (f", {series.dropped} dropped" if series.dropped else "")
             + ")"]
    for idx, value in rows:
        filled = int(round((value / vmax) * width))
        lines.append(
            f"{str(idx).rjust(label_w)}  {'#' * filled}"
            f"{' ' * (width - filled)} {value:g}"
        )
    return "\n".join(lines)
