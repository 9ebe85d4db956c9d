"""Self-contained SVG convergence plots.

Hand-built SVG 1.1 so output is deterministic byte for byte: identical
inputs yield identical files.  One polyline per trace, log-scale y-axis,
fixed canvas and palette.
"""

from __future__ import annotations

import math
from pathlib import Path
from xml.sax.saxutils import escape

from ..solver import Trace

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 170, 40, 55
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

_MODES = {"objective": "objective", "gradmap": "grad_map_norm_sq"}
_XAXES = {"epoch": "epoch", "sfo": "sfo_calls"}


def _fmt(v: float) -> str:
    return format(v, ".2f")


def series_from_traces(traces: list[tuple[str, Trace]], mode: str, xaxis: str):
    """Extract (label, xs, ys) triples from traces for the given columns."""
    if mode not in _MODES:
        raise ValueError(f"unknown plot mode {mode!r}; expected one of {sorted(_MODES)}")
    if xaxis not in _XAXES:
        raise ValueError(f"unknown x-axis {xaxis!r}; expected one of {sorted(_XAXES)}")
    ycol, xcol = _MODES[mode], _XAXES[xaxis]
    out = []
    for label, trace in traces:
        xs = [float(getattr(r, xcol)) for r in trace.rows]
        ys = [float(getattr(r, ycol)) for r in trace.rows]
        out.append((label, xs, ys))
    return out


def render_svg(series, xlabel: str, ylabel: str) -> str:
    """Render labelled (xs, ys) series as a log-y SVG line plot, titled by ``ylabel``.

    Non-finite samples (e.g. the gradient-map column of a run that did not
    track it) are dropped from their polyline.
    """
    cleaned = []
    for label, xs, ys in series:
        pts = [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
        if pts:
            cleaned.append((label, [p[0] for p in pts], [p[1] for p in pts]))
    series = cleaned
    if not series:
        raise ValueError("nothing to plot: empty trace set (no finite samples)")

    positive = [y for _, _, ys in series for y in ys if y > 0]
    floor = min(positive) / 10.0 if positive else 1e-12
    all_x = [x for _, xs, _ in series for x in xs]
    all_logy = [math.log10(max(y, floor)) for _, _, ys in series for y in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    ly_lo, ly_hi = min(all_logy), max(all_logy)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if ly_hi == ly_lo:
        ly_lo, ly_hi = ly_lo - 0.5, ly_hi + 0.5

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        ly = math.log10(max(y, floor))
        return MARGIN_T + (ly_hi - ly) / (ly_hi - ly_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" font-family="monospace" '
        f'font-size="15">{escape(ylabel)}</text>',
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{escape(xlabel)}</text>',
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" font-family="monospace" '
        f'font-size="12" transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">{escape(ylabel)}</text>',
    ]

    for i in range(5):
        xv = x_lo + (x_hi - x_lo) * i / 4.0
        xp = _fmt(px(xv))
        parts.append(
            f'<line x1="{xp}" y1="{MARGIN_T + plot_h}" x2="{xp}" y2="{MARGIN_T + plot_h + 5}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{xp}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{format(xv, ".6g")}</text>'
        )
    for i in range(5):
        lv = ly_lo + (ly_hi - ly_lo) * i / 4.0
        yp = _fmt(MARGIN_T + plot_h - (lv - ly_lo) / (ly_hi - ly_lo) * plot_h)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{yp}" x2="{MARGIN_L}" y2="{yp}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 9}" y="{yp}" text-anchor="end" dominant-baseline="middle" '
            f'font-family="monospace" font-size="11">{format(10.0 ** lv, ".3g")}</text>'
        )

    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        ly_pos = MARGIN_T + 16 + 18 * idx
        lx = WIDTH - MARGIN_R + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly_pos - 4}" x2="{lx + 22}" y2="{ly_pos - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly_pos}" font-family="monospace" '
            f'font-size="11">{escape(label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(
    traces: list[tuple[str, Trace]],
    out_path: str | Path,
    mode: str = "objective",
    xaxis: str = "epoch",
) -> None:
    """Write a log-scale comparison plot of the given traces, titled by its y-axis label."""
    series = series_from_traces(traces, mode, xaxis)
    label = "objective" if mode == "objective" else "squared gradient-map norm"
    svg = render_svg(series, xaxis, label)
    Path(out_path).write_text(svg)
