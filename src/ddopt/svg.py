"""Minimal self-contained SVG line plots.

Deliberately tiny: fixed canvas, linear axes, one polyline per series, a
legend box. Output is byte-stable for identical input (no timestamps, fixed
number formatting), which the CLI tests rely on.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH, HEIGHT = 760, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 36, 48
PALETTE = ["#1f77b4", "#d62728", "#e6b800", "#2ca02c", "#9467bd", "#8c564b", "#17becf"]
MAX_POINTS = 2000  # polylines are decimated beyond this
TICK_COUNT = 6  # target number of ticks per axis


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float):
    if not math.isfinite(lo) or not math.isfinite(hi):
        lo, hi = 0.0, 1.0
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / (TICK_COUNT - 1)
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0.0 else 0.0
    if mag == 0.0:   # a range too narrow for a decimal step: its ends
        return [lo, hi]
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-9 * step:
        if v + step == v:   # a step below half the float spacing at v: its ends
            return [lo, hi]
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def line_plot(path, series, title: str = "", ylabel: str = "") -> None:
    """Write a line plot over t; ``series`` is a list of (label, xs, ys)."""
    if not series:
        raise ValueError("need at least one series")
    xs_all = np.concatenate([np.asarray(s[1], dtype=np.float64) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=np.float64) for s in series])
    x_lo, x_hi = float(np.min(xs_all)), float(np.max(xs_all))
    y_lo, y_hi = float(np.min(ys_all)), float(np.max(ys_all))
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
               f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">')
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    if title:
        out.append(f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
                   f'font-size="14">{title}</text>')

    for tx in _ticks(x_lo, x_hi):
        if tx < x_lo or tx > x_hi:
            continue
        x = px(tx)
        out.append(f'<line x1="{x:.2f}" y1="{MARGIN_T}" x2="{x:.2f}" '
                   f'y2="{MARGIN_T + plot_h}" stroke="#dddddd"/>')
        out.append(f'<text x="{x:.2f}" y="{MARGIN_T + plot_h + 16}" '
                   f'text-anchor="middle">{_fmt(tx)}</text>')
    for ty in _ticks(y_lo, y_hi):
        if ty < y_lo or ty > y_hi:
            continue
        y = py(ty)
        out.append(f'<line x1="{MARGIN_L}" y1="{y:.2f}" x2="{MARGIN_L + plot_w}" '
                   f'y2="{y:.2f}" stroke="#dddddd"/>')
        out.append(f'<text x="{MARGIN_L - 6}" y="{y + 4:.2f}" text-anchor="end">{_fmt(ty)}</text>')
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
               f'fill="none" stroke="#333333"/>')
    out.append(f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 10}" '
               'text-anchor="middle">t</text>')
    if ylabel:
        out.append(f'<text x="16" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
                   f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>')

    for i, (label, xs, ys) in enumerate(series):
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if len(xs) > MAX_POINTS:
            stride = int(math.ceil(len(xs) / MAX_POINTS))
            keep = np.arange(0, len(xs), stride)
            if keep[-1] != len(xs) - 1:
                keep = np.append(keep, len(xs) - 1)
            xs, ys = xs[keep], ys[keep]
        color = PALETTE[i % len(PALETTE)]
        # One format call per series, byte for byte the points formatted alone.
        pts = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(
            np.column_stack([px(xs), py(ys)]).ravel().tolist())
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')

    legend_y = MARGIN_T + 10
    legend_x = MARGIN_L + plot_w - 170
    out.append(f'<rect x="{legend_x - 8}" y="{legend_y - 12}" width="178" '
               f'height="{18 * len(series) + 8}" fill="white" stroke="#999999"/>')
    for i, (label, _, _) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        y = legend_y + 18 * i
        out.append(f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 22}" y2="{y}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{legend_x + 28}" y="{y + 4}">{label}</text>')
    out.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
