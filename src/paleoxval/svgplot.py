"""Minimal hand-emitted SVG line/dot charts.

Figures here are polylines and dot clouds on a single pair of axes, which a
plotting framework would be overkill for. Output is deterministic: fixed
float formatting, series emitted in declaration order, one <g> per series.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 860.0, 520.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64.0, 180.0, 40.0, 48.0


def escape(text: str, quote: bool = False) -> str:
    # xml.sax.saxutils.escape (plus '"' for attributes), without importing xml.sax
    text = text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    return text.replace('"', "&quot;") if quote else text


@dataclass(frozen=True)
class Series:
    """One plotted curve or dot cloud."""

    label: str
    x: np.ndarray
    y: np.ndarray
    color: str = "black"
    kind: str = "line"          # "line" | "dashes" | "dots"
    opacity: float = 1.0

    def __post_init__(self):
        if self.kind not in ("line", "dashes", "dots"):
            raise ValueError(f"unknown series kind {self.kind!r}")
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 1 or len(x) == 0:
            raise ValueError("x and y must be equal-length 1-d arrays")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def _ticks(lo: float, hi: float, count: int = 6) -> np.ndarray:
    raw = (hi - lo) / (count - 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s * mag for s in (1.0, 2.0, 2.5, 5.0, 10.0) if s * mag >= raw)
    start = np.ceil(lo / step) * step
    return np.arange(start, hi + step / 2, step)


def write_svg(series: list[Series], path, *, title: str, x_label: str, y_label: str) -> Path:
    """Write a titled chart of several series sharing one x-domain to path."""
    if not series:
        raise ValueError("a plot needs at least one series")
    finite_x = np.concatenate([s.x[np.isfinite(s.y)] for s in series])
    finite_y = np.concatenate([s.y[np.isfinite(s.y)] for s in series])
    if len(finite_x) == 0:
        finite_x, finite_y = np.array([0.0, 1.0]), np.array([0.0, 1.0])
    x_lo, x_hi = float(finite_x.min()), float(finite_x.max())
    y_lo, y_hi = float(finite_y.min()), float(finite_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) or 0.5
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:g}" height="{HEIGHT:g}" '
        f'viewBox="0 0 {WIDTH:g} {HEIGHT:g}">',
        f"<title>{escape(title)}</title>",
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    axis = 'stroke="black" stroke-width="1"'
    x0, y0 = sx(x_lo), sy(y_lo)
    x1, y1 = sx(x_hi), sy(y_hi)
    parts.append(f'<g class="axes"><line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y0:.2f}" {axis}/>'
                 f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{y1:.2f}" {axis}/></g>')

    parts.append('<g class="ticks" font-size="11" font-family="sans-serif" fill="black">')
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(f'<line x1="{px:.2f}" y1="{y0:.2f}" x2="{px:.2f}" y2="{y0 + 5:.2f}" {axis}/>')
        parts.append(f'<text x="{px:.2f}" y="{y0 + 18:.2f}" text-anchor="middle">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(f'<line x1="{x0 - 5:.2f}" y1="{py:.2f}" x2="{x0:.2f}" y2="{py:.2f}" {axis}/>')
        parts.append(f'<text x="{x0 - 8:.2f}" y="{py + 4:.2f}" text-anchor="end">{t:g}</text>')
    parts.append(f'<text x="{(x0 + x1) / 2:.2f}" y="{HEIGHT - 8:.2f}" '
                 f'text-anchor="middle" font-size="13">{escape(x_label)}</text>')
    cx, cy = 16.0, (y0 + y1) / 2
    parts.append(f'<text x="{cx:.2f}" y="{cy:.2f}" text-anchor="middle" font-size="13" '
                 f'transform="rotate(-90 {cx:.2f} {cy:.2f})">{escape(y_label)}</text>')
    parts.append("</g>")
    parts.append(f'<text x="{(x0 + x1) / 2:.2f}" y="{MARGIN_T - 14:.2f}" text-anchor="middle" '
                 f'font-size="15" font-family="sans-serif">{escape(title)}</text>')

    for idx, s in enumerate(series):
        keep = np.isfinite(s.y)
        xs, ys = s.x[keep], s.y[keep]
        attrs = f'class="series" id="series-{idx}" data-label="{escape(s.label, quote=True)}"'
        if s.kind == "dots":
            dots = "".join(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2" fill="{s.color}" '
                           f'fill-opacity="{s.opacity:g}"/>' for x, y in zip(xs, ys))
            parts.append(f"<g {attrs}>{dots}</g>")
        else:
            pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
            dash = ' stroke-dasharray="7,4"' if s.kind == "dashes" else ""
            parts.append(f'<g {attrs}><polyline points="{pts}" fill="none" stroke="{s.color}" '
                         f'stroke-width="1.6" stroke-opacity="{s.opacity:g}"{dash}/></g>')

    legend_x = WIDTH - MARGIN_R + 12
    legend = [f'<g class="legend" font-size="11" font-family="sans-serif">']
    for idx, s in enumerate(series):
        if s.kind == "dots" and idx and s.label == series[idx - 1].label:
            continue    # collapse repeated member labels
        ly = MARGIN_T + 14 * len(legend)
        marker = (f'<circle cx="{legend_x + 8:.2f}" cy="{ly - 3:.2f}" r="2.5" fill="{s.color}"/>'
                  if s.kind == "dots" else
                  f'<line x1="{legend_x:.2f}" y1="{ly - 3:.2f}" x2="{legend_x + 16:.2f}" y2="{ly - 3:.2f}" '
                  f'stroke="{s.color}" stroke-width="2"'
                  + (' stroke-dasharray="5,3"' if s.kind == "dashes" else "") + "/>")
        legend.append(f'{marker}<text x="{legend_x + 22:.2f}" y="{ly:.2f}">{escape(s.label)}</text>')
    legend.append("</g>")
    parts.extend(legend)
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")
    return Path(path)
