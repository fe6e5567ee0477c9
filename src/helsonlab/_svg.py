"""Minimal SVG 1.1 emission for log-log spectral plots.

Direct markup, no plotting dependency; output is deterministic for
identical inputs (fixed float formatting throughout).
"""

from __future__ import annotations

import math
from html import escape

import numpy as np

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 64, 16, 36, 48
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _decades(lo: float, hi: float):
    first = math.ceil(math.log10(lo) - 1e-12)
    last = math.floor(math.log10(hi) + 1e-12)
    return [10.0**k for k in range(first, last + 1)]


class _LogAxes:
    def __init__(self, x_range, y_range):
        self.x0, self.x1 = (math.log10(v) for v in x_range)
        self.y0, self.y1 = (math.log10(v) for v in y_range)
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0

    def px(self, x: float) -> float:
        t = (math.log10(x) - self.x0) / (self.x1 - self.x0)
        return _ML + t * (_W - _ML - _MR)

    def py(self, y: float) -> float:
        t = (math.log10(y) - self.y0) / (self.y1 - self.y0)
        return _H - _MB - t * (_H - _MT - _MB)


def _tick_label(v: float) -> str:
    exp = round(math.log10(v))
    if -3 <= exp <= 3:
        return "%g" % v
    return f"1e{exp:d}"


def loglog_figure(path, series, reference=None, title="",
                  x_label="n", y_label="value") -> None:
    """Write a log-log SVG plot.

    series: list of (label, x_values, y_values); nonpositive points are
    dropped (log axes).  reference: optional (label, x, y) drawn dashed.
    """
    cleaned = []
    for label, xs, ys in list(series) + ([reference] if reference else []):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = (xs > 0) & (ys > 0)
        cleaned.append((label, xs[keep], ys[keep]))
    pts = [c for c in cleaned if c[1].size]
    if not pts:
        raise ValueError("nothing to plot: no positive points")
    x_lo = min(float(c[1].min()) for c in pts)
    x_hi = max(float(c[1].max()) for c in pts)
    y_lo = min(float(c[2].min()) for c in pts)
    y_hi = max(float(c[2].max()) for c in pts)
    ax = _LogAxes((x_lo, x_hi), (y_lo, y_hi))

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">')
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#333" '
        f'stroke-width="1"/>')
    if title:
        out.append(
            f'<text x="{_W // 2}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">'
            f'{escape(title, quote=False)}</text>')

    for v in _decades(x_lo, x_hi):
        x = ax.px(v)
        out.append(
            f'<line x1="{x:.2f}" y1="{_MT}" x2="{x:.2f}" y2="{_H - _MB}" '
            f'stroke="#ddd" stroke-width="1"/>')
        out.append(
            f'<text x="{x:.2f}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">'
            f'{_tick_label(v)}</text>')
    for v in _decades(y_lo, y_hi):
        y = ax.py(v)
        out.append(
            f'<line x1="{_ML}" y1="{y:.2f}" x2="{_W - _MR}" y2="{y:.2f}" '
            f'stroke="#ddd" stroke-width="1"/>')
        out.append(
            f'<text x="{_ML - 6}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">'
            f'{_tick_label(v)}</text>')

    out.append(
        f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 10}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f'{escape(x_label, quote=False)}</text>')
    out.append(
        f'<text x="16" y="{(_MT + _H - _MB) // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) // 2})">'
        f'{escape(y_label, quote=False)}</text>')

    n_series = len(series)
    legend_y = _MT + 14
    for idx, (label, xs, ys) in enumerate(cleaned):
        is_ref = reference is not None and idx == n_series
        color = "#777" if is_ref else _COLORS[idx % len(_COLORS)]
        dash = ' stroke-dasharray="6 4"' if is_ref else ""
        if xs.size:
            coords = " ".join(f"{ax.px(x):.2f},{ax.py(y):.2f}"
                              for x, y in zip(xs, ys))
            out.append(
                f'<polyline points="{coords}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"{dash}/>')
            if not is_ref:
                for x, y in zip(xs, ys):
                    out.append(
                        f'<circle cx="{ax.px(x):.2f}" cy="{ax.py(y):.2f}" '
                        f'r="2" fill="{color}"/>')
        if label:
            out.append(
                f'<line x1="{_W - _MR - 150}" y1="{legend_y - 4}" '
                f'x2="{_W - _MR - 126}" y2="{legend_y - 4}" '
                f'stroke="{color}" stroke-width="1.5"{dash}/>')
            out.append(
                f'<text x="{_W - _MR - 120}" y="{legend_y}" '
                f'font-family="sans-serif" font-size="11">'
                f'{escape(str(label), quote=False)}</text>')
            legend_y += 16
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
