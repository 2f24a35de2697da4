"""Minimal self-contained SVG line plots: axes, optional log scales, one
polyline per series, and a small legend.  No external assets, no plotting
dependency; the output is valid standalone XML.
"""

from __future__ import annotations

import math
from pathlib import Path
from xml.sax.saxutils import escape

__all__ = ["write_line_plot"]

_W, _H = 760, 500
_ML, _MR, _MT, _MB = 70, 20, 30, 55
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f"]
# the plotted range: spans, coordinates and tick values stay finite within it
_HUGE, _TINY = 1e300, 1e-300


def _ticks_linear(lo: float, hi: float, n: int = 6) -> list[float]:
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((s for s in (1.0, 2.0, 5.0, 10.0) if s * mag >= raw),
               default=10.0) * mag
    v = math.ceil(lo / step) * step
    out = []
    while v <= hi + 1e-12 * step:
        out.append(v)
        v += step
    return out


def _ticks_log(lo: float, hi: float) -> list[float]:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(int(lo_e), int(hi_e) + 1)]


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


def _axis(vals: list[float], log: bool) -> tuple[float, float, list[float]]:
    """One axis over its plotted values: the extent (in log10 on a log
    axis), widened where it is too narrow to resolve, and the tick values."""
    lo, hi = min(vals), max(vals)
    if log:
        lo, hi = math.log10(lo), math.log10(max(hi, lo * 1.0000001))
    # ticks step by a sixth of the extent or more, which must stay well
    # above the rounding of the values and the smallest normal float
    if not hi - lo > 1e-12 * max(abs(lo), abs(hi), 1e-288):
        hi = lo + max(1.0, 1e-6 * abs(lo))
    return lo, hi, _ticks_log(10 ** lo, 10 ** hi) if log else _ticks_linear(lo, hi)


def write_line_plot(path: str | Path, series: list[tuple[str, list[float], list[float]]],
                    title: str = "", xlabel: str = "", ylabel: str = "",
                    logx: bool = False, logy: bool = False) -> None:
    """Write one plot with a polyline per (label, xs, ys) series.

    A point is plotted when both coordinates lie within +/-1e300, and at or
    above 1e-300 on a log axis, so NaN, infinities and values that a log
    axis cannot show are left out; raises ValueError when no point is left.
    """
    x_min, y_min = (_TINY if logx else -_HUGE), (_TINY if logy else -_HUGE)
    kept = [[(x, y) for x, y in zip(xs, ys) if x_min <= x <= _HUGE and y_min <= y <= _HUGE]
            for _, xs, ys in series]
    if not any(kept):
        raise ValueError("nothing to plot")
    x_lo, x_hi, x_ticks = _axis([x for pts in kept for x, _ in pts], logx)
    y_lo, y_hi, y_ticks = _axis([y for pts in kept for _, y in pts], logy)

    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def sx(x: float) -> float:
        v = math.log10(x) if logx else x
        return _ML + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(y: float) -> float:
        v = math.log10(y) if logy else y
        return _MT + ph - (v - y_lo) / (y_hi - y_lo) * ph

    el = ['<?xml version="1.0" encoding="UTF-8"?>',
          f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
          f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
          f'<rect width="{_W}" height="{_H}" fill="white"/>',
          f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
          'stroke="black" stroke-width="1"/>']
    if title:
        el.append(f'<text x="{_W/2:.1f}" y="20" text-anchor="middle" '
                  f'font-size="14">{escape(title)}</text>')

    for tv in x_ticks:
        px = sx(tv)
        if _ML - 1 <= px <= _W - _MR + 1:
            el.append(f'<line x1="{px:.1f}" y1="{_MT + ph}" x2="{px:.1f}" '
                      f'y2="{_MT + ph + 5}" stroke="black"/>')
            el.append(f'<text x="{px:.1f}" y="{_MT + ph + 18}" '
                      f'text-anchor="middle">{escape(_fmt(tv))}</text>')
    for tv in y_ticks:
        py = sy(tv)
        if _MT - 1 <= py <= _MT + ph + 1:
            el.append(f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" '
                      f'y2="{py:.1f}" stroke="black"/>')
            el.append(f'<text x="{_ML - 8}" y="{py + 4:.1f}" '
                      f'text-anchor="end">{escape(_fmt(tv))}</text>')
    if xlabel:
        el.append(f'<text x="{_ML + pw/2:.1f}" y="{_H - 12}" '
                  f'text-anchor="middle">{escape(xlabel)}</text>')
    if ylabel:
        el.append(f'<text x="16" y="{_MT + ph/2:.1f}" text-anchor="middle" '
                  f'transform="rotate(-90 16 {_MT + ph/2:.1f})">{escape(ylabel)}</text>')

    for i, ((label, _, _), pts) in enumerate(zip(series, kept)):
        color = _COLORS[i % len(_COLORS)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        el.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                  f'points="{points}"/>')
        ly = _MT + 16 + 16 * i
        el.append(f'<line x1="{_W - _MR - 150}" y1="{ly - 4}" '
                  f'x2="{_W - _MR - 120}" y2="{ly - 4}" stroke="{color}" '
                  'stroke-width="1.5"/>')
        el.append(f'<text x="{_W - _MR - 114}" y="{ly}">{escape(label)}</text>')

    el.append("</svg>")
    Path(path).write_text("\n".join(el) + "\n", encoding="utf-8")
