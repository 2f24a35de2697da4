"""Minimal self-contained SVG line plots: axes, optional log scales, one
polyline per series, and a small legend.  No external assets, no plotting
dependency; the output is valid standalone XML.

The writer works on the series' arrays and writes each element as it is
made, its polylines' points a block at a time, so its memory is a few
copies of the series' floats, not a Python object per point.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

__all__ = ["write_line_plot"]

_W, _H = 760, 500
_ML, _MR, _MT, _MB = 70, 20, 30, 55
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f"]
# the plotted range: spans, coordinates and tick values stay finite within it
_HUGE, _TINY = 1e300, 1e-300
# polyline points formatted per write
_BLOCK_POINTS = 1024


def escape(text: str) -> str:
    """``text`` with &, < and > as XML entities, & first (as
    ``xml.sax.saxutils.escape`` does, without loading that package)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _log10(v: np.ndarray) -> np.ndarray:
    """log10 of each value by ``math.log10``, whose last bit np.log10 need
    not match."""
    return np.fromiter(map(math.log10, v.tolist()), np.float64, len(v))


def _points(px: np.ndarray, py: np.ndarray) -> str:
    """The ``points`` text of pixel coordinates: "x,y" pairs, each to two
    decimals, joined by spaces."""
    pts = np.empty((len(px), 2))
    pts[:, 0], pts[:, 1] = px, py
    return " ".join(["%.2f,%.2f"] * len(pts)) % tuple(pts.ravel().tolist())


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


def _axis(lo: float, hi: float, log: bool) -> tuple[float, float, list[float]]:
    """One axis over plotted values from lo to hi: the extent (in log10 on a
    log axis), widened where it is too narrow to resolve, and the tick values."""
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
    """Write one plot with a polyline per (label, xs, ys) series, where xs
    and ys are equal-length lists or numpy arrays.

    A point is plotted when both coordinates lie within +/-1e300, and at or
    above 1e-300 on a log axis, so NaN, infinities and values that a log
    axis cannot show are left out; raises ValueError when no point is left.
    """
    x_min, y_min = (_TINY if logx else -_HUGE), (_TINY if logy else -_HUGE)
    kept = []
    for _, xs, ys in series:
        xs, ys = np.asarray(xs), np.asarray(ys)
        ok = (x_min <= xs) & (xs <= _HUGE) & (y_min <= ys) & (ys <= _HUGE)
        kept.append((xs, ys) if ok.all() else (xs[ok], ys[ok]))
    shown = [(xs, ys) for xs, ys in kept if len(xs)]
    if not shown:
        raise ValueError("nothing to plot")
    x_lo, x_hi, x_ticks = _axis(min(float(xs.min()) for xs, _ in shown),
                                max(float(xs.max()) for xs, _ in shown), logx)
    y_lo, y_hi, y_ticks = _axis(min(float(ys.min()) for _, ys in shown),
                                max(float(ys.max()) for _, ys in shown), logy)

    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    # pixel coordinates of (log10 where the axis is log) values, floats or
    # arrays alike: numpy's + - * / round as Python's do
    def sx(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return _MT + ph - (v - y_lo) / (y_hi - y_lo) * ph

    with Path(path).open("w", encoding="utf-8") as fh:
        def put(element: str) -> None:
            fh.write(element + "\n")

        put('<?xml version="1.0" encoding="UTF-8"?>')
        put(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">')
        put(f'<rect width="{_W}" height="{_H}" fill="white"/>')
        put(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
            'stroke="black" stroke-width="1"/>')
        if title:
            put(f'<text x="{_W/2:.1f}" y="20" text-anchor="middle" '
                f'font-size="14">{escape(title)}</text>')

        for tv in x_ticks:
            px = sx(math.log10(tv) if logx else tv)
            if _ML - 1 <= px <= _W - _MR + 1:
                put(f'<line x1="{px:.1f}" y1="{_MT + ph}" x2="{px:.1f}" '
                    f'y2="{_MT + ph + 5}" stroke="black"/>')
                put(f'<text x="{px:.1f}" y="{_MT + ph + 18}" '
                    f'text-anchor="middle">{escape(_fmt(tv))}</text>')
        for tv in y_ticks:
            py = sy(math.log10(tv) if logy else tv)
            if _MT - 1 <= py <= _MT + ph + 1:
                put(f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" '
                    f'y2="{py:.1f}" stroke="black"/>')
                put(f'<text x="{_ML - 8}" y="{py + 4:.1f}" '
                    f'text-anchor="end">{escape(_fmt(tv))}</text>')
        if xlabel:
            put(f'<text x="{_ML + pw/2:.1f}" y="{_H - 12}" '
                f'text-anchor="middle">{escape(xlabel)}</text>')
        if ylabel:
            put(f'<text x="16" y="{_MT + ph/2:.1f}" text-anchor="middle" '
                f'transform="rotate(-90 16 {_MT + ph/2:.1f})">{escape(ylabel)}</text>')

        for i, ((label, _, _), (xs, ys)) in enumerate(zip(series, kept)):
            color = _COLORS[i % len(_COLORS)]
            fh.write(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     'points="')
            for start in range(0, len(xs), _BLOCK_POINTS):
                bx, by = xs[start:start + _BLOCK_POINTS], ys[start:start + _BLOCK_POINTS]
                fh.write((" " if start else "") + _points(sx(_log10(bx) if logx else bx),
                                                          sy(_log10(by) if logy else by)))
            put('"/>')
            ly = _MT + 16 + 16 * i
            put(f'<line x1="{_W - _MR - 150}" y1="{ly - 4}" '
                f'x2="{_W - _MR - 120}" y2="{ly - 4}" stroke="{color}" '
                'stroke-width="1.5"/>')
            put(f'<text x="{_W - _MR - 114}" y="{ly}">{escape(label)}</text>')
        put("</svg>")
