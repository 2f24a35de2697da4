"""Test oracles: central-difference gradients and their input check, the
two-branch logistic derivative, the one divergence guard fed a loss at a
time and the one GD loop stepped a step at a time, whose runs the linear,
network and SGD engines must reproduce bit for bit, with linear and network
maps written apart from the package, and the two helpers that take a run's
outcome; the mean loss and gradient of linear and network GD at one point
through the maps their engine steps with, the network outputs and tangent
features computed on their own, the synthetic dataset built one sample at
a time, a certificate check, the split-comparator and margin-alignment
inequalities of a stored run, and the row-by-row CSV and list-based SVG
writers whose bytes the streaming writers of ``descent`` and ``_svg`` must
reproduce.  Every function and class here is used by a test."""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Sequence
from xml.sax.saxutils import escape

import numpy as np
import pytest

from eoslab import data, descent, losses, ntk
from eoslab.numerics import Rng


def as_vec(x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce to a finite 1-D float64 array (the input check of
    :func:`finite_diff_grad`)."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector with at least one entry, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def finite_diff_grad(
    f: Callable[[np.ndarray], float],
    w: np.ndarray,
    h: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of f at w, one coordinate at a time."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    w = as_vec(w)
    g = np.empty_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (f(w + e) - f(w - e)) / (2.0 * h)
    return g


def logistic_deriv(z) -> np.ndarray:
    """l'(z) = -1/(1+e^z) of the logistic loss as two full branches picked
    by ``np.where``: -e^-z/(1+e^-z) for z >= 0, -1/(1+e^z) below."""
    z = np.asarray(z, dtype=np.float64)
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0.0, -ez / (1.0 + ez), -1.0 / (1.0 + ez))


class StepwiseGuard:
    """The divergence guard fed one loss at a time: :meth:`check` raises
    ``descent.DivergenceError`` on a non-finite loss, or once the loss has
    stayed above ``descent._GUARD_FACTOR`` times L(w_0) for
    ``descent._GUARD_PATIENCE`` steps in a row."""

    def __init__(self):
        self.loss0, self.over = None, 0

    def check(self, t: int, lval: float) -> None:
        if not math.isfinite(lval):
            raise descent.DivergenceError(t, f"non-finite loss at step {t}")
        if self.loss0 is None:
            self.loss0 = lval
        self.over = self.over + 1 if lval > descent._GUARD_FACTOR * self.loss0 else 0
        if self.over >= descent._GUARD_PATIENCE:
            raise descent.DivergenceError(t, (
                f"loss exceeded {descent._GUARD_FACTOR:g} * L(w_0) for "
                f"{descent._GUARD_PATIENCE} consecutive steps (step {t})"))


def stepwise_gd(loss: losses.LossSpec, eta: float, steps: int, w0, margins, gradient,
                record_every: int = 1, store_iterates: bool = False) -> descent.Trajectory:
    """GD from w0 one step at a time, the oracle for ``descent.gd_engine``:
    at step t the margins z = margins(w) and their mean loss, which a
    :class:`StepwiseGuard` checks, then w - eta * gradient(w, l'(z)).  Every
    series is evaluated and recorded at every ``record_every``-th step and
    the last; the iterates, if asked, at every step."""
    w = np.array(w0, dtype=np.float64)
    origin, T, guard = w.copy(), steps, StepwiseGuard()
    iterates = np.empty((T + 1, w.size)) if store_iterates else None
    rec = {k: [] for k in ("steps", "loss", "grad_norm", "param_norm", "dist_init", "G", "F")}
    for t in range(T + 1):
        z = margins(w)
        lval = float(np.mean(losses.eval_loss(loss, z)))
        guard.check(t, lval)
        dvec = losses.deriv(loss, z)
        gvec = gradient(w, dvec)
        if iterates is not None:
            iterates[t] = w
        if t % record_every == 0 or t == T:
            with np.errstate(over="ignore"):
                Fv = float(np.mean(np.exp(-z)))
            for key, value in zip(rec, (t, lval, np.linalg.norm(gvec), np.linalg.norm(w),
                                        np.linalg.norm(w - origin), np.mean(np.abs(dvec)), Fv)):
                rec[key].append(value)
        if t < T:
            w = w - eta * gvec
    return descent.Trajectory(
        steps=np.array(rec.pop("steps"), dtype=np.int64),
        **{key: np.array(series) for key, series in rec.items()},
        eta=eta, loss_spec=loss, record_every=record_every, w_final=w.copy(),
        iterates=iterates)


def linear_maps(ds) -> tuple:
    """(margins, gradient) of :func:`stepwise_gd` for linear GD on ds,
    written apart from ``descent``: the margins y_i x_i^T w, and the
    mean-loss gradient in w from the loss derivatives D at them."""
    Zy = ds.signed()
    return (lambda w: Zy @ w), (lambda w, D: Zy.T @ D / ds.n)


def network_maps(net, ds) -> tuple:
    """(margins, gradient) of :func:`stepwise_gd` for GD on the
    flattened first-layer weights w of ``net``, written apart from ``ntk``:
    the margins y_i f(x_i; w), and the mean-loss gradient in w from the
    loss derivatives D at them, ReLU mask and all taken afresh at w."""
    shape, scale = net.w0.shape, net.a[:, None] / math.sqrt(net.m)

    def margins(w):
        return ds.ys * network_outputs(net, w.reshape(shape), ds.xs)

    def gradient(w, D):
        pre = ds.xs @ w.reshape(shape).T
        coeff = D * ds.ys / ds.n
        return (scale * (((pre > 0.0) * coeff[:, None]).T @ ds.xs)).ravel()

    return margins, gradient


def divergence(run, *args, **kwargs) -> tuple[int, str]:
    """(step, message) of the DivergenceError that ``run(*args, **kwargs)``
    raises."""
    with pytest.raises(descent.DivergenceError) as exc:
        run(*args, **kwargs)
    return exc.value.step, str(exc.value)


def outcome(run, *args, **kwargs):
    """What ``run(*args, **kwargs)`` returns, or the DivergenceError it
    raises, with numpy's floating-point errors ignored: a stepwise loop
    overflows on a diverging run."""
    with np.errstate(all="ignore"):
        try:
            return run(*args, **kwargs)
        except descent.DivergenceError as exc:
            return exc


def _gd_maps(loss: losses.LossSpec, n: int, margins, gradient) -> tuple:
    """(mean_loss, grad) at one point w from an engine's maps, on a batch
    of one of n margins."""
    def z(w):
        Z = np.empty((1, n))
        margins(np.asarray(w, dtype=np.float64)[None], Z)
        return Z

    def mean_loss(w) -> float:
        return float(np.mean(losses.eval_loss(loss, z(w))))

    def grad(w) -> np.ndarray:
        return gradient(losses.deriv(loss, z(w)))[0]

    return mean_loss, grad


def linear_gd_maps(loss: losses.LossSpec, ds) -> tuple:
    """(mean_loss, grad): the mean loss at w and its gradient as GD steps
    with it, both through ``descent._linear_maps`` on a batch of one."""
    return _gd_maps(loss, ds.n, *descent._linear_maps(ds))


def network_gd_maps(loss: losses.LossSpec, net, ds) -> tuple:
    """(mean_loss, grad) at the flattened first-layer weights w, as
    ``ntk.run_gd_ntk`` steps with them, both through ``ntk._network_maps``
    on a batch of one."""
    return _gd_maps(loss, ds.n, *ntk._network_maps(net, ds))


def network_outputs(net, w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """f(x_i; w) = (1/sqrt(m)) sum_s a_s relu(x_i^T w^(s)) for the rows of
    X, at the (m, d) first-layer weights w, written out apart from ``ntk``."""
    return np.maximum(X @ w.T, 0.0) @ net.a / math.sqrt(net.m)


def grad_param(net, x: np.ndarray) -> np.ndarray:
    """Parameter gradient of f(x; .) at w_0, flattened to (m*d,), one sample
    at a time.

    Block s is (a_s/sqrt(m)) * 1[x^T w_0^(s) > 0] * x; the indicator is
    strict at zero, matching the fixed subgradient choice.
    """
    x = np.asarray(x, dtype=np.float64)
    active = (net.w0 @ x > 0.0).astype(np.float64)
    blocks = (net.a * active)[:, None] * x[None, :] / math.sqrt(net.m)
    return blocks.ravel()


def tangent_features(net, ds) -> np.ndarray:
    """The (n, m*d) tangent features y_i * grad f(x_i; w_0), stacked from
    :func:`grad_param` one sample at a time."""
    return np.stack([ds.ys[i] * grad_param(net, ds.xs[i]) for i in range(ds.n)])


def synthetic_separable_rows(n: int, d: int, gamma: float, rng: Rng) -> data.Dataset:
    """``data.synthetic_separable`` one sample at a time, each from its own
    ``rng.normals(d)``; the oracle for the builder's batched form."""
    ys = rng.rademacher(n)
    xs = np.empty((n, d))
    for i in range(n):
        v = rng.normals(d)
        v /= np.linalg.norm(v)
        first = gamma + (1.0 - gamma) * abs(v[0])
        rest = v[1:]
        rest_norm2 = float(rest @ rest)
        target_rest2 = max(1.0 - first * first, 0.0)
        if rest_norm2 > 0.0:
            rest = rest * math.sqrt(target_rest2 / rest_norm2)
        xs[i, 0] = ys[i] * first
        xs[i, 1:] = rest
    return data.Dataset(xs, ys, name=f"synthetic(n={n},d={d},gamma={gamma})")


def verify_margin(ds, cert, tol: float = 1e-9) -> bool:
    """True iff the certificate's direction is a unit vector that attains
    its claimed margin, to within ``tol``."""
    w = np.asarray(cert.w_star, dtype=np.float64)
    if abs(float(np.linalg.norm(w)) - 1.0) > 1e-10:
        return False
    return bool(np.min(ds.signed() @ w) >= cert.gamma - tol)


def split_optimization_check(traj, ds, cert, u1: np.ndarray, t: int) -> float:
    """Residual of the split-comparator inequality at step t.

    With u = u1 + (eta/(2*gamma)) w_star, the inequality

        ||w_t - u||^2/(2 eta t) + avg_{k<t} L(w_k)
            <= L(u1) + ||w_0 - u||^2/(2 eta t)

    holds for logistic runs on unit-ball data with certified margin, for
    any u1.  Returns LHS - RHS (expected <= 0 on conformant inputs).
    """
    if traj.iterates is None:
        raise ValueError("split check needs stored iterates")
    traj._require_dense()
    horizon = int(traj.steps[-1])
    if not 1 <= t <= horizon:
        raise ValueError(f"t must lie in [1, {horizon}]")
    eta = traj.eta
    u1 = np.asarray(u1, dtype=np.float64)
    u = u1 + (eta / (2.0 * cert.gamma)) * cert.w_star
    w0, wt = traj.iterates[0], traj.iterates[t]
    lhs = float(np.sum((wt - u) ** 2)) / (2.0 * eta * t) + float(np.mean(traj.loss[:t]))
    mean_loss = linear_gd_maps(traj.loss_spec, ds)[0]
    rhs = mean_loss(u1) + float(np.sum((w0 - u) ** 2)) / (2.0 * eta * t)
    return lhs - rhs


def perceptron_potential_check(traj, cert) -> float:
    """Minimum slack of the margin-alignment inequality along a run.

    Each step must advance the projection on the certified direction by at
    least gamma * eta * G(w_t); returns min_t of the actual advance minus
    that floor (expected >= 0 on conformant inputs).
    """
    if traj.iterates is None:
        raise ValueError("perceptron check needs stored iterates")
    traj._require_dense()
    proj = traj.iterates @ cert.w_star
    slack = (proj[1:] - proj[:-1]) - cert.gamma * traj.eta * traj.G[:-1]
    return float(np.min(slack))


# -- reference writers: the trajectory CSV written row by row from whole
# columns of Python numbers, and the SVG plot built from lists of point
# tuples and joined into one string, as the writers of eoslab did before
# they streamed


def write_trajectory_csv_rows(traj: descent.Trajectory, path: str | Path) -> None:
    """Write the recorded series as CSV (round-trippable decimal text)."""
    cols = descent.CSV_COLUMNS + (() if traj.zero_one is None else ("zero_one",))
    series = [traj.steps] + [getattr(traj, col) for col in cols[1:]]
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for row in zip(*(s.tolist() for s in series)):
            fh.write(",".join(map(repr, row)) + "\n")


_W, _H = 760, 500
_ML, _MR, _MT, _MB = 70, 20, 30, 55
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f"]
# the plotted range: spans, coordinates and tick values stay finite within it
_HUGE, _TINY = 1e300, 1e-300
# the decades between log-axis ticks: enough for the 600 decades of that range
_DECADE_STEPS = (1, 2, 5, 10, 20, 50, 100)


def _ticks_linear(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / 6
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
    """Every k-th power of ten (the exponents divisible by k) from the
    decade at or below lo to the one at or above hi, k the first of
    _DECADE_STEPS with log10(hi / lo) < 11 k: every decade over a span
    under 11 decades, and at most 11 labelled decades in [lo, hi]."""
    lo_l, hi_l = math.log10(lo), math.log10(hi)
    k = next(k for k in _DECADE_STEPS if hi_l - lo_l < 11 * k)
    lo_e, hi_e = math.floor(lo_l), math.ceil(hi_l)
    return [10.0 ** e for e in range(-(-lo_e // k) * k, hi_e + 1, k)]


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


def write_line_plot_lists(path: str | Path, series: list[tuple[str, list[float], list[float]]],
                          title: str, ylabel: str, logx: bool = False) -> None:
    """Write one plot titled ``title`` with a polyline per (label, xs, ys)
    series, on a log y axis labelled ``ylabel`` over an x axis labelled
    "step".

    A point is plotted when both coordinates lie within +/-1e300, and at or
    above 1e-300 on a log axis, so NaN, infinities and values that a log
    axis cannot show are left out; raises ValueError when no point is left.
    """
    x_min = _TINY if logx else -_HUGE
    kept = [[(x, y) for x, y in zip(xs, ys) if x_min <= x <= _HUGE and _TINY <= y <= _HUGE]
            for _, xs, ys in series]
    if not any(kept):
        raise ValueError("nothing to plot")
    x_lo, x_hi, x_ticks = _axis([x for pts in kept for x, _ in pts], logx)
    y_lo, y_hi, y_ticks = _axis([y for pts in kept for _, y in pts], True)

    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def sx(x: float) -> float:
        v = math.log10(x) if logx else x
        return _ML + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(y: float) -> float:
        return _MT + ph - (math.log10(y) - y_lo) / (y_hi - y_lo) * ph

    el = ['<?xml version="1.0" encoding="UTF-8"?>',
          f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
          f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
          f'<rect width="{_W}" height="{_H}" fill="white"/>',
          f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
          'stroke="black" stroke-width="1"/>']
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
    el.append(f'<text x="{_ML + pw/2:.1f}" y="{_H - 12}" text-anchor="middle">step</text>')
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
