"""Test oracles: central-difference gradients and their input check, the
two-branch logistic derivative, and the mean loss and gradient of linear
GD at one point through the maps its engine steps with."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from eoslab import descent, losses


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


def linear_gd_maps(loss: losses.LossSpec, ds) -> tuple:
    """(mean_loss, grad): the mean loss at w and its gradient as GD steps
    with it, both through ``descent._linear_maps`` on a batch of one."""
    margins, gradient = descent._linear_maps(ds)

    def z(w):
        return margins(np.asarray(w, dtype=np.float64)[None])

    def mean_loss(w) -> float:
        return float(np.mean(losses.eval_loss(loss, z(w))))

    def grad(w) -> np.ndarray:
        return gradient(losses.deriv(loss, z(w)))[0]

    return mean_loss, grad
