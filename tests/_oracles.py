"""Test oracles: central-difference gradients and their input check, the
two-branch logistic derivative, the mean loss and gradient of linear and
network GD at one point through the maps their engine steps with, the
network outputs and tangent features computed on their own, a
certificate check, and the
split-comparator and margin-alignment inequalities of a stored run."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from eoslab import descent, losses, ntk


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


def _gd_maps(loss: losses.LossSpec, margins, gradient) -> tuple:
    """(mean_loss, grad) at one point w from an engine's maps, on a batch
    of one."""
    def z(w):
        return margins(np.asarray(w, dtype=np.float64)[None])

    def mean_loss(w) -> float:
        return float(np.mean(losses.eval_loss(loss, z(w))))

    def grad(w) -> np.ndarray:
        return gradient(losses.deriv(loss, z(w)))[0]

    return mean_loss, grad


def linear_gd_maps(loss: losses.LossSpec, ds) -> tuple:
    """(mean_loss, grad): the mean loss at w and its gradient as GD steps
    with it, both through ``descent._linear_maps`` on a batch of one."""
    return _gd_maps(loss, *descent._linear_maps(ds))


def network_gd_maps(loss: losses.LossSpec, net, ds) -> tuple:
    """(mean_loss, grad) at the flattened first-layer weights w, as
    ``ntk.run_gd_ntk`` steps with them, both through ``ntk._network_maps``
    on a batch of one."""
    return _gd_maps(loss, *ntk._network_maps(net, ds))


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
