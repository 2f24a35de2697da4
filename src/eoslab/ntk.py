"""Width-m two-layer ReLU network trained by full-batch GD in the lazy
(kernel) regime.  The GD is descent's one engine, as a batch of one; this
module supplies the network margins and gradient.  The gradient's output
scale a_s/sqrt(m) is built once per run, as an (m, d) array, and
multiplied in elementwise at every step.  The tangent features at w_0
take their ReLU mask from the same pre-activations ``X @ w_0.T`` that the
run's first step computes.

The network is f(x; w) = (1/sqrt(m)) sum_s a_s relu(x^T w^(s)) with fixed
output signs a_s in {+/-1}, trainable first-layer weights only, and the
ReLU subgradient at zero fixed to 0.  The signs alternate and sum to
zero, so |sum_s a_s| <= C_a sqrt(m) with C_a = 1.  ``bounds.lazy_radius``
and ``bounds.width_min`` give the closed-form conditions under which the
run provably stays near its linearization; the width is a worst-case,
astronomically large threshold, so a run at any width records its
distance from initialization (``dist_init``) for its callers to set
against the radius.
A net is immutable: every run starts at its w_0 and leaves it unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import losses as L
from .data import Dataset, MarginCertificate, margin
from .descent import DivergenceError, Trajectory, _check_run, gd_engine
from .numerics import Rng

__all__ = [
    "NtkNet",
    "init_net",
    "run_gd_ntk",
    "ntk_margin_hat",
]


@dataclass(frozen=True)
class NtkNet:
    """Two-layer ReLU net: the output signs ``a`` and the initialization
    ``w0`` of the trainable (m, d) first layer, where every run starts."""

    a: np.ndarray   # (m,) output signs, +/-1, fixed
    w0: np.ndarray  # (m, d) initialization, drawn once

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def d(self) -> int:
        return self.w0.shape[1]


def init_net(m: int, d: int, rng: Rng) -> NtkNet:
    """Fresh net with alternating signs and standard Gaussian weights.

    m must be even so the alternating signs sum to exactly zero.
    """
    if m < 2 or m % 2 != 0:
        raise ValueError("width m must be an even integer >= 2")
    a = np.tile([1.0, -1.0], m // 2)
    w0 = rng.normals(m * d).reshape(m, d)
    return NtkNet(a=a, w0=w0)


def _network_maps(net: NtkNet, ds: Dataset) -> tuple:
    """The maps that :func:`run_gd_ntk` steps with: ``margins(W, out)``
    writes the (1, n) margins y_i f(x_i; w) at w, the one row of W, into
    ``out``; ``gradient(D)`` returns the (1, m*d) gradient of the mean loss
    in w from the (1, n) loss derivatives D at the margins ``margins`` last
    wrote.
    The gradient checks probe these same maps."""
    shape, root_m, pre = net.w0.shape, math.sqrt(net.m), None
    # row s is a_s/sqrt(m) repeated: the factor the output weights put on
    # the gradient in w^(s)
    out_scale = np.repeat(net.a / root_m, net.d).reshape(shape)

    def margins(W, out):
        nonlocal pre
        pre = ds.xs @ W.reshape(shape).T  # the gradient at w takes its ReLU mask from these
        np.multiply(ds.ys, np.maximum(pre, 0.0) @ net.a / root_m, out=out[0])

    def gradient(D):
        # a float mask scaled in place: the same values and signed zeros as
        # the bool mask times coeff, without a cast inside the broadcast
        mask = (pre > 0.0).astype(np.float64)  # (n, m)
        mask *= (D[0] * ds.ys / ds.n)[:, None]
        return (out_scale * (mask.T @ ds.xs)).reshape(1, -1)

    return margins, gradient


def run_gd_ntk(net: NtkNet, ds: Dataset, loss: L.LossSpec, eta: float,
               T: int) -> Trajectory:
    """Full-batch GD on the network loss.

    Runs ``descent.gd_engine`` on a batch of one, the flattened weights,
    with the maps of :func:`_network_maps`, from ``net.w0``, recording
    every step and ``dist_init`` from ``net.w0``; the net is not changed.
    A run at insufficient width leaves the lazy radius rather than
    failing.
    """
    _check_run(eta, T)
    [traj] = gd_engine(net.w0.reshape(1, -1), ds.n,
                       *_network_maps(net, ds), loss, [eta], T, 1, None)
    if isinstance(traj, DivergenceError):
        raise traj
    return traj


def ntk_margin_hat(net: NtkNet, ds: Dataset) -> MarginCertificate:
    """Certified margin of the finite-width tangent features at w_0.

    Runs the max-margin solver on the n vectors y_i * grad f(x_i; w_0) in
    m*d dimensions.  Raises :class:`NotSeparable` when the tangent
    features are not linearly separable.
    """
    # block s of sample i is y_i (a_s/sqrt(m)) 1[x_i^T w_0^(s) > 0] x_i,
    # strict at zero as the fixed subgradient is; built in place
    feats = (net.a * (ds.xs @ net.w0.T > 0.0))[:, :, None] * ds.xs[:, None, :]
    feats /= math.sqrt(net.m)
    feats = feats.reshape(ds.n, -1)
    feats *= ds.ys[:, None]
    tangent = Dataset(feats, np.ones(ds.n), name=ds.name + "/tangent")
    return margin(tangent)
