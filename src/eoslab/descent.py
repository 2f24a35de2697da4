"""Full-batch GD and online SGD engines, with per-step instrumentation
and phase-transition detection.

``gd_engine`` is the one full-batch GD loop, run by ``run_gd`` on linear
predictors and by ``eoslab.ntk.run_gd_ntk`` on the two-layer network; it
and ``run_sgd`` share one block recorder and one divergence guard.

A trajectory records, at every recorded step, the loss L, the gradient
norm, the parameter norm, the distance from initialization, the gradient
potential G(w) = mean_i |l'(y_i x_i^T w)|, and the exponential potential
F(w) = mean_i exp(-y_i x_i^T w).  G drives the phase-transition bounds;
F is the stable-phase initial-condition term and is primarily meaningful
for logistic runs (it is still computed for every loss).  The step loops
keep each step's margins, from which the series are evaluated once per
block of at most ``_BLOCK_STEPS`` steps, bit for bit as step by step; a
block's buffers hold at most ``_BLOCK_FLOATS`` floats (one step's
margins when n is larger), whatever the parameter size.

Runs are pure functions of their inputs: rerunning with the same config
and dataset reproduces every recorded number bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import bounds as B
from . import losses as L
from .data import Dataset, MarginCertificate
from .numerics import Rng

__all__ = [
    "GdConfig",
    "Trajectory",
    "PhaseReport",
    "DivergenceError",
    "loss_value",
    "grad",
    "run_gd",
    "detect_phase",
    "run_sgd",
    "split_optimization_check",
    "perceptron_potential_check",
    "write_trajectory_csv",
]

# divergence guard: abort after this many consecutive steps with loss
# above 1e3 * L(w_0), or immediately on a non-finite loss
_GUARD_FACTOR = 1e3
_GUARD_PATIENCE = 50

# the recorders evaluate their series once per block of at most
# _BLOCK_STEPS steps whose buffers hold at most _BLOCK_FLOATS floats
_BLOCK_STEPS = 1024
_BLOCK_FLOATS = 2 ** 15

CSV_COLUMNS = ("step", "loss", "grad_norm", "param_norm", "dist_init", "G", "F")


class DivergenceError(RuntimeError):
    """Raised when a run blows up instead of converging."""

    def __init__(self, step: int, message: str):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class GdConfig:
    eta: float
    steps: int
    loss: L.LossSpec
    init: Optional[np.ndarray] = None
    record_every: int = 1
    store_iterates: bool = False

    def __post_init__(self):
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    """Recorded series of one run; all arrays are aligned with ``steps``.

    ``iterates`` is the full (steps+1, d) parameter history and is only
    present when the run stored it (memory scales with steps * d).
    """

    steps: np.ndarray
    loss: np.ndarray
    grad_norm: np.ndarray
    param_norm: np.ndarray
    dist_init: np.ndarray
    G: np.ndarray
    F: np.ndarray
    eta: float
    loss_spec: L.LossSpec
    record_every: int
    w_final: np.ndarray
    iterates: Optional[np.ndarray] = None
    zero_one: Optional[np.ndarray] = None   # population 0-1 error (SGD runs)
    sample_idx: Optional[np.ndarray] = None  # drawn sample indices (SGD runs)

    @property
    def dense(self) -> bool:
        return self.record_every == 1

    @property
    def horizon(self) -> int:
        return int(self.steps[-1])

    def avg_loss(self) -> np.ndarray:
        """Running average (1/t) sum_{k<t} loss_k at t = 1..len; requires
        dense recording."""
        self._require_dense()
        return np.cumsum(self.loss[:-1]) / np.arange(1, len(self.loss))

    def _require_dense(self):
        if not self.dense:
            raise ValueError("this operation needs record_every=1")


@dataclass(frozen=True)
class PhaseReport:
    """Where a run switched from the oscillatory to the stable regime.

    ``s_theory`` is the first step meeting the stable-phase criterion on
    the loss value (None if never met within the horizon); ``s_empirical``
    is one past the last strict loss ascent (0 for monotone runs);
    ``tau_bound`` is the loss-appropriate phase-transition time bound.
    """

    s_theory: Optional[int]
    s_empirical: int
    tau_bound: float
    criterion_value: float

    def as_dict(self) -> dict:
        return {"s_theory": self.s_theory, "s_empirical": self.s_empirical,
                "tau_bound": self.tau_bound,
                "criterion_value": self.criterion_value}


def loss_value(loss: L.LossSpec, ds: Dataset, w: np.ndarray) -> float:
    """Mean loss over the dataset at parameter w."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (ds.d,):
        raise ValueError(f"dimension mismatch: w has shape {w.shape}, data is {ds.d}-dim")
    z = ds.signed() @ w
    return float(np.mean(L.eval_loss(loss, z)))


def grad(loss: L.LossSpec, ds: Dataset, w: np.ndarray) -> np.ndarray:
    """Analytic gradient of the mean loss at w, as :func:`run_gd` steps with."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (ds.d,):
        raise ValueError(f"dimension mismatch: w has shape {w.shape}, data is {ds.d}-dim")
    Zy = ds.signed()
    return _mean_grad(Zy, L.deriv(loss, Zy @ w))


def _mean_grad(Zy: np.ndarray, dvec: np.ndarray) -> np.ndarray:
    """Gradient of the mean loss at the linear margins Zy @ w, from
    ``dvec`` = l' at those margins."""
    return Zy.T @ dvec / len(dvec)


def _block_len(width: int) -> int:
    """Steps per block when the block buffers take ``width`` floats a step."""
    return max(1, min(_BLOCK_STEPS, _BLOCK_FLOATS // width))


def _divergence_guard(diverged: str):
    """The divergence guard: the returned ``check(start, losses)``, fed the
    losses of steps start, start+1, ... block after block in step order,
    raises :class:`DivergenceError` on a non-finite loss or once the loss
    has stayed above the factor times L(w_0) for patience steps in a row,
    with ``diverged`` formatted with ``t``, ``factor`` and ``patience`` as
    the message."""
    loss0, over = None, 0

    def check(start: int, lvals: np.ndarray) -> None:
        nonlocal loss0, over
        for t, lval in enumerate(lvals.tolist(), start):
            if not math.isfinite(lval):
                raise DivergenceError(t, f"non-finite loss at step {t}")
            if loss0 is None:
                loss0 = lval
            over = over + 1 if lval > _GUARD_FACTOR * loss0 else 0
            if over >= _GUARD_PATIENCE:
                raise DivergenceError(t, diverged.format(
                    t=t, factor=_GUARD_FACTOR, patience=_GUARD_PATIENCE))

    return check


def gd_engine(w, origin, n: int, margins, gradient, loss: L.LossSpec, eta: float,
              T: int, record_every: int, iterates: Optional[np.ndarray],
              diverged: str) -> Trajectory:
    """The full-batch GD loop of :func:`run_gd` and ``ntk.run_gd_ntk``
    (internal): from ``w``, step t moves to ``w_t - eta * gradient(l'(z))``
    at the ``n`` margins ``z = margins(w_t)``.  Every ``record_every``-th
    step and T are recorded, ``dist_init`` from ``origin``; ``iterates``,
    if given, receives every iterate.  When the guard fires, the block is
    replayed from its first iterate, so that ``margins`` was last called
    at the iterate the guard rejected."""
    steps = np.append(np.arange(0, T, record_every), T)
    rec_loss, G, F = np.empty((3, len(steps)))
    sq = np.empty((3, len(steps)))  # squared gradient, parameter, distance norms
    block = min(_block_len(n), T + 1)
    Z_buf = np.empty((block, n))
    guard = _divergence_guard(diverged)
    k = 0

    # a block may run up to a block of steps past a divergence before the
    # guard sees it; those steps' overflows and NaNs are discarded with it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, T + 1, block):
            stop = min(start + block, T + 1)
            w_start, k_start = w, k
            Z = Z_buf[:stop - start]
            for j, t in enumerate(range(start, stop)):
                Z[j] = margins(w)
                gvec = gradient(L.deriv(loss, Z[j]))
                if iterates is not None:
                    iterates[t] = w
                if t % record_every == 0 or t == T:
                    v = w - origin
                    sq[:, k] = gvec.dot(gvec), w.dot(w), v.dot(v)
                    k += 1
                if t < T:
                    w = w - eta * gvec

            lvals = np.mean(L.eval_loss(loss, Z), axis=1)
            try:
                guard(start, lvals)
            except DivergenceError as exc:
                w = w_start
                for _ in range(start, exc.step):
                    w = w - eta * gradient(L.deriv(loss, margins(w)))
                margins(w)
                raise

            rows = steps[k_start:k] - start
            Zr = Z[rows]
            rec_loss[k_start:k] = lvals[rows]
            G[k_start:k] = np.mean(np.abs(L.deriv(loss, Zr)), axis=1)
            F[k_start:k] = np.mean(np.exp(-Zr), axis=1)

    # sqrt(v.dot(v)) is what np.linalg.norm computes for a vector
    grad_norm, param_norm, dist_init = np.sqrt(sq)
    return Trajectory(
        steps=steps, loss=rec_loss, grad_norm=grad_norm, param_norm=param_norm,
        dist_init=dist_init, G=G, F=F, eta=eta, loss_spec=loss,
        record_every=record_every, w_final=w.copy(), iterates=iterates)


def run_gd(cfg: GdConfig, ds: Dataset) -> Trajectory:
    """Constant-stepsize full-batch GD: w_t = w_{t-1} - eta * grad L(w_{t-1})."""
    w = np.zeros(ds.d) if cfg.init is None else np.array(cfg.init, dtype=np.float64)
    if w.shape != (ds.d,):
        raise ValueError("init has the wrong dimension")
    Zy = ds.signed()
    iterates = np.empty((cfg.steps + 1, ds.d)) if cfg.store_iterates else None
    return gd_engine(
        w, w.copy(), ds.n, lambda v: Zy @ v, lambda dvec: _mean_grad(Zy, dvec),
        cfg.loss, cfg.eta, cfg.steps, cfg.record_every, iterates,
        "loss exceeded {factor:g} * L(w_0) for {patience} consecutive steps (step {t})")


def stable_criterion(loss: L.LossSpec, eta: float, n: int) -> float:
    """Loss level below which the run is certified to descend monotonically."""
    if loss.kind == L.LOGISTIC:
        return 1.0 / eta
    return min(1.0 / (12.0 * loss.C_beta ** 2 * eta), loss.ell0 / n)


def detect_phase(traj: Trajectory, loss: L.LossSpec, eta: float, n: int,
                 gamma: float) -> PhaseReport:
    """Locate the phase transition in a densely recorded trajectory."""
    traj._require_dense()
    crit = stable_criterion(loss, eta, n)

    below = np.nonzero(traj.loss <= crit)[0]
    s_theory = int(traj.steps[below[0]]) if below.size else None

    ascents = np.nonzero(traj.loss[1:] > traj.loss[:-1])[0]
    s_empirical = int(traj.steps[ascents[-1]] + 1) if ascents.size else 0

    return PhaseReport(s_theory=s_theory, s_empirical=s_empirical,
                       tau_bound=B.tau_bound(loss, gamma, eta, n),
                       criterion_value=crit)


def run_sgd(ds: Dataset, eta: float, steps: int, rng: Rng,
            store_iterates: bool = False) -> Trajectory:
    """One-sample-per-step SGD under the logistic loss on the empirical
    distribution of ``ds``.

    Because the sampling distribution has finite support, the recorded
    population loss and population zero-one error are computed exactly
    over the support at every step (no Monte Carlo error).

    The per-step loop only stores the iterate and its margins and applies
    the sampled-row update; the population metrics are then evaluated once
    per block of steps from the stored iterates and margins, with the same
    per-step arithmetic, so every recorded number is the one a step-by-step
    evaluation gives.  Memory is the block buffers plus the O(T) series
    (and O(T * d) with ``store_iterates``).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    Zy = ds.signed()
    ZyT = Zy.T
    rows = list(Zy)
    n = ds.n
    w = np.zeros(ds.d)
    T = steps
    # the whole index stream is drawn up front (one batched draw per run,
    # deterministic per seed)
    idx = rng.integers(0, n, size=T)
    picks = idx.tolist()

    rec = {k: np.empty(T + 1) for k in ("loss", "grad_norm", "param_norm",
                                        "G", "F", "zero_one")}
    iterates = np.empty((T + 1, ds.d)) if store_iterates else None
    block = min(_block_len(max(n, ds.d)), T + 1)
    W_buf = np.empty((block, ds.d)) if iterates is None else None
    Z_buf = np.empty((block, n))
    G_buf = np.empty((block, ds.d))
    guard = _divergence_guard("population loss diverged (step {t})")

    # a block may run up to a block of steps past a divergence before the
    # guard sees it; those steps' overflows and NaNs are discarded with it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, T + 1, block):
            stop = min(start + block, T + 1)
            W = iterates[start:stop] if iterates is not None else W_buf[:stop - start]
            Z = Z_buf[:stop - start]
            for j, t in enumerate(range(start, stop)):
                W[j] = w
                np.matmul(Zy, w, out=Z[j])
                if t == T:
                    break
                row = rows[picks[t]]
                zi = float(row.dot(w))
                if zi > 700.0:
                    coef = 0.0
                elif zi < -700.0:
                    coef = -1.0
                else:
                    coef = -1.0 / (1.0 + math.exp(zi))
                w = w - (eta * coef) * row

            lvals = np.mean(np.logaddexp(0.0, -Z), axis=1)
            guard(start, lvals)

            expz = np.exp(Z)
            S = 1.0 / (1.0 + expz)             # = |l'(z)| for the logistic loss
            # one gemv per step, not a gemm: a gemm sums in another order
            Gr = G_buf[:stop - start]
            for s_j, g_j in zip(S, Gr):
                np.matmul(ZyT, s_j, out=g_j)
            Gr /= n
            sl = slice(start, stop)
            rec["loss"][sl] = lvals
            # sqrt(v.dot(v)) is what np.linalg.norm computes for a vector
            rec["grad_norm"][sl] = [math.sqrt(g.dot(g)) for g in Gr]
            rec["param_norm"][sl] = [math.sqrt(v.dot(v)) for v in W]
            rec["G"][sl] = np.mean(S, axis=1)
            rec["F"][sl] = np.mean(1.0 / expz, axis=1)
            rec["zero_one"][sl] = np.mean(Z <= 0.0, axis=1)

    return Trajectory(
        steps=np.arange(T + 1, dtype=np.int64),
        loss=rec["loss"], grad_norm=rec["grad_norm"],
        param_norm=rec["param_norm"], dist_init=rec["param_norm"].copy(),  # w_0 = 0
        G=rec["G"], F=rec["F"], eta=eta, loss_spec=L.logistic(), record_every=1,
        w_final=w.copy(), iterates=iterates, zero_one=rec["zero_one"],
        sample_idx=idx)


def split_optimization_check(traj: Trajectory, ds: Dataset,
                             cert: MarginCertificate, u1: np.ndarray,
                             t: int) -> float:
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
    if not 1 <= t <= traj.horizon:
        raise ValueError(f"t must lie in [1, {traj.horizon}]")
    eta = traj.eta
    u1 = np.asarray(u1, dtype=np.float64)
    u = u1 + (eta / (2.0 * cert.gamma)) * cert.w_star
    w0, wt = traj.iterates[0], traj.iterates[t]
    lhs = float(np.sum((wt - u) ** 2)) / (2.0 * eta * t) + float(np.mean(traj.loss[:t]))
    rhs = loss_value(traj.loss_spec, ds, u1) + float(np.sum((w0 - u) ** 2)) / (2.0 * eta * t)
    return lhs - rhs


def perceptron_potential_check(traj: Trajectory, cert: MarginCertificate,
                               eta: Optional[float] = None) -> float:
    """Minimum slack of the margin-alignment inequality along a run.

    Each step must advance the projection on the certified direction by at
    least gamma * eta * G(w_t); returns min_t of the actual advance minus
    that floor (expected >= 0 on conformant inputs).
    """
    if traj.iterates is None:
        raise ValueError("perceptron check needs stored iterates")
    traj._require_dense()
    eta = traj.eta if eta is None else eta
    proj = traj.iterates @ cert.w_star
    slack = (proj[1:] - proj[:-1]) - cert.gamma * eta * traj.G[:-1]
    return float(np.min(slack))


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Write the recorded series as CSV (round-trippable decimal text)."""
    cols = list(CSV_COLUMNS)
    series = [traj.steps, traj.loss, traj.grad_norm, traj.param_norm,
              traj.dist_init, traj.G, traj.F]
    if traj.zero_one is not None:
        cols.append("zero_one")
        series.append(traj.zero_one)
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(len(traj.steps)):
            row = [repr(int(traj.steps[i]))]
            row += [repr(float(s[i])) for s in series[1:]]
            fh.write(",".join(row) + "\n")
