"""Full-batch GD and online SGD engines, with per-step instrumentation
and phase-transition detection.

``gd_engine`` is the one full-batch GD loop.  It advances a batch of
runs, the rows of one (K, p) matrix, each bit for bit as alone: the
linear runs of ``run_gd_batch(ds, loss, etas, steps)``, one per stepsize
(``run_gd(ds, loss, eta, steps)`` is a batch of one), and a network run
of ``eoslab.ntk.run_gd_ntk``.  Every engine takes its settings as
arguments.  ``run_sgd`` is neither batched (its
runs are written one by one, as each ends) nor run by the engine: it
shares the argument check, the block-length rule, the divergence guard and
``_sq_norms``, but records its own series, with G, F and the gradient norm
from 1/(1+e^z) and 1/e^z, which differ from the engine's in the last bit.

A trajectory records, at every recorded step, the loss L, the gradient,
parameter and distance-from-initialization norms, the gradient potential
G(w) = mean_i |l'(y_i x_i^T w)| that drives the phase-transition bounds,
and the exponential potential F(w) = mean_i exp(-y_i x_i^T w), the
stable-phase initial-condition term of logistic runs.  The GD loop
writes each step's margins into its block buffer (and keeps l'(z) at the
recorded steps, for G); the SGD loop keeps each step's iterate and takes
the block's margins from them in one stacked product.  From these the
series are evaluated once per block of at most ``_BLOCK_STEPS`` steps
and ``_BLOCK_FLOATS`` floats of margins (one step's when larger); reruns
reproduce every number bit for bit.  A run from w_0 = 0 records one
array as both ``param_norm`` and ``dist_init``.

A GD run evaluates its loss at its recorded steps only.  For the guard,
one screen stands in for every step of a block: every loss is
non-negative and non-increasing, so no step's mean loss exceeds the loss
at the block's smallest margin, and where that is finite and within half
the guard's bar the guard cannot fire in the block.  A block the screen
does not clear has every step's loss walked (a run recorded every k > 1
steps evaluates them first), so the guard stops where, and as, it would
on every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import bounds as B
from . import losses as L
from .data import Dataset
from .numerics import Rng, _sq_norms

__all__ = [
    "Trajectory", "PhaseReport", "DivergenceError",
    "run_gd", "run_gd_batch", "detect_phase", "run_sgd", "write_trajectory_csv",
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


def _check_run(eta: float, steps: int) -> None:
    """The stepsize and step count every engine requires."""
    if not 0.0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    if steps < 1:
        raise ValueError("steps must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    """Recorded series of one run; all arrays are aligned with ``steps``.

    ``iterates`` is the full (steps+1, d) parameter history and is only
    present when a GD run stored it (memory scales with steps * d).  Every
    array is read-only: runs of a batch share ``steps`` and engine buffers.
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

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def dense(self) -> bool:
        return self.record_every == 1

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


def _block_len(width: int) -> int:
    """Steps per block when the block buffers take ``width`` floats a step."""
    return max(1, min(_BLOCK_STEPS, _BLOCK_FLOATS // width))


class _DivergenceGuard:
    """The divergence guard of one run: :meth:`check`, fed the losses of
    steps start, start+1, ... in step order, raises
    :class:`DivergenceError` on a non-finite loss, or once the loss has
    stayed above the factor times L(w_0) for patience steps in a row."""

    def __init__(self):
        self.loss0, self.over = None, 0

    def check(self, start: int, lvals: np.ndarray) -> None:
        for t, lval in enumerate(lvals.tolist(), start):
            if not math.isfinite(lval):
                raise DivergenceError(t, f"non-finite loss at step {t}")
            if self.loss0 is None:
                self.loss0 = lval
            self.over = self.over + 1 if lval > _GUARD_FACTOR * self.loss0 else 0
            if self.over >= _GUARD_PATIENCE:
                raise DivergenceError(t, f"loss exceeded {_GUARD_FACTOR:g} * L(w_0) for "
                                         f"{_GUARD_PATIENCE} consecutive steps (step {t})")

    def quiet(self, lmax: float, n: int) -> bool:
        """Stands in for :meth:`check` on steps whose losses are each the
        mean of n values at most ``lmax``, as the loss at the steps'
        smallest margin bounds them (every loss is non-increasing): True,
        with the count reset as check would leave it, when 2 n lmax is
        finite and lmax at most half the bar, so that no rounding of such a
        mean makes it non-finite or lifts it over the bar.  False before
        L(w_0) is known, and for a NaN lmax."""
        if (self.loss0 is None or not math.isfinite(2.0 * n * lmax)
                or not lmax <= _GUARD_FACTOR * self.loss0 / 2.0):
            return False
        self.over = 0
        return True


def gd_engine(W, n: int, margins, gradient, loss: L.LossSpec, etas,
              T: int, record_every: int, iterates: Optional[np.ndarray]) -> list:
    """The full-batch GD loop (internal) of :func:`run_gd_batch` and
    ``ntk.run_gd_ntk``: step t moves each run k, a row of the (K, p) matrix
    ``W``, to ``w_t - etas[k] * gradient(l'(Z))[k]`` at the (K, n) margins
    Z that ``margins(W, Z)`` writes, for any number of rows, through an
    update buffer of W's shape.  Every ``record_every``-th step and T are
    recorded, ``dist_init`` from the rows of ``W`` as passed in (for an
    all-zero start, ``dist_init`` is ``param_norm``'s array);
    ``iterates``, if given, is (K, T+1, p) and receives every iterate.
    Each step's l'(Z) gives the step and, kept at the recorded steps, G.
    Each run's guard screens every block with
    :meth:`_DivergenceGuard.quiet`; the loss is evaluated at the recorded
    steps, and at the others only for a block that the screen does not
    clear.  A run its own guard rejects leaves the batch, which goes on bit
    for bit.  Returns each run's Trajectory or DivergenceError, in order."""
    W, origin = np.array(W, dtype=np.float64), np.array(W, dtype=np.float64)
    K, p = W.shape
    at_zero = not W.any()  # then every distance from the start is the norm
    etas = np.array(etas, dtype=np.float64)[:, None]
    steps = np.append(np.arange(0, T, record_every), T)
    # per run: loss, G, F and the squared gradient, parameter and (unless
    # at_zero) distance norms
    rec = np.empty((K, 5 if at_zero else 6, len(steps)))
    ids, out = np.arange(K), [None] * K
    guards = [_DivergenceGuard() for _ in ids]
    block = min(_block_len(K * n), T + 1)
    # each step's margins, and the loss derivatives of a block's recorded steps
    Z_buf, k = np.empty((block, K, n)), 0
    D_buf = np.empty((min(block, -(-block // record_every) + 1), K, n))
    WG_buf = np.empty((2, min(_block_len(K * p), block), K, p))  # rows per pass of _sq_norms
    S = np.empty((K, p))  # each step's update

    # a block may run up to a block of steps past a divergence before the
    # guard sees it; those steps' overflows and NaNs are discarded with it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, T + 1, block):
            stop = min(start + block, T + 1)
            k_start, r = k, 0
            Z, (Wr, Gr) = Z_buf[:stop - start], WG_buf
            for j, t in enumerate(range(start, stop)):
                margins(W, Z[j])
                D = L.deriv(loss, Z[j])
                Gm = gradient(D)
                if iterates is not None:
                    iterates[ids, t] = W
                if t % record_every == 0 or t == T:
                    D_buf[k - k_start] = D
                    Wr[r], Gr[r] = W, Gm
                    r, k = r + 1, k + 1
                if r and (r == len(Wr) or t + 1 == stop):
                    V, sq = Wr[:r], rec[:, 3:, k - r:k]
                    sq[:, 0], sq[:, 1] = _sq_norms(Gr[:r]).T, _sq_norms(V).T
                    if not at_zero:
                        V -= origin
                        sq[:, 2] = _sq_norms(V).T
                    r = 0
                if t < T:
                    W -= np.multiply(etas, Gm, out=S)

            rows = steps[k_start:k] - start
            Zr = Z[rows]
            lrec = np.mean(L.eval_loss(loss, Zr), axis=2)
            rec[:, 0, k_start:k] = lrec.T
            rec[:, 1, k_start:k] = np.mean(np.abs(D_buf[:k - k_start]), axis=2).T
            rec[:, 2, k_start:k] = np.mean(np.exp(-Zr), axis=2).T
            # a guard walks every step's loss of the block (a dense run's are
            # its recorded ones) only where the loss at the block's smallest
            # margin does not quiet it
            lmax = L.eval_loss(loss, np.min(Z, axis=(0, 2))).tolist()
            lvals, keep = lrec if record_every == 1 else None, []
            for row, i in enumerate(ids.tolist()):
                guard = guards[i]
                try:
                    if start == 0:
                        # step 0, always recorded, sets L(w_0) for the screen;
                        # walking it again below changes nothing
                        guard.check(0, lrec[:1, row])
                    if not guard.quiet(lmax[row], n):
                        if lvals is None:
                            lvals = np.mean(L.eval_loss(loss, Z), axis=2)
                        guard.check(start, lvals[:, row])
                    keep.append(row)
                except DivergenceError as exc:
                    out[i] = exc
            if len(keep) < len(ids):
                W, origin, etas, rec, ids, S = (a[keep] for a in (W, origin, etas, rec, ids, S))
                Z_buf, D_buf = Z_buf[:, keep], D_buf[:, keep]  # contiguous copies
                WG_buf = WG_buf[:, :, keep]
                if not keep:
                    break

    # sqrt(v.dot(v)) is what np.linalg.norm computes for a vector
    np.sqrt(rec[:, 3:], out=rec[:, 3:])
    for i, series, w, eta in zip(ids.tolist(), rec, W, etas[:, 0].tolist()):
        grad_norm, param_norm, *dist = series[3:]
        out[i] = Trajectory(
            steps=steps, loss=series[0], grad_norm=grad_norm,
            param_norm=param_norm, dist_init=dist[0] if dist else param_norm,
            G=series[1], F=series[2],
            eta=eta, loss_spec=loss, record_every=record_every, w_final=w,
            iterates=None if iterates is None else iterates[i])
    return out


def _linear_maps(ds: Dataset) -> tuple:
    """The maps that :func:`run_gd_batch` steps with: ``margins(W, out)``
    writes the (K, n) margins of the rows of a (K, d) matrix W into
    ``out``, and ``gradient(D)`` returns the (K, d) mean-loss gradients
    from the (K, n) loss derivatives D at those margins.  Each takes one
    gemv per row (a gemm sums in another order); a batch of one takes it
    by a 2-D product, which dispatches faster, with the same bits."""
    Zy, n = ds.signed(), ds.n
    Zy3, ZyT, ZyT3 = Zy[None], Zy.T, Zy.T[None]

    def margins(W, out):
        if len(W) == 1:
            np.matmul(Zy, W[0], out=out[0])
        else:
            np.matmul(Zy3, W[:, :, None], out=out[:, :, None])

    def gradient(D):
        if len(D) == 1:
            return (ZyT @ D[0] / n)[None]
        return np.matmul(ZyT3, D[:, :, None])[:, :, 0] / n

    return margins, gradient


def run_gd_batch(ds: Dataset, loss: L.LossSpec, etas, steps: int,
                 record_every: int = 1, store_iterates: bool = False) -> list:
    """Constant-stepsize GD runs on one dataset, one per stepsize in
    ``etas``, each started at w_0 = 0 and advanced as one (K, d) matrix:
    each run's Trajectory, or the DivergenceError it raises alone, in order,
    bit for bit as in a batch of its own, stepped with the maps of
    :func:`_linear_maps`; no stepsize, no run.  Each run records every
    ``record_every``-th step and the last, and all its iterates if
    ``store_iterates``."""
    for eta in etas:
        _check_run(eta, steps)
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    if len(etas) == 0:
        return []
    return gd_engine(
        np.zeros((len(etas), ds.d)), ds.n, *_linear_maps(ds), loss, etas, steps,
        record_every, np.empty((len(etas), steps + 1, ds.d)) if store_iterates else None)


def run_gd(ds: Dataset, loss: L.LossSpec, eta: float, steps: int) -> Trajectory:
    """Constant-stepsize full-batch GD: w_t = w_{t-1} - eta * grad L(w_{t-1}),
    from w_0 = 0, every step recorded; the batch of one of
    :func:`run_gd_batch`."""
    [traj] = run_gd_batch(ds, loss, [eta], steps)
    if isinstance(traj, DivergenceError):
        raise traj
    return traj


def stable_criterion(loss: L.LossSpec, eta: float, n: int) -> float:
    """Loss level below which the run is certified to descend monotonically;
    0.0 where C_beta^2 overflows a float, as the level then rounds to 0."""
    if loss.kind == L.LOGISTIC:
        return 1.0 / eta
    try:
        beta2 = loss.C_beta ** 2
    except OverflowError:
        return 0.0
    return min(1.0 / (12.0 * beta2 * eta), loss.ell0 / n)


def detect_phase(traj: Trajectory, n: int, gamma: float) -> PhaseReport:
    """Locate the phase transition in a densely recorded trajectory, at the
    run's own stepsize and loss, on n samples of margin gamma."""
    traj._require_dense()
    crit = stable_criterion(traj.loss_spec, traj.eta, n)

    below = np.nonzero(traj.loss <= crit)[0]
    s_theory = int(traj.steps[below[0]]) if below.size else None

    ascents = np.nonzero(traj.loss[1:] > traj.loss[:-1])[0]
    s_empirical = int(traj.steps[ascents[-1]] + 1) if ascents.size else 0

    return PhaseReport(s_theory=s_theory, s_empirical=s_empirical,
                       tau_bound=B.tau_bound(traj.loss_spec, gamma, traj.eta, n),
                       criterion_value=crit)


def run_sgd(ds: Dataset, eta: float, steps: int, rng: Rng) -> Trajectory:
    """One-sample-per-step SGD under the logistic loss on the empirical
    distribution of ``ds``.

    The sampling distribution has finite support, so the recorded
    population loss and zero-one error are exact over the support at every
    step.  The step loop stores each iterate and applies the sampled-row
    update; the margins, one gemv per iterate, and the metrics are
    evaluated per block from the stored iterates, bit for bit as step by
    step.  Memory is the block buffers plus the O(T) series; no iterate is
    kept past its block, and neither the iterates nor the drawn indices
    are returned.
    """
    _check_run(eta, steps)
    Zy = ds.signed()
    Zy3, ZyT3 = Zy[None], Zy.T[None]
    rows = list(Zy)
    n = ds.n
    w = np.zeros(ds.d)
    T = steps
    # the whole index stream is drawn up front (one batched draw per run,
    # deterministic per seed)
    picks = rng.integers(0, n, size=T).tolist()

    rec = np.empty((6, T + 1))  # loss, grad_norm, param_norm, G, F, zero_one
    block = min(_block_len(max(n, ds.d)), T + 1)
    W_buf, Z_buf = np.empty((block, ds.d)), np.empty((block, n))
    guard = _DivergenceGuard()

    # a block may run up to a block of steps past a divergence before the
    # guard sees it; those steps' overflows and NaNs are discarded with it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, T + 1, block):
            stop = min(start + block, T + 1)
            W, Z = W_buf[:stop - start], Z_buf[:stop - start]
            for j, t in enumerate(range(start, stop)):
                W[j] = w
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

            # the block's margins, one gemv per iterate (a gemm sums in
            # another order)
            np.matmul(Zy3, W[:, :, None], out=Z[:, :, None])
            lvals = np.mean(np.logaddexp(0.0, -Z), axis=1)
            guard.check(start, lvals)

            expz = np.exp(Z)
            S = 1.0 / (1.0 + expz)             # = |l'(z)| for the logistic loss
            # one gemv per step, not a gemm: a gemm sums in another order
            Gr = np.matmul(ZyT3, S[:, :, None])[:, :, 0] / n
            # sqrt(v.dot(v)) is what np.linalg.norm computes for a vector
            rec[:, start:stop] = (lvals, np.sqrt(_sq_norms(Gr)), np.sqrt(_sq_norms(W)),
                                  np.mean(S, axis=1), np.mean(1.0 / expz, axis=1),
                                  np.mean(Z <= 0.0, axis=1))

    loss, grad_norm, param_norm, G, F, zero_one = rec
    return Trajectory(
        steps=np.arange(T + 1, dtype=np.int64), loss=loss, grad_norm=grad_norm,
        param_norm=param_norm, dist_init=param_norm,  # w_0 = 0
        G=G, F=F, eta=eta, loss_spec=L.logistic(), record_every=1, w_final=w,
        zero_one=zero_one)


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Write the recorded series as CSV, each value as its ``repr``
    (round-trippable decimal text).  Rows are formatted and written
    ``_BLOCK_STEPS`` at a time from the series' arrays, so no whole column
    is held as Python numbers; a column that is the same array as an
    earlier one (a run's ``dist_init`` from w_0 = 0) reuses its text."""
    cols = CSV_COLUMNS + (() if traj.zero_one is None else ("zero_one",))
    series = [traj.steps] + [getattr(traj, col) for col in cols[1:]]
    # the first column holding each series' array
    first = [next(j for j, a in enumerate(series) if a is s) for s in series]
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for start in range(0, len(traj.steps), _BLOCK_STEPS):
            text = []
            for i, s in enumerate(series):
                if first[i] < i:
                    text.append(text[first[i]])
                else:
                    t = map(repr, s[start:start + _BLOCK_STEPS].tolist())
                    text.append(list(t) if i in first[i + 1:] else t)
            fh.write("\n".join(map(",".join, zip(*text))) + "\n")
