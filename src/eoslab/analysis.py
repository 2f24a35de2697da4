"""Post-hoc trajectory analytics: asymptotic-rate fitting, comparison of
recorded series against the closed-form bounds, and the large-vs-small
stepsize acceleration experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import bounds as B
from . import losses as L
from .data import Dataset
from .descent import DivergenceError, Trajectory, run_gd_batch

__all__ = [
    "RateFit",
    "fit_rate",
    "zero_one_curve",
    "Violation",
    "compare_bounds",
    "write_violations_csv",
    "InfeasibleBudget",
    "AccelerationScore",
    "acceleration_score",
]

_REL_TOL = 1e-9  # relative slack before a bound comparison counts as violated
# relative distance below compare_bounds's array bar that clears a step
# without its scalar formula: far above the few ulps np.log's bar may lie
# from the formula's
_SCREEN_TOL = 1e-12


@dataclass(frozen=True)
class RateFit:
    """Log-log tail fit of the loss curve.

    ``slope`` is the least-squares coefficient of ln L(w_t) on ln t over
    the window; ``plateau`` is the mean of eta*t*L(w_t) there, with its
    coefficient of variation.  A slope near -1 with a flat plateau is the
    signature of a Theta(1/(eta t)) tail.
    """

    slope: float
    intercept: float
    window: tuple[int, int]
    plateau: float
    plateau_cv: float
    monotone_tail: bool
    n_points: int


def _tail_start(points: int, tail_fraction: float) -> int:
    """Where the tail window of :func:`fit_rate` starts among its ``points``
    fitted points; raises ValueError when ``tail_fraction`` lies outside
    (0, 0.9] or the window holds fewer than 20 points."""
    if not 0.0 < tail_fraction <= 0.9:
        raise ValueError("tail_fraction must lie in (0, 0.9]")
    start = int(math.floor(points * (1.0 - tail_fraction)))
    if points - start < 20:
        raise ValueError(f"tail window has {points - start} points; need >= 20")
    return start


def fit_rate(traj: Trajectory, tail_fraction: float = 0.5) -> RateFit:
    """Fit ln L against ln t over the last ``tail_fraction`` of recorded steps,
    scaling the plateau by the run's own stepsize.

    A non-monotone tail is flagged but the fit is still returned.
    """
    steps = traj.steps.astype(np.float64)
    keep = (steps >= 1.0) & (traj.loss > 0.0)
    steps, lossv = steps[keep], traj.loss[keep]
    start = _tail_start(len(steps), tail_fraction)
    t = steps[start:]
    y = lossv[start:]
    lt, ly = np.log(t), np.log(y)
    slope, intercept = np.polyfit(lt, ly, 1)
    scaled = traj.eta * t * y
    plateau = float(np.mean(scaled))
    cv = float(np.std(scaled) / plateau) if plateau > 0 else math.inf
    monotone = not bool(np.any(y[1:] > y[:-1]))
    return RateFit(slope=float(slope), intercept=float(intercept),
                   window=(int(t[0]), int(t[-1])), plateau=plateau,
                   plateau_cv=cv, monotone_tail=monotone, n_points=len(t))


def zero_one_curve(traj: Trajectory, ds: Dataset) -> np.ndarray:
    """Training zero-one error at every stored iterate.

    Lets accuracy curves be laid over the loss curve and phase markers;
    whether perfect accuracy precedes or follows the phase transition is
    an empirical, dataset-dependent observation.
    """
    if traj.iterates is None:
        raise ValueError("zero_one_curve needs stored iterates")
    margins = traj.iterates @ ds.signed().T
    return np.mean(margins <= 0.0, axis=1)


@dataclass(frozen=True)
class Violation:
    step: int
    bound: str
    observed: float
    value: float


def compare_bounds(traj: Trajectory, gamma: float, n: int) -> list[Violation]:
    """Check every applicable bound at every recorded step, in step order,
    at the run's own stepsize and loss, on n samples of margin gamma.

    Each recorded series (indexed by step t - 1) is checked against the
    first ``bounds.BOUNDS`` row that covers the run's loss and names it in
    ``caps``: the running-average loss ``avg_loss`` and gradient potential
    ``avg_G`` and the parameter norm ``param_norm`` against the logistic
    bounds for logistic runs; ``avg_loss`` against the general average-loss
    bound for other losses, with the initialization terms zeroed as
    appropriate for linear predictors started at zero.  Steps where a row's
    formula raises (gamma^2*eta*t < 1, or an overflow) are skipped.  On
    unit-ball data with a certified margin and logistic loss it is empty.

    Each row first screens every step at once with the array values of
    :meth:`bounds.Bound.approx`: a step whose observed value lies below
    their finite bar by more than a relative 1e-12 has no violation, as
    the formula's own bar lies within a few ulps of it (or the formula does
    not apply there).  The scalar formula, the source of every reported
    value, decides the rest.
    """
    traj._require_dense()
    series = {"avg_loss": traj.avg_loss(),
              "avg_G": np.cumsum(traj.G[:-1]) / np.arange(1, len(traj.G)),
              "param_norm": traj.param_norm[1:]}
    loss, eta = traj.loss_spec, traj.eta
    given = {"loss": loss, "gamma": gamma, "eta": eta, "n": n, "delta": 1.0, "C_a": 0.0}
    out: list[Violation] = []
    for row in B.BOUNDS:
        if row.caps not in series or loss.kind not in row.families:
            continue
        # checked by this row alone, at steps t = 1.. from element t - 1
        observed, ts = series.pop(row.caps), traj.steps[1:]
        bar = row.approx(ts, given) * (1.0 + _REL_TOL)
        with np.errstate(invalid="ignore"):  # a non-finite bar clears no step
            clear = observed < bar - _SCREEN_TOL * np.abs(bar)
        for t, value in row.over(ts[~clear], given):
            if observed.item(t - 1) > value * (1.0 + _REL_TOL):
                out.append(Violation(step=t, bound=row.name,
                                     observed=observed.item(t - 1), value=value))
    out.sort(key=lambda v: v.step)  # stable: table order within a step
    return out


def write_violations_csv(violations: list[Violation], path) -> None:
    """Write a violation list as ``step,bound,observed`` rows (the bound
    column is the numeric bound value; names stay on the API objects)."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,bound,observed\n")
        for v in violations:
            fh.write(f"{v.step},{v.value!r},{v.observed!r}\n")


class InfeasibleBudget(ValueError):
    """The step budget is below the certified acceleration threshold."""

    def __init__(self, T: float, threshold: float):
        super().__init__(
            f"budget T={T:g} is below the certified threshold "
            f"T >= 120 max{{e, n}}/gamma^2 = {threshold:g}")
        self.T = T
        self.threshold = threshold


@dataclass(frozen=True)
class AccelerationScore:
    """Final losses of the scheduled large-stepsize run versus the best
    never-ascending constant-stepsize run at the same budget.

    ``traj_large`` and ``traj_small_best`` are the two runs themselves
    (None where no baseline was found); they stay out of ``repr``, and
    ``as_dict`` leaves out the fields that ``==`` does.
    """

    eta_large: float
    loss_large_eta: float
    eta_small_best: Optional[float]
    loss_small_eta_best: Optional[float]
    ratio: Optional[float]
    bound: float
    traj_large: Trajectory = field(repr=False, compare=False)
    traj_small_best: Optional[Trajectory] = field(repr=False, compare=False)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.compare}


def _is_monotone(traj: Trajectory) -> bool:
    return not bool(np.any(traj.loss[1:] > traj.loss[:-1]))


def acceleration_score(ds: Dataset, plan: B.AccelerationPlan) -> AccelerationScore:
    """Run the stepsize schedule of ``plan``, a ``bounds.acceleration_plan``
    of ds, for the plan's budget of T steps, and score it against the best
    empirically monotone constant stepsize, both under the logistic loss.

    "Never enters the oscillatory regime" is operationalized as: not a
    single strict loss ascent over the full recorded horizon.  The
    baseline is the largest stepsize of the dyadic grid 2^k, from half the
    scheduled stepsize down to 2^-6, that satisfies this; the largest one
    runs in one ``run_gd_batch`` with the schedule, and the rest one at a
    time (batches of one), only while none has satisfied it.  Raises
    :class:`InfeasibleBudget` when the plan is not feasible (T below its
    certified threshold).
    """
    if not plan.feasible:
        raise InfeasibleBudget(plan.T, plan.threshold)
    loss, T = L.logistic(), plan.T
    k_hi = int(math.floor(math.log2(plan.eta / 2.0) + 1e-12))
    grid = [2.0 ** k for k in range(k_hi, -7, -1)]
    big, *tries = run_gd_batch(ds, loss, [plan.eta] + grid[:1], T)
    if isinstance(big, DivergenceError):
        raise big
    loss_big = float(big.loss[-1])

    eta_best, loss_best, best = None, None, None
    for eta in grid:
        traj = tries.pop() if tries else run_gd_batch(ds, loss, [eta], T)[0]
        if isinstance(traj, Trajectory) and _is_monotone(traj):
            eta_best, loss_best, best = eta, float(traj.loss[-1]), traj
            break

    ratio = loss_big / loss_best if loss_best else None
    return AccelerationScore(eta_large=plan.eta, loss_large_eta=loss_big,
                             eta_small_best=eta_best,
                             loss_small_eta_best=loss_best,
                             ratio=ratio, bound=plan.bound,
                             traj_large=big, traj_small_best=best)
