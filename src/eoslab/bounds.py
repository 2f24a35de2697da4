"""Closed-form evaluators for every convergence bound, phase-transition
time, and planning formula used by the experiments, and ``BOUNDS``, the
table that says which of them applies when.

Conventions shared by all evaluators:

* logarithms are natural;
* ``gamma`` is a certified margin, ``eta`` the stepsize, ``t`` a step
  count, ``n`` the sample count, ``delta`` a failure probability;
* the combination ``gamma**2 * eta * t`` is the natural time scale; when
  it falls below 1 the log-based formulas stop being meaningful upper
  bounds, so they raise ValueError there (their rows report
  ``applicable=False``) instead of producing a negative-log artifact;
* the phase-transition constants ``C1``/``C2`` for general losses are not
  pinned down by the theory; they are caller-supplied knobs (default 1)
  and their table rows are noted heuristic.

Each ``BOUNDS`` row maps a reported bound name to its formula, the inputs
its report shows, the loss families it covers, its note, and the recorded
series it caps with the formula's array body, if any; formulas take their
inputs by parameter name, and a formula that raises ValueError or
ArithmeticError is not applicable at those inputs.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from . import losses as L

__all__ = [
    "BoundReport",
    "eos_avg_bound",
    "avg_grad_potential_bound",
    "param_norm_bound",
    "stable_bound",
    "tau_logistic",
    "AccelerationPlan",
    "acceleration_plan",
    "sgd_loss_bound",
    "sgd_error_bound",
    "ntk_eos_bound",
    "ntk_stable_bound",
    "tau_general",
    "tau_exp_tail",
    "tau_bound",
    "lazy_radius",
    "width_min",
    "vc_bound",
    "table1_regimes",
    "Bound",
    "BOUNDS",
    "bound_reports",
]


@dataclass(frozen=True)
class BoundReport:
    name: str
    inputs: dict
    value: float
    applicable: bool = True
    precondition_note: str = ""


def _scale(gamma: float, eta: float, t: float) -> float:
    x = gamma * gamma * eta * t
    if not x >= 1.0:
        raise ValueError("gamma^2*eta*t < 1: log-scale formulas not applicable")
    return x


def _scale_after(gamma: float, eta: float, t: float, s: float) -> float:
    x = gamma * gamma * eta * (t - s)
    if not (t > s and x >= 1.0):
        raise ValueError("needs t > s and gamma^2*eta*(t-s) >= 1")
    return x


# The bodies of the formulas that cap a recorded series, each a capped
# row's ``body``: each takes the time scale x = gamma^2*eta*t of _scale and
# the log to use, math.log for the formula at one step and np.log for
# analysis.compare_bounds's screen of every step at once (see Bound.approx).


def _eos_avg(x, log, eta):
    return (1.0 + log(x) ** 2 + eta * eta / 4.0) / x


def _avg_grad_potential(x, log, eta):
    return (math.sqrt(2.0) + 2.0 * log(x) + eta) / x


def _param_norm(x, log, gamma, eta):
    return (math.sqrt(2.0) + 2.0 * log(x) + eta) / gamma


def _ntk_eos(x, log, loss, eta, n, delta, C_a):
    init = C_a + math.sqrt(2.0 * math.log(2.0 * n / delta)) if delta < 1.0 else C_a
    return 9.0 * (L._rho(loss, x, log) + (init + eta * loss.C_g) ** 2) / x


def eos_avg_bound(gamma: float, eta: float, t: float) -> float:
    """Upper bound on the running average loss, valid at every step."""
    return _eos_avg(_scale(gamma, eta, t), math.log, eta)


def avg_grad_potential_bound(gamma: float, eta: float, t: float) -> float:
    """Upper bound on the running average of the gradient potential G."""
    return _avg_grad_potential(_scale(gamma, eta, t), math.log, eta)


def param_norm_bound(gamma: float, eta: float, t: float) -> float:
    """Upper bound on ||w_t|| for zero-initialized logistic runs."""
    return _param_norm(_scale(gamma, eta, t), math.log, gamma, eta)


def stable_bound(gamma: float, eta: float, t: float, s: float, F_s: float) -> float:
    """Last-iterate loss bound after the stable phase is entered at step s."""
    x = _scale_after(gamma, eta, t, s)
    return (2.0 * F_s + math.log(x) ** 2) / x


def tau_logistic(gamma: float, eta: float, n: float) -> float:
    """Phase-transition time bound for logistic runs."""
    if gamma <= 0 or eta <= 0 or n < 1:
        raise ValueError("need gamma > 0, eta > 0, n >= 1")
    r = (eta + n) / eta
    return (60.0 / gamma ** 2) * max(eta, float(n), math.e, r * math.log(r))


@dataclass(frozen=True)
class AccelerationPlan:
    """The budget-T stepsize schedule and its terminal-loss guarantee."""

    T: float  # the budget, as passed
    eta: float
    bound: float
    feasible: bool
    threshold: float  # smallest budget for which the schedule is certified


def acceleration_plan(gamma: float, n: float, T: float) -> AccelerationPlan:
    """Stepsize eta = gamma^2 T / 120 and its terminal loss bound.

    The terminal bound is certified only when T >= 120 max{e, n}/gamma^2;
    below that the plan is still reported but flagged infeasible.  Where
    gamma^4 T^2 (or gamma^2) underflows to 0, the bound (or the threshold)
    is inf, as it is where they are subnormal.
    """
    if T < 1:
        raise ValueError("need T >= 1")
    eta = gamma * gamma * T / 120.0
    x, g2 = gamma ** 4 * T * T, gamma ** 2
    bound = 480.0 * math.log(x) ** 2 / x if x > 0.0 else math.inf
    threshold = 120.0 * max(math.e, float(n)) / g2 if g2 > 0.0 else math.inf
    return AccelerationPlan(T=T, eta=eta, bound=bound, feasible=T >= threshold,
                            threshold=threshold)


def sgd_loss_bound(gamma: float, eta: float, t: float, delta: float) -> float:
    """High-probability bound on the time-averaged population loss."""
    x = _scale(gamma, eta, t)
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    lead = (2.0 + 2.0 * math.log(x) ** 2 + eta * eta / 2.0) / x
    conc = (3.0 + 2.0 * math.log(x) + eta) / gamma * (18.0 * math.log(1.0 / delta) / t)
    return lead + conc


def sgd_error_bound(gamma: float, eta: float, t: float, delta: float) -> float:
    """High-probability bound on the time-averaged population 0-1 error."""
    x = _scale(gamma, eta, t)
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    lead = 4.0 * (math.sqrt(2.0) + 2.0 * math.log(x) + eta) / x
    return lead + 36.0 * math.log(1.0 / delta) / t


def ntk_eos_bound(loss: L.LossSpec, gamma: float, eta: float, t: float,
                  n: float, delta: float, C_a: float = 1.0) -> float:
    """Average-loss bound for wide-net (or general-loss linear) runs.

    For the linear zero-initialized case, pass C_a = 0 and delta = 1 so
    the initialization terms vanish.
    """
    return _ntk_eos(_scale(gamma, eta, t), math.log, loss, eta, n, delta, C_a)


def ntk_stable_bound(loss: L.LossSpec, gamma: float, eta: float,
                     t: float, s: float = 0) -> float:
    """Last-iterate bound after the general-loss stable criterion is met
    at step s (by default from the start)."""
    x = _scale_after(gamma, eta, t, s)
    return 15.0 * L.rho_bound(loss, x) / x


def tau_general(loss: L.LossSpec, gamma: float, eta: float, n: float,
                C1: float = 1.0) -> float:
    """Phase-transition time for general losses (heuristic constant C1)."""
    lam = L.psi_inverse(loss, max(C1 * (eta + n), L.psi(loss, 1.0)))
    return max(lam / eta, C1 * (eta + n) * eta) / gamma ** 2


def tau_exp_tail(gamma: float, eta: float, n: float, C2: float = 1.0) -> float:
    """Phase-transition time for exponentially tailed losses (heuristic C2)."""
    return (C2 / gamma ** 2) * max(eta, n * math.log(max(n, 1.0)))


def lazy_radius(loss: L.LossSpec, gamma: float, eta: float, T: float,
                n: float, delta: float, C_a: float = 1.0) -> float:
    """Certified bound on max_t ||w_t - w_0|| for a width-sufficient run."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    rho = L.rho_bound(loss, max(gamma * gamma * eta * T, 1.0))
    return 6.0 * (math.sqrt(rho) + C_a + math.sqrt(2.0 * math.log(2.0 * n / delta))
                  + eta * loss.C_g) / gamma


def width_min(loss: L.LossSpec, gamma: float, eta: float, T: float,
              n: float, delta: float, C_a: float = 1.0) -> float:
    """Sufficient width for the lazy-regime guarantees.

    Worst-case sufficiency only: the value is far beyond what empirical
    laziness requires on small problems.  inf where no float width
    suffices: where the power overflows, as where the lazy radius is inf.
    """
    R = lazy_radius(loss, gamma, eta, T, n, delta, C_a)
    try:
        return ((30.0 * R ** (1.0 / 3.0) + 10.0 * math.log(n / delta) ** 0.25) / gamma) ** 6
    except OverflowError:
        return math.inf


def vc_bound(d: int, n: int, delta: float) -> float:
    """Uniform-convergence bound on the error of a zero-training-error
    halfspace from n i.i.d. samples in d dimensions."""
    if n < 1 or not 0.0 < delta < 1.0:
        raise ValueError("need n >= 1 and delta in (0, 1)")
    return 4.0 * (d * math.log(n + 1.0) + math.log(4.0 / delta)) / n


@dataclass(frozen=True)
class RegimeRow:
    """One stepsize regime: the prescribed eta(T) and the predicted width
    and terminal-loss orders, evaluated with unit constants."""

    loss_kind: str
    degree: float | None
    eta_rule: str
    eta: float
    width_order: str
    width: float
    loss_order: str
    loss: float
    phase_transition: str


def table1_regimes(loss: L.LossSpec, T: float) -> list[RegimeRow]:
    """Stepsize-regime table for one loss family at budget T (unit constants)."""
    if T < 3:
        raise ValueError("need T >= 3 so that ln(T) > 1")
    lnT2 = math.log(T) ** 2
    rows: list[RegimeRow] = []
    if loss.kind in (L.LOGISTIC, L.FLAT_EXP):
        rows.append(RegimeRow(loss.kind, loss.a, "eta=1", 1.0,
                              "ln^2(T)", lnT2, "ln^2(T)/T", lnT2 / T, "n/a"))
        rows.append(RegimeRow(loss.kind, loss.a, "eta=T", float(T),
                              "T^2", T * T, "ln^2(T)/T^2", lnT2 / T ** 2, "<= T/2"))
    else:
        a = loss.a
        rows.append(RegimeRow(loss.kind, a, "eta=1", 1.0,
                              "T^(2/(a+2))", T ** (2.0 / (a + 2.0)),
                              "T^(-a/(a+2))", T ** (-a / (a + 2.0)), "n/a"))
        if a <= 1.0:
            rows.append(RegimeRow(loss.kind, a, "eta=T^(a/2)", T ** (a / 2.0),
                                  "T", float(T), "T^(-a/2)", T ** (-a / 2.0), "<= T/2"))
        else:
            rows.append(RegimeRow(loss.kind, a, "eta=T^(1/2)", math.sqrt(T),
                                  "T", float(T), "T^(-3a/(2a+4))",
                                  T ** (-3.0 * a / (2.0 * a + 4.0)), "<= T/2"))
    return rows


# -- the bound table ----------------------------------------------------------


_LOGISTIC = (L.LOGISTIC,)
_EXP_TAILED = (L.LOGISTIC, L.FLAT_EXP)  # the loss families with a C_e
_ANY = L.KINDS
_BASE = ("gamma", "eta", "t")
_COMMON = _BASE + ("n", "delta")


def _bind(fn: Callable, given: dict) -> Optional[dict]:
    """``fn``'s arguments by name from ``given``; an input that is absent or
    None takes ``fn``'s default, and without one the result is None."""
    args = {}
    for name, par in inspect.signature(fn).parameters.items():
        value = given.get(name)
        if value is None:
            if par.default is par.empty:
                return None
            value = par.default
        args[name] = value
    return args


class Bound(NamedTuple):
    """One row of ``BOUNDS``.  ``caps`` names the series of
    ``analysis.compare_bounds`` that the row bounds at every step
    (``avg_loss``, ``avg_G`` or ``param_norm``), if any; a capped row gives
    its formula's ``body`` over _scale's x, and a new capped row must too."""

    name: str
    formula: Callable
    inputs: tuple[str, ...]
    families: tuple[str, ...]
    note: str = ""
    caps: Optional[str] = None
    body: Optional[Callable] = None

    def over(self, ts: np.ndarray, given: dict) -> Iterator[tuple[int, float]]:
        """(t, value) at each step t of ``ts`` where the formula applies (it
        raises neither ValueError nor ArithmeticError), the other inputs
        taken from ``given``."""
        args = _bind(self.formula, {**given, "t": ts})
        i, vals = list(args).index("t"), list(args.values())
        for t in ts.tolist():
            vals[i] = t
            try:
                value = self.formula(*vals)
            except (ValueError, ArithmeticError):  # outside the formula's domain
                continue
            yield t, value

    def approx(self, ts: np.ndarray, given: dict) -> np.ndarray:
        """The ``body`` of a capped row at every step of ``ts`` in one pass
        over the array, the other inputs taken from ``given``: np.log stands
        in for math.log, so where the formula applies (:meth:`over` yields
        the step) the values lie within a few ulps of its own.  Steps where
        it does not apply get a value all the same.  NaN at every step where
        the array evaluation raises, as where a float overflows in it."""
        try:
            with np.errstate(all="ignore"):
                x = given["gamma"] * given["gamma"] * given["eta"] * ts  # _scale's bits
                return self.body(**_bind(self.body, {**given, "x": x, "log": np.log}))
        except (ValueError, ArithmeticError):
            return np.full(len(ts), math.nan)


BOUNDS: tuple[Bound, ...] = (
    Bound("eos_avg_logistic", eos_avg_bound, _BASE, _LOGISTIC, caps="avg_loss", body=_eos_avg),
    Bound("avg_grad_potential", avg_grad_potential_bound, _BASE, _LOGISTIC, caps="avg_G",
          body=_avg_grad_potential),
    Bound("param_norm", param_norm_bound, _BASE, _LOGISTIC, caps="param_norm", body=_param_norm),
    Bound("stable_logistic", stable_bound, _BASE + ("s", "F_s"), _LOGISTIC),
    Bound("tau_logistic", tau_logistic, _BASE + ("n",), _LOGISTIC),
    Bound("acceleration_plan", acceleration_plan, _BASE + ("n", "T"), _LOGISTIC),
    Bound("sgd_loss", sgd_loss_bound, _BASE + ("delta",), _LOGISTIC),
    Bound("sgd_error", sgd_error_bound, _BASE + ("delta",), _LOGISTIC),
    Bound("eos_avg", ntk_eos_bound, _COMMON + ("C_a",), _ANY, caps="avg_loss", body=_ntk_eos),
    Bound("stable", ntk_stable_bound, _COMMON + ("s",), _ANY),
    Bound("tau_general", tau_general, _COMMON + ("C1",), _ANY,
          "heuristic: C1 is caller-supplied, not derived"),
    Bound("tau_exp_tail", tau_exp_tail, _COMMON + ("C2",), _EXP_TAILED,
          "heuristic: C2 is caller-supplied, not derived"),
    Bound("lazy_radius", lazy_radius, _COMMON + ("T", "C_a"), _ANY),
    Bound("width_min", width_min, _COMMON + ("T", "C_a"), _ANY),
    Bound("vc", vc_bound, ("d", "n", "delta"), _ANY),
    Bound("regime", table1_regimes, (), _ANY, "unit constants"),
)


def bound_reports(loss: L.LossSpec, gamma: float, eta: float, t: int, *,
                  n: int = 1, s: Optional[int] = None, T: Optional[int] = None,
                  d: Optional[int] = None, delta: float = 0.05, F_s: float = 1.0,
                  C1: float = 1.0, C2: float = 1.0, C_a: float = 1.0) -> list[BoundReport]:
    """Reports of the ``BOUNDS`` rows that cover ``loss``, in table order.

    A row is left out when its formula needs an input not given (``s``,
    ``d``); ``T`` defaults to ``t``.  A row whose formula rejects its inputs
    (ValueError, as a log-scale formula below gamma^2*eta*t = 1) or
    overflows on them (ArithmeticError) reports NaN, not applicable, with
    the error's message.  Raises ValueError unless gamma, eta, delta, F_s,
    C1, C2, C_a are finite, gamma, eta > 0, t, n >= 1, 0 < delta <= 1,
    T >= 1, C_a, F_s >= 0, C1, C2 > 0, and d >= 1 and s >= 0 where given.
    """
    reals = dict(gamma=gamma, eta=eta, delta=delta, F_s=F_s, C1=C1, C2=C2, C_a=C_a)
    for ok, need in [(math.isfinite(v), f"finite {k}") for k, v in reals.items()] + [
            (gamma > 0, "gamma > 0"), (eta > 0, "eta > 0"), (t >= 1, "t >= 1"),
            (n >= 1, "n >= 1"), (0 < delta <= 1, "0 < delta <= 1"),
            (T is None or T >= 1, "T >= 1"), (C_a >= 0, "C_a >= 0"),
            (F_s >= 0, "F_s >= 0"), (C1 > 0, "C1 > 0"), (C2 > 0, "C2 > 0"),
            (d is None or d >= 1, "d >= 1"), (s is None or s >= 0, "s >= 0")]:
        if not ok:
            raise ValueError(f"need {need}")
    given = {"loss": loss, "gamma": gamma, "eta": eta, "t": t, "n": n, "s": s,
             "T": t if T is None else T, "d": d, "delta": delta, "F_s": F_s,
             "C1": C1, "C2": C2, "C_a": C_a}
    reports = []
    for row in BOUNDS:
        args = _bind(row.formula, given) if loss.kind in row.families else None
        if args is None:
            continue
        known = {**given, **args}
        inputs = {k: known[k] for k in row.inputs}
        ok, note = True, row.note
        try:
            value = row.formula(**args)
        except (ValueError, ArithmeticError) as exc:  # outside the formula's domain
            ok, value, note = False, math.nan, str(exc)
        if isinstance(value, AccelerationPlan):  # its schedule joins the inputs
            plan, ok, value = value, value.feasible, value.bound
            inputs.update(asdict(plan))
            note = "" if ok else f"infeasible: needs T >= {plan.threshold:g}"
        if isinstance(value, list):  # one report per regime
            reports += [BoundReport(row.name, asdict(r), r.loss, ok, note) for r in value]
        else:
            reports.append(BoundReport(row.name, inputs, value, ok, note))
    return reports


def tau_bound(loss: L.LossSpec, gamma: float, eta: float, n: float) -> float:
    """The phase-transition time bound phase detection reports for ``loss``,
    with unit constants: the logistic one, else the exponential-tail one
    (the ``tau_exp_tail`` row's families), else the general one."""
    if loss.kind == L.LOGISTIC:
        return tau_logistic(gamma, eta, n)
    if loss.kind in _EXP_TAILED:
        return tau_exp_tail(gamma, eta, n)
    return tau_general(loss, gamma, eta, n)
