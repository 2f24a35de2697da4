"""Classification loss families with derivatives, regularity constants, and
executable conformance checks.

Three families are provided: the logistic loss, a flattened exponential
loss (exponential tail glued to a linear ramp on z <= 0), and a flattened
polynomial loss.  Flattening keeps the derivative globally bounded, which
is what allows arbitrarily large stepsizes without catastrophic blowup.

Each family carries its regularity constants:

* ``C_g``    -- global bound on g := |l'| (Lipschitzness of the loss),
* ``C_beta`` -- self-boundedness constant (g <= C_beta * l, plus a
  second-order growth condition on pairs closer than 1),
* ``C_e``    -- exponential-tail constant (l <= C_e * g on z >= 0),
  absent for the polynomial family,

and the closed-form upper bound ``rho_bound`` on the squared
regularization-path length rho(lambda) = min_z lambda*l(z) + z^2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Callable, Optional

import numpy as np

from .numerics import Rng, json_number, minimize_1d

__all__ = [
    "LossSpec",
    "logistic",
    "flattened_exponential",
    "flattened_polynomial",
    "loss_from_json",
    "eval_loss",
    "deriv",
    "g",
    "rho_bound",
    "rho_exact",
    "psi",
    "psi_inverse",
    "ConditionCheck",
    "AssumptionReport",
    "check_assumptions",
]

LOGISTIC = "logistic"
FLAT_EXP = "flat_exp"
FLAT_POLY = "flat_poly"
KINDS = (LOGISTIC, FLAT_EXP, FLAT_POLY)


@dataclass(frozen=True)
class LossSpec:
    """A classification loss together with its regularity constants.

    Instances are immutable and freely shareable.  Use the module
    factories (:func:`logistic`, :func:`flattened_exponential`,
    :func:`flattened_polynomial`) rather than the constructor; the
    constants they fill in are the ones every bound evaluator expects.
    """

    kind: str
    a: Optional[float]
    C_g: float
    C_beta: float
    C_e: Optional[float]
    ell0: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind != LOGISTIC and not (self.a is not None and 0.0 < self.a < math.inf):
            raise ValueError(f"{self.kind} requires a finite a > 0, not {self.a}")
        for name in ("C_g", "C_beta", "C_e"):
            value = getattr(self, name)
            if not (value is None and name == "C_e" or 0.0 < value < math.inf):
                raise ValueError(f"{self.kind} with a={self.a} has {name} = {value}; "
                                 f"it must be positive and finite")


def logistic() -> LossSpec:
    return LossSpec(LOGISTIC, None, C_g=1.0, C_beta=math.e / 2.0, C_e=2.0,
                    ell0=math.log(2.0))


def _or_inf(constant: Callable[[], float]) -> float:
    """``constant()``, or inf where its float arithmetic overflows or divides
    by zero, so that LossSpec refuses it by name rather than by traceback."""
    try:
        return constant()
    except ArithmeticError:
        return math.inf


def flattened_exponential(a: float) -> LossSpec:
    a = float(a)
    return LossSpec(FLAT_EXP, a, C_g=a,
                    C_beta=_or_inf(lambda: max(a, a * math.exp(a) / 2.0, 1.0)),
                    C_e=_or_inf(lambda: 1.0 / a), ell0=1.0)


def flattened_polynomial(a: float) -> LossSpec:
    a = float(a)
    return LossSpec(FLAT_POLY, a, C_g=a,
                    C_beta=_or_inf(lambda: max(a, (a + 1.0) * 2.0 ** a)),
                    C_e=None, ell0=1.0)


def loss_from_json(obj: dict) -> LossSpec:
    """Build a LossSpec from its config-JSON form: {"kind": "logistic"}, or
    {"kind": ..., "a": ...} for a flattened loss, whose "a" is a JSON number.
    Raises ValueError on any other key, kind or value of "a"."""
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    unknown = set(obj) - ({"kind"} if kind == LOGISTIC else {"kind", "a"})
    if unknown:
        raise ValueError(f"unknown keys of a {kind} loss: {sorted(unknown)}")
    if kind == LOGISTIC:
        return logistic()
    a = json_number(obj, "a", f"a {kind} loss")
    return flattened_exponential(a) if kind == FLAT_EXP else flattened_polynomial(a)


# -- pointwise evaluation ---------------------------------------------------
#
# The breakpoint z = 0 is evaluated on the z <= 0 branch; both branches
# agree there, fixing one avoids any platform-dependent branch choice.


def eval_loss(loss: LossSpec, z):
    """l(z), elementwise over arrays."""
    z = np.asarray(z, dtype=np.float64)
    if loss.kind == LOGISTIC:
        out = np.logaddexp(0.0, -z)
    elif loss.kind == FLAT_EXP:
        pos = z > 0.0
        out = np.where(pos, np.exp(-loss.a * np.where(pos, z, 0.0)), 1.0 - loss.a * z)
    else:  # FLAT_POLY
        pos = z > 0.0
        out = np.where(pos, (1.0 + np.where(pos, z, 0.0)) ** (-loss.a),
                       1.0 - loss.a * z)
    return out if out.ndim else float(out)


def deriv(loss: LossSpec, z):
    """l'(z), elementwise; both branches agree at the z = 0 seam."""
    z = np.asarray(z, dtype=np.float64)
    if loss.kind == LOGISTIC:
        # -1/(1+e^z), computed stably on both tails: e^-z/-(1+e^-z) for
        # z >= 0; with e = e^-|z| = exp(copysign(z, -1)), -1 - e = -(1+e)
        # exactly, so the one division gives the negated quotient exactly
        e = np.exp(np.copysign(z, -1.0))
        out = np.where(z >= 0.0, e, 1.0) / (-1.0 - e)
    elif loss.kind == FLAT_EXP:
        pos = z > 0.0
        out = np.where(pos, -loss.a * np.exp(-loss.a * np.where(pos, z, 0.0)),
                       -loss.a)
    else:  # FLAT_POLY
        pos = z > 0.0
        out = np.where(pos, -loss.a * (1.0 + np.where(pos, z, 0.0)) ** (-(loss.a + 1.0)),
                       -loss.a)
    return out if out.ndim else float(out)


def g(loss: LossSpec, z):
    """g(z) := |l'(z)|; non-increasing in z."""
    out = np.abs(deriv(loss, z))
    return out if np.ndim(out) else float(out)


# -- regularization-path length rho and psi ---------------------------------


def rho_bound(loss: LossSpec, lam: float) -> float:
    """Closed-form upper bound on rho(lambda) for lambda >= 1.  Where a
    flat_exp ``a ** 2`` underflows to 0, its limit as a -> 0: 1 at
    lambda = 1, inf above."""
    if lam < 1.0:
        raise ValueError("rho is defined for lambda >= 1")
    return _rho(loss, lam, math.log)


def _rho(loss: LossSpec, lam, log: Callable):
    """:func:`rho_bound`'s arithmetic at lambda >= 1, with ``log`` for the
    natural log: at a float with ``math.log``, or at an array of them with
    ``np.log``.  An array raises ValueError for a flat_exp whose a ** 2 is
    0, as the limit there is written for one lambda."""
    if loss.kind == LOGISTIC:
        return 1.0 + log(lam) ** 2
    if loss.kind == FLAT_EXP:
        if loss.a ** 2 == 0.0:
            return 1.0 if lam == 1.0 else math.inf
        return 1.0 + log(lam) ** 2 / loss.a ** 2
    return 2.0 * lam ** (2.0 / (loss.a + 2.0))


def rho_exact(loss: LossSpec, lam: float) -> float:
    """rho(lambda) = min_z lambda*l(z) + z^2 by bracketed golden section,
    to a tolerance of 1e-8 in z.

    The objective is strictly convex (convex loss plus z^2), so the
    bracket [-2, hi] is unimodal; hi is widened geometrically until the
    minimizer is interior at a finite value.  Where that fails (a flat_exp
    ``a`` so small that the objective is flat in float over the widened
    bracket, a search whose z^2 overflows, hi passing the largest float,
    or a flat_poly search that stalls), the search runs on a bracket that
    holds the minimizer z*, to 1e-8 or 1e-12 of that bracket's length,
    whichever is larger: for flat_poly [0, (lambda*a/2)^(1/(a+2))], as
    2 z* (1+z*)^(a+1) = lambda*a, and otherwise [0, lambda*C_g], as
    2 z* = lambda g(z*) <= lambda C_g.  Raises ValueError where, for
    another loss, floats near z* lie farther apart than 1e-8, so that the
    widening search stalls; its fallback bracket is too wide to answer to
    that tolerance.
    """
    if lam < 1.0:
        raise ValueError("rho is defined for lambda >= 1")

    def h(z: float) -> float:
        return lam * float(eval_loss(loss, z)) + z * z

    lo, tol = -2.0, 1e-8
    if loss.C_e is not None:
        hi = max(10.0, 3.0 * loss.C_e * math.log(max(lam, math.e)))
    else:
        hi = max(10.0, 3.0 * lam)
    # far out in z, eval_loss overflows in a branch it discards (1 - a*z),
    # or on the way to a loss of 0
    with np.errstate(over="ignore"):
        for _ in range(60):
            if hi == math.inf:
                break
            try:
                x, fx = minimize_1d(h, lo, hi, tol=tol)
            except ValueError:  # stalled: floats near z* lie more than tol apart
                if loss.kind != FLAT_POLY:
                    raise
                break
            if fx == math.inf:  # no wider bracket finds a finite value
                break
            if x < hi - 100.0 * tol:
                return fx
            hi *= 2.0
        hi = (math.exp((math.log(0.5 * lam) + math.log(loss.a)) / (loss.a + 2.0))
              if loss.kind == FLAT_POLY else lam * loss.C_g)
        return minimize_1d(h, 0.0, hi, tol=max(tol, 1e-12 * hi))[1]


def psi(loss: LossSpec, lam: float) -> float:
    """psi(lambda) := lambda / rho(lambda), using the closed-form rho bound."""
    return lam / rho_bound(loss, lam)


def psi_inverse(loss: LossSpec, y: float) -> float:
    """Smallest lambda >= 1 with psi(lambda) >= y, by bisection to a
    relative tolerance of 1e-10; inf when no float lambda reaches y.

    rho(lambda)/lambda is non-increasing, so psi is non-decreasing and the
    crossing is unique once psi exceeds y.
    """
    psi1 = psi(loss, 1.0)
    if y < psi1:
        raise ValueError(f"y={y} is below psi(1)={psi1}")
    if y == psi1:
        return 1.0
    lo, hi = 1.0, 2.0
    while not psi(loss, hi) >= y:
        lo, hi = hi, hi * 4.0
        if hi == math.inf:
            return math.inf
    while (hi - lo) > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if psi(loss, mid) >= y:
            hi = mid
        else:
            lo = mid
    return hi


# -- executable conformance checks ------------------------------------------


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of one sampled inequality check.

    ``residual`` is the worst (largest) violation over the sample; the
    condition passes when it stays at or below the tolerance.  ``witness``
    is the sample point achieving it.
    """

    passed: bool
    residual: float
    witness: tuple


@dataclass(frozen=True)
class AssumptionReport:
    convexity: ConditionCheck
    monotone: ConditionCheck
    lipschitz: ConditionCheck
    self_bounded_first: ConditionCheck
    self_bounded_second: ConditionCheck
    exp_tail: Optional[ConditionCheck]  # None when the loss has no C_e

    def _checks(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def passed(self) -> bool:
        return all(c is None or c.passed for c in self._checks().values())

    def as_dict(self) -> dict:
        out = {name: {"applicable": False} if c is None else dict(asdict(c), applicable=True)
               for name, c in self._checks().items()}
        return dict(out, passed=self.passed)


def _worst(points: np.ndarray, residuals: np.ndarray) -> ConditionCheck:
    """The check's outcome at the worst residual; ``points`` holds one
    sample point per row."""
    i = int(np.argmax(residuals))
    return ConditionCheck(passed=bool(residuals[i] <= 1e-9), residual=float(residuals[i]),
                          witness=tuple(points[i].tolist()))


def check_assumptions(loss: LossSpec, rng: Rng) -> AssumptionReport:
    """Sampled verification of the loss conditions.

    All six inequalities are evaluated pointwise on a grid of 10001 points
    over [-20, 20] plus 10000 pairs with |z - x| < 1 drawn from ``rng``;
    this is a sampled check with tolerance 1e-9, not a symbolic proof.
    """
    zs = np.linspace(-20.0, 20.0, 10_001)
    lz = eval_loss(loss, zs)
    gz = g(loss, zs)

    # convexity via the midpoint inequality on random pairs
    x1 = -20.0 + 40.0 * rng.uniform(10_000)
    x2 = -20.0 + 40.0 * rng.uniform(10_000)
    mid_res = eval_loss(loss, 0.5 * (x1 + x2)) - 0.5 * (eval_loss(loss, x1) + eval_loss(loss, x2))
    convexity = _worst(np.column_stack((x1, x2)), mid_res)

    # non-increasing on the sorted grid
    mono_res = lz[1:] - lz[:-1]
    monotone = _worst(np.column_stack((zs[:-1], zs[1:])), mono_res)

    # |l'| <= C_g
    lip_res = gz - loss.C_g
    lipschitz = _worst(zs[:, None], lip_res)

    # g <= C_beta * l
    sb1_res = gz - loss.C_beta * lz
    self_bounded_first = _worst(zs[:, None], sb1_res)

    # second-order growth on pairs with |z - x| < 1
    xs = -20.0 + 40.0 * rng.uniform(10_000)
    delta = 2.0 * rng.uniform(10_000) - 1.0
    zp = xs + delta
    lhs = eval_loss(loss, zp)
    rhs = (eval_loss(loss, xs) + deriv(loss, xs) * (zp - xs)
           + loss.C_beta * g(loss, xs) * (zp - xs) ** 2)
    self_bounded_second = _worst(np.column_stack((xs, zp)), lhs - rhs)

    # exponential tail, only on z >= 0 and only when a C_e is declared
    if loss.C_e is None:
        exp_tail = None
    else:
        pos = zs >= 0.0
        tail_res = lz[pos] - loss.C_e * gz[pos]
        exp_tail = _worst(zs[pos, None], tail_res)

    return AssumptionReport(convexity, monotone, lipschitz,
                            self_bounded_first, self_bounded_second, exp_tail)
