"""Datasets for separable linear classification and max-margin certification.

The margin solver uses min-norm-point duality: the max margin of a
homogeneous separator equals the distance from the origin to the convex
hull of the signed samples {y_i x_i}, and the min-norm point p,
normalized, is the certifying direction.  p is found by Wolfe's
nearest-point method (Wolfe 1976), which keeps an active set of hull
vertices and terminates finitely.  A certificate's ``gamma`` is the
margin its direction verifiably attains, min_i <y_i x_i, w_star>, a lower
bound on the max margin; ``upper`` = ||p|| is an upper bound, at most a
fixed 1e-10 times the largest sample norm above ``gamma``.  The solver
raises :class:`NotSeparable` when the hull contains the origin (within
tolerance) and :class:`NotConverged` when it hits its iteration cap, or
when roundoff stops it (the best vertex is already active) with a gap
that the refinement step does not bring within tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import Rng, _sq_norms, json_number

__all__ = [
    "Dataset",
    "MarginCertificate",
    "NotSeparable",
    "NotConverged",
    "toy_dataset",
    "lower_bound_dataset",
    "synthetic_separable",
    "load_csv",
    "normalized",
    "margin",
    "dataset_from_json",
]


class NotSeparable(ValueError):
    """The convex hull of {y_i x_i} contains the origin."""


class NotConverged(RuntimeError):
    """The margin solver hit its iteration cap before its tolerance."""


# how far a certificate direction's norm may be from 1
_UNIT_TOL = 1e-10
# the margin solver's duality-gap tolerance, relative to the largest sample
# norm, and its cap on major steps
_MARGIN_TOL = 1e-10
_MAX_MAJOR = 10_000
# uniforms per draw of synthetic_separable, which keeps its temporaries small
_DRAW_FLOATS = 2 ** 13


@dataclass(frozen=True)
class Dataset:
    """Labeled samples: xs is (n, d), ys is (n,) with entries +/-1."""

    xs: np.ndarray
    ys: np.ndarray
    name: str = "dataset"

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[0] < 1:
            raise ValueError("xs must be a non-empty (n, d) array")
        if ys.shape != (xs.shape[0],):
            raise ValueError("ys must have one label per sample")
        if not np.all(np.isin(ys, (-1.0, 1.0))):
            raise ValueError("labels must be +1 or -1")
        if not np.all(np.isfinite(xs)):
            raise ValueError("features must be finite (found nan or inf)")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def d(self) -> int:
        return self.xs.shape[1]

    @property
    def max_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.xs, axis=1)))

    def signed(self) -> np.ndarray:
        """The (n, d) array of y_i x_i."""
        return self.ys[:, None] * self.xs


@dataclass(frozen=True)
class MarginCertificate:
    """A certified margin: min_i y_i <x_i, w_star> >= gamma, while no
    unit direction attains a margin above ``upper``."""

    gamma: float
    w_star: np.ndarray
    upper: float

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ValueError("certified margin must be positive")
        w = np.asarray(self.w_star, dtype=np.float64)
        if abs(float(np.linalg.norm(w)) - 1.0) > _UNIT_TOL:
            raise ValueError("w_star must be a unit vector")
        if not self.upper >= self.gamma:
            raise ValueError("upper bound below the certified margin")
        object.__setattr__(self, "w_star", w)


def toy_dataset() -> Dataset:
    """The four-sample 2-D dataset used throughout the demos.

    Kept unnormalized by default (one sample has norm > 1); pass it
    through :func:`normalized` for runs that need the unit-ball condition.
    """
    xs = np.array([[1.0, 0.2], [-2.0, 0.2], [-1.0, -0.2], [2.0, -0.2]])
    ys = np.array([1.0, 1.0, -1.0, -1.0])
    return Dataset(xs, ys, name="toy")


def lower_bound_dataset(gamma: float) -> Dataset:
    """Two positive unit-ball samples whose monotone-GD loss decays no
    faster than 1/t.  Requires 0 < gamma < 0.1."""
    if not 0.0 < gamma < 0.1:
        raise ValueError("gamma must lie in (0, 0.1)")
    s = math.sqrt(1.0 - gamma * gamma)
    xs = np.array([[gamma, s], [gamma, -s / 2.0]])
    ys = np.array([1.0, 1.0])
    return Dataset(xs, ys, name=f"lower_bound({gamma})")


def synthetic_separable(n: int, d: int, gamma: float, rng: Rng) -> Dataset:
    """Random unit-norm samples with margin >= gamma along e_1.

    Each sample starts as a unit Gaussian direction; the first coordinate
    is reflected and rescaled into [gamma, 1] and re-signed by the
    (Rademacher) label, then the remaining coordinates are rescaled so the
    sample stays on the unit sphere.  The pair (gamma, e_1) is therefore a
    valid construction certificate.  The Gaussian directions are drawn one
    chunk of rows at a time with ``rng.normals((rows, d))``, bit for bit as
    one ``rng.normals(d)`` per sample, so that besides the (n, d) result
    the builder's temporaries stay a few times ``_DRAW_FLOATS`` floats (or
    one sample's draw).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if d < 2:
        raise ValueError("need d >= 2")
    ys = rng.rademacher(n)
    xs = np.empty((n, d))
    # the most rows whose 2 * ceil(d/2) uniforms each fit in _DRAW_FLOATS
    per_draw = max(1, _DRAW_FLOATS // (2 * ((d + 1) // 2)))
    for x in (xs[i:i + per_draw] for i in range(0, n, per_draw)):
        x[:] = rng.normals((len(x), d))
    xs /= np.sqrt(_sq_norms(xs))[:, None]
    first = gamma + (1.0 - gamma) * np.abs(xs[:, 0])
    rest = xs[:, 1:]
    rest_norm2 = _sq_norms(rest)
    target = np.maximum(1.0 - first * first, 0.0)
    # a sample whose other coordinates are all zero keeps them
    rest *= np.sqrt(np.divide(target, rest_norm2, out=np.ones(n),
                              where=rest_norm2 > 0.0))[:, None]
    xs[:, 0] = ys * first
    return Dataset(xs, ys, name=f"synthetic(n={n},d={d},gamma={gamma})")


def load_csv(path: str | Path) -> Dataset:
    """Parse a header-less ``label,x1,...,xd`` CSV.  Refuses a file whose
    largest |feature| lies outside [2^-500, 2^500], where sample norms
    overflow or underflow; an all-zero file is kept."""
    path = Path(path)
    rows = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unparsable row: {exc}") from None
            if len(vals) < 2:
                raise ValueError(f"{path}:{lineno}: need a label and at least one feature")
            if vals[0] not in (1.0, -1.0):
                raise ValueError(f"{path}:{lineno}: label must be +1 or -1, got {vals[0]}")
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    width = len(rows[0])
    for lineno, r in enumerate(rows, start=1):
        if len(r) != width:
            raise ValueError(f"{path}: row {lineno} has {len(r)} fields, expected {width}")
    arr = np.array(rows)
    try:
        ds = Dataset(arr[:, 1:], arr[:, 0], name=path.stem)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    big = float(np.max(np.abs(ds.xs)))
    if big and not 2.0 ** -500 <= big <= 2.0 ** 500:
        raise ValueError(f"{path}: the largest |feature| is {big:.3e}, outside "
                         f"[2^-500, 2^500]; rescale the features")
    return ds


def normalized(ds: Dataset) -> Dataset:
    """Scale all samples by 1/max_i ||x_i|| so the unit-ball condition holds."""
    scale = ds.max_norm
    if scale <= 0.0:
        raise ValueError("cannot normalize an all-zero dataset")
    return Dataset(ds.xs / scale, ds.ys, name=ds.name + "/normalized")


# -- max-margin certification ------------------------------------------------


def _wolfe_min_norm_point(Z: np.ndarray, trace: list | None = None) -> np.ndarray:
    """Min-norm point of conv(rows of Z) by Wolfe's method (Wolfe 1976).

    Keeps an active set S of rows with positive convex weights.  Each
    major step adds the row minimizing <z, x>; minor steps move toward the
    min-norm point of the affine hull of S and drop rows whose weight
    would turn negative.  With R = max_i ||z_i||, tol = ``_MARGIN_TOL``,
    stops when the gap <x, x> - min_i <z_i, x> is at most tol * R * ||x||,
    so x/||x|| attains a margin within tol * R of ||x||, or ||x|| <= tol * R;
    either way it returns x after one refinement step.  Where roundoff
    stops it first (the best row is already active), it refines x and
    tests again.  Raises :class:`NotConverged` if that test fails, or
    after ``_MAX_MAJOR`` major steps.  Iterate norms are non-increasing;
    pass ``trace`` to collect one per major step.
    """
    tol, norms = _MARGIN_TOL, np.linalg.norm(Z, axis=1)
    rmax = float(np.max(norms))
    active = [int(np.argmin(norms))]
    weights = np.ones(1)
    x = Z[active[0]].copy()
    B = np.zeros((Z.shape[1], 0))  # the active rows minus the first, as columns
    for _ in range(_MAX_MAJOR):
        xnorm = float(np.linalg.norm(x))
        if trace is not None:
            trace.append(xnorm)
        scores = Z @ x
        j = int(np.argmin(scores))
        gap = float(x @ x) - float(scores[j])
        if gap <= tol * rmax * xnorm or xnorm <= tol * rmax:
            # one step of iterative refinement: take out the roundoff
            # component of x along the affine hull of the active rows
            return x - B @ np.linalg.lstsq(B, x, rcond=None)[0]
        if j in active:
            # roundoff: the affine solve no longer resolves the gap; take
            # the refinement step and test the gap again
            x = x - B @ np.linalg.lstsq(B, x, rcond=None)[0]
            xnorm = float(np.linalg.norm(x))
            gap = float(x @ x) - float(np.min(Z @ x))
            if gap <= tol * rmax * xnorm or xnorm <= tol * rmax:
                return x
            raise NotConverged(
                f"margin solver stopped by roundoff with gap {gap:.3e} above its "
                f"tolerance {tol * rmax * xnorm:.3e}, after refinement")
        active.append(j)
        weights = np.append(weights, 0.0)
        while True:
            # affine min-norm point z_0 + B c of the active rows, by least
            # squares on the differences B (a normal-equations solve would
            # square their conditioning)
            ZS = Z[active]
            B = (ZS[1:] - ZS[0]).T
            c = np.linalg.lstsq(B, -ZS[0], rcond=None)[0]
            alpha = np.concatenate(([1.0 - c.sum()], c))
            if np.all(alpha > 0.0):
                weights = alpha
                break
            # move toward alpha until the first weight hits zero; drop it
            neg = np.flatnonzero(alpha <= 0.0)
            ratios = weights[neg] / (weights[neg] - alpha[neg])
            weights = weights + float(np.min(ratios)) * (alpha - weights)
            weights[neg[np.argmin(ratios)]] = 0.0
            keep = weights > 0.0
            active = [i for i, kept in zip(active, keep) if kept]
            weights = weights[keep]
        x = weights @ ZS
    raise NotConverged(
        f"margin solver stopped with gap {gap:.3e} above its tolerance "
        f"{tol * rmax * xnorm:.3e} (cap {_MAX_MAJOR} major iterations)")


def margin(ds: Dataset, trace: list | None = None) -> MarginCertificate:
    """Max margin of a homogeneous separator, with a verified certificate.

    ``gamma`` is the margin the returned direction attains; ``upper`` is
    the norm of the min-norm point, an upper bound on the true margin, and
    ``upper - gamma <= _MARGIN_TOL * max_i ||z_i||`` up to roundoff.
    ``upper = max(||p||, gamma)`` is the float norm of a rounded hull
    point, so it bounds the true margin only up to that rounding.
    ``trace``, if given, collects the solver's iterate norm at each major
    step (``bench/tracing.py`` counts the iterations so).  Raises
    :class:`NotSeparable` when no positive margin can be certified (the
    signed-sample hull contains the origin, within tolerance), and
    :class:`NotConverged` when the solver hits its iteration cap or stops
    on roundoff short of its tolerance.
    """
    Z = ds.signed()
    p = _wolfe_min_norm_point(Z, trace)
    pnorm = float(np.linalg.norm(p))
    if 0.0 < pnorm < 2.0 ** -500:  # p . p is subnormal: normalize p * 2^600 (exact)
        p = p * 2.0 ** 600
        pnorm = float(np.linalg.norm(p))
        w_star, pnorm = p / pnorm, pnorm * 2.0 ** -600
    else:
        w_star = p / pnorm if pnorm > 0.0 else p  # p = 0 gives gamma = 0
    gamma = float(np.min(Z @ w_star))
    if not gamma > 0.0:
        raise NotSeparable(
            f"{ds.name}: the signed-sample hull contains the origin "
            f"(min-norm point has norm {pnorm:.3e})")
    # gamma <= ||p|| in exact arithmetic, but at convergence the two can
    # round an ulp apart in either direction
    return MarginCertificate(gamma=gamma, w_star=w_star, upper=max(pnorm, gamma))


# the keys of a dataset descriptor of each kind, besides "kind" and "normalize"
_DESCRIPTOR_KEYS = {"toy": (), "lower_bound": ("gamma",),
                    "synthetic": ("n", "d", "gamma", "seed"), "csv": ("path",)}


def dataset_from_json(obj: dict) -> Dataset:
    """Build a dataset from its config-JSON descriptor: its ``kind``, the
    keys of that kind and, optionally, ``"normalize": "max"``.  Its numbers
    must be JSON numbers, and ``n``, ``d`` and ``seed`` whole ones (see
    :func:`eoslab.numerics.json_number`), and a csv ``path`` a string.
    Raises ValueError on any other key, kind or value."""
    kind = obj.get("kind")
    if kind not in _DESCRIPTOR_KEYS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    unknown = set(obj) - {"kind", "normalize", *_DESCRIPTOR_KEYS[kind]}
    if unknown:
        raise ValueError(f"unknown keys of a {kind} dataset: {sorted(unknown)}")
    if obj.get("normalize", "max") != "max":
        raise ValueError(f'a dataset\'s "normalize" must be "max", not {obj["normalize"]!r}')
    if kind == "toy":
        ds = toy_dataset()
    elif kind == "lower_bound":
        ds = lower_bound_dataset(json_number(obj, "gamma", "a lower_bound dataset"))
    elif kind == "synthetic":
        unset = [key for key in ("n", "d", "gamma", "seed") if obj.get(key) is None]
        if unset:
            raise ValueError(f"synthetic dataset needs a value for {', '.join(unset)}")
        n, d, seed = (json_number(obj, key, "a synthetic dataset", integral=True)
                      for key in ("n", "d", "seed"))
        ds = synthetic_separable(n, d, json_number(obj, "gamma", "a synthetic dataset"),
                                 Rng(seed))
    else:  # csv
        if not isinstance(obj["path"], str):
            raise ValueError(f'"path" of a csv dataset must be a string, '
                             f'not {json.dumps(obj["path"])}')
        ds = load_csv(obj["path"])
    return ds if "normalize" not in obj else normalized(ds)
