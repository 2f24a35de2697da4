"""Deterministic low-level numerics: seeded randomness, Gaussian sampling,
exact row norms, 1-D minimization, and the number check of config-JSON
descriptors.

Everything here is 64-bit float and fully reproducible: the random stream
is PCG64 (seeded) and normals come from Box-Muller on that stream, one
sample or rows of samples at a time, so the same seed gives the same draws
on every run.
"""

from __future__ import annotations

import json
import math
from typing import Callable

import numpy as np

__all__ = [
    "Rng",
    "minimize_1d",
    "json_number",
]

# golden-section reduction factor
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section steps before minimize_1d gives up on a bracket that no
# longer narrows
_MAX_ITER = 5000
# the smallest normal float: a square below it has lost bits
_TINY = 2.0 ** -1022


class Rng:
    """Seeded pseudo-random stream.

    The generator is PCG64 (numpy's permuted congruential generator); the
    same seed always yields the same stream, independent of platform.
    Normal variates are produced by the Box-Muller transform on uniform
    draws from that stream rather than by ziggurat rejection, so the
    mapping seed -> normals is pinned down by this module alone:
    :meth:`normals` is the package's one Box-Muller transform, and its
    (rows, size) form draws many samples at once, with the bits of one
    sample at a time.

    An ``Rng`` is single-owner mutable state: share datasets and configs
    freely between threads, but give each concurrent run its own ``Rng``.
    """

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.PCG64(int(seed)))

    def uniform(self, size: int) -> np.ndarray:
        """``size`` uniform draws in [0, 1)."""
        return self._gen.random(size)

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        """``size`` integer draws in [low, high)."""
        return self._gen.integers(low, high, size=size)

    def rademacher(self, size: int) -> np.ndarray:
        """Uniform +/-1 draws."""
        return 2.0 * self._gen.integers(0, 2, size=size).astype(np.float64) - 1.0

    def normals(self, size: int | tuple[int, int]) -> np.ndarray:
        """Standard normal draws via Box-Muller: ``size`` of them, or a
        (rows, size) array whose rows are, bit for bit, ``rows`` consecutive
        ``normals(size)`` calls.

        Each row draws its ceil(size/2) uniforms u1, then as many u2, and
        discards the spare when size is odd, so the consumed stream length
        depends only on the shape.
        """
        rows, size = size if isinstance(size, tuple) else (None, size)
        if size < 1:
            raise ValueError("size must be >= 1")
        pairs = (size + 1) // 2
        U = self._gen.random((1 if rows is None else rows) * 2 * pairs).reshape(-1, 2, pairs)
        r = np.sqrt(-2.0 * np.log(1.0 - U[:, 0]))  # 1 - u in (0, 1]: log stays finite
        theta = 2.0 * math.pi * U[:, 1]
        z = np.empty((len(U), 2 * pairs), dtype=np.float64)
        z[:, 0::2] = r * np.cos(theta)
        z[:, 1::2] = r * np.sin(theta)
        return z[0, :size] if rows is None else z[:, :size]


def _sq_norms(A: np.ndarray) -> np.ndarray:
    """v.dot(v) of each row v of the (..., p) array A, bit for bit: the
    stacked matmul takes one dot per row."""
    V = A.reshape(-1, 1, A.shape[-1])
    return np.matmul(V, V.transpose(0, 2, 1)).reshape(A.shape[:-1])


def _norms(A: np.ndarray) -> np.ndarray:
    """||v|| of each row v of the (..., p) array A: sqrt(v.dot(v)) from
    :func:`_sq_norms`, bit for bit, which is what np.linalg.norm computes
    for a vector; but a finite nonzero row whose square overflows, or falls
    below the smallest normal float, is first scaled by an exact power of
    two, so that its norm is not inf, or 0, or short of bits, where the
    norm itself is a float."""
    sq = _sq_norms(A)
    norms = np.sqrt(sq)
    if _TINY <= sq.min() and sq.max() < math.inf:
        return norms
    rows, sq, norms = A.reshape(-1, A.shape[-1]), sq.reshape(-1), norms.reshape(-1)
    big = np.max(np.abs(rows), axis=1, initial=0.0)
    fix = ((sq < _TINY) | (sq == math.inf)) & (0.0 < big) & (big < math.inf)
    e = np.frexp(big[fix])[1]
    norms[fix] = np.ldexp(np.sqrt(_sq_norms(np.ldexp(rows[fix], -e[:, None]))), e)
    return norms.reshape(A.shape[:-1])


def minimize_1d(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """Golden-section search for a minimizer of a unimodal f on [lo, hi].

    Returns (argmin, min value) with the argmin located within ``tol`` of
    a local minimizer.  Unimodality on the bracket is the caller's
    responsibility.  Raises ValueError, before calling f, on a bracket
    wider than the largest float, and when it is still wider than ``tol``
    after ``_MAX_ITER`` steps: a tol below the spacing of floats near the
    minimizer stalls the bracket, while any tol >= 1e-8 is met from a
    float-sized bracket in about 1500.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise ValueError(f"the bracket [{lo!r}, {hi!r}] is wider than the largest float")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    taken = 0
    while (b - a) > tol:
        if taken == _MAX_ITER:
            raise ValueError(f"golden-section search stalled: the bracket [{a!r}, {b!r}] "
                             f"is still wider than tol={tol:g} after {_MAX_ITER} steps; "
                             f"floats there are {math.ulp(0.5 * (a + b)):g} apart")
        taken += 1
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def json_number(obj: dict, key: str, what: str, integral: bool = False) -> float | int:
    """``obj[key]`` of the config-JSON descriptor of ``what``: a JSON number
    (never a bool, string or null), as a float, or as an int where
    ``integral``, when it must be a whole number.  Raises ValueError on any
    other value, before a run can take it for a number it is not."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f'"{key}" of {what} must be a number, not {json.dumps(value)}')
    if integral and isinstance(value, float) and not value.is_integer():
        raise ValueError(f'"{key}" of {what} must be an integer, not {json.dumps(value)}')
    return int(value) if integral else float(value)
