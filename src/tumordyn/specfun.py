"""Ratio functions of half-integer modified Bessel functions.

The workhorse is ``pn(n, r) = I_{n+3/2}(r) / (r * I_{n+1/2}(r))``, evaluated
through the Gauss continued fraction for the ratio I_{nu+1}/I_nu (modified
Lentz iteration).  Ratios are never formed from separately computed I values,
so there is no overflow or cancellation at large order or argument.  Small
arguments are served by a power-series branch of the same ratio.

All evaluators accept scalars or numpy arrays of positive arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SolverError
from .roots import find_root

_CF_TINY = 1e-300
_CF_TOL = 1e-15
_CF_MAX_ITER = 100000
_SERIES_MAX_TERMS = 30


def _as_positive_array(r):
    arr = np.asarray(r, dtype=float)
    if arr.size == 0:
        return arr
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("argument r must be finite and positive")
    return arr


def _check_order(n: int) -> int:
    if n != int(n) or n < 0:
        raise ValueError(f"order n must be a nonnegative integer, got {n!r}")
    return int(n)


def _ratio_cf(nu: float, r: np.ndarray) -> np.ndarray:
    """I_{nu+1}(r)/I_nu(r) by the Gauss continued fraction, modified Lentz.

    Every iterate is formed in place in preallocated buffers.  A non-finite
    f can never become finite again, so it fails at once.
    """
    f = np.full(r.shape, _CF_TINY)
    c = f.copy()
    d = np.zeros_like(r)
    b = np.empty_like(r)
    delta = np.empty_like(r)
    mask = np.empty(r.shape, dtype=bool)
    # beyond r ~ 1e8 the first step overflows, and f stays inf from then on
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, _CF_MAX_ITER + 1):
            np.divide(2.0 * (nu + j), r, out=b)
            np.add(b, d, out=d)
            d[np.equal(d, 0.0, out=mask)] = _CF_TINY
            np.divide(1.0, c, out=c)
            np.add(b, c, out=c)
            c[np.equal(c, 0.0, out=mask)] = _CF_TINY
            np.divide(1.0, d, out=d)
            np.multiply(c, d, out=delta)
            np.multiply(f, delta, out=f)
            if not np.isfinite(f, out=mask).all():
                break
            np.subtract(delta, 1.0, out=delta)
            if j > 1 and np.less(np.abs(delta, out=delta), _CF_TOL, out=mask).all():
                return f
    raise SolverError("Bessel ratio continued fraction did not converge")


def _ratio_series(nu: float, r):
    """I_{nu+1}(r)/I_nu(r) from the defining power series (small r*r/(4*nu)).

    Both partial sums have positive terms, so the quotient is cancellation
    free; callers restrict to x = r^2/4 < 0.01*(nu+1) where <= ~10 terms
    reach double precision.  r is a float or an array; both take the same
    operations.
    """
    x = 0.25 * r * r
    s_lo = 1.0   # sum for I_nu with leading factor stripped
    s_hi = 1.0   # same for I_{nu+1}
    term_lo = 1.0
    term_hi = 1.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term_lo = term_lo * x / (k * (nu + k))
        term_hi = term_hi * x / (k * (nu + 1.0 + k))
        s_lo = s_lo + term_lo
        s_hi = s_hi + term_hi
        done = term_lo < 1e-18 * s_lo
        if done if isinstance(done, bool) else done.all():
            break
    return (0.5 * r / (nu + 1.0)) * s_hi / s_lo


def _pn_impl(n: int, r: np.ndarray) -> np.ndarray:
    nu = n + 0.5
    out = np.empty_like(r)
    small = 0.25 * r * r < 0.01 * (nu + 1.0)
    if np.any(small):
        rs = r[small]
        out[small] = _ratio_series(nu, rs) / rs
    if np.any(~small):
        rl = r[~small]
        out[~small] = _ratio_cf(nu, rl) / rl
    return out


def pn(n: int, r):
    """P_n(r) = I_{n+3/2}(r) / (r * I_{n+1/2}(r)).

    Strictly decreasing in both n and r, with 0 < P_n(r) <= 1/(2n+3).
    """
    n = _check_order(n)
    arr = _as_positive_array(r)
    out = _pn_impl(n, np.atleast_1d(arr))
    return float(out[0]) if np.isscalar(r) or arr.ndim == 0 else out.reshape(arr.shape)


def _p0_closed(r):
    """coth(r)/r - 1/r^2 for a float or an array; np.tanh on both."""
    return 1.0 / (np.tanh(r) * r) - 1.0 / (r * r)


def p0(r):
    """P_0(r) = coth(r)/r - 1/r^2, with a series branch below r = 0.3.

    The closed form loses accuracy near the origin (1/r^2 cancellation), so
    small arguments reuse the series ratio; the crossover keeps the relative
    error below ~1e-14 on both sides.

    A float (the radius ODE's case) builds no arrays and returns the same
    bits as the array path, so no result depends on which path ran;
    anything else goes through arrays.
    """
    if isinstance(r, float):
        r = float(r)
        if not (math.isfinite(r) and r > 0.0):
            raise ValueError("argument r must be finite and positive")
        return _ratio_series(0.5, r) / r if r < 0.3 else float(_p0_closed(r))
    arr = _as_positive_array(r)
    a = np.atleast_1d(arr)
    out = np.empty_like(a)
    small = a < 0.3
    if np.any(small):
        rs = a[small]
        out[small] = _ratio_series(0.5, rs) / rs
    if np.any(~small):
        rl = a[~small]
        out[~small] = _p0_closed(rl)
    return float(out[0]) if np.isscalar(r) or arr.ndim == 0 else out.reshape(arr.shape)


def pn_derivative(n: int, r):
    """dP_n/dr, always negative.

    Away from the origin it follows from the Bessel derivative identities:
    with rho = r*P_n,  d(rho)/dr = 1 - 2(n+1)*rho/r - rho^2, hence
    P_n'(r) = [1 - (2n+3) P_n - r^2 P_n^2] / r.  Near the origin that
    bracket cancels to O(r^2), so a series branch takes over.
    """
    n = _check_order(n)
    arr = _as_positive_array(r)
    a = np.atleast_1d(arr)
    out = np.empty_like(a)
    c = (2.0 * n + 3.0) * (2.0 * n + 5.0)
    small = a * a < 1e-6 * c
    if np.any(small):
        rs = a[small]
        nu = n + 0.5
        x = 0.25 * rs * rs
        c1 = (nu + 1.0) * (nu + 2.0)
        c2 = (nu + 1.0) ** 2 * (nu + 2.0) * (nu + 3.0)
        out[small] = (0.5 * rs / (2.0 * nu + 2.0)) * (-1.0 / c1 + 4.0 * x / c2)
    if np.any(~small):
        rl = a[~small]
        p = _pn_impl(n, rl)
        out[~small] = (1.0 - (2.0 * n + 3.0) * p - rl * rl * p * p) / rl
    return float(out[0]) if np.isscalar(r) or arr.ndim == 0 else out.reshape(arr.shape)


def p0_inverse(y: float) -> float:
    """Unique r > 0 with P_0(r) = y, for y in (0, 1/3).

    P_0 decreases from 1/3 and P_0(r) < 1/r, so [1e-8, 1/y] brackets the
    root; Brent's method stops once |P_0(r)/y - 1| <= 1e-13.
    """
    if not (isinstance(y, (int, float)) and math.isfinite(y)):
        raise ValueError("target y must be a finite real number")
    y = float(y)
    if not 0.0 < y < 1.0 / 3.0:
        raise ValueError(f"target y={y} outside (0, 1/3)")

    def f(r: float) -> float:
        return p0(r) / y - 1.0

    # rounding can make P_0(1/y) equal y, never exceed it
    return find_root(f, 1e-8, 1.0 / y, f(1e-8), min(f(1.0 / y), 0.0), ftol=1e-13)
