"""Ratio functions of half-integer modified Bessel functions.

The workhorse is ``pn(n, r) = I_{n+3/2}(r) / (r * I_{n+1/2}(r))``.  Every
order comes from one backward recurrence, P_{n-1} = 1 / (2n + 1 + r^2 P_n)
(the Gauss continued fraction summed from its tail), started from P = 0 far
enough above the wanted orders.  Backward is the stable direction (Gautschi
1967), and Amos's (1974) bound r P_k < exp(-asinh((k+1)/r)) fixes how far.
No I value is formed, so nothing overflows at large order or argument, and
near the origin r^2 P_n underflows to the limit 1/(2n+3).

All evaluators accept scalars or numpy arrays of positive arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SolverError
from .roots import find_root

_CF_MAX_ITER = 100000  # cap on the recurrence's start depth
_DEPTH_CONTRACTION = 64.0 * math.log(2.0)
_SERIES_MAX_TERMS = 30
_P0_DERIVATIVE_CLOSED_FROM = 20.0
P0_INVERSE_FTOL = 1e-13  # |P_0(p0_inverse(y))/y - 1| stays within this


def _as_positive_array(r):
    arr = np.asarray(r, dtype=float)
    if arr.size == 0:
        return arr
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("argument r must be finite and positive")
    return arr


def _check_order(n: int) -> int:
    """n as an int; ValueError unless n is a nonnegative whole number."""
    try:
        ok = n == int(n) and n >= 0
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"order n must be a nonnegative integer, got {n!r}")
    return int(n)


def _check_mode(n: int, m: int) -> tuple[int, int]:
    """(n, m) as ints; ValueError unless n is a nonnegative whole number and
    m a whole number with |m| <= n."""
    n = _check_order(n)
    try:
        ok = m == int(m) and abs(m) <= n
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"m must be a whole number with |m| <= n, got (n, m) = ({n}, {m!r})")
    return n, int(m)


def _ratio_series(nu: float, r):
    """I_{nu+1}(r)/I_nu(r) from the defining power series (small r*r/(4*nu)).

    Both partial sums have positive terms, so the quotient is cancellation
    free; ``p0`` calls it below r = 0.3, where <= ~10 terms reach double
    precision.  r is a float or an array; both take the same operations.
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


def _start_depth(n_hi: int, r_max: float) -> int:
    """Least K with sum_{k=n_hi}^{n_hi+K-1} 2 asinh((k+1)/r_max) >= 64 ln 2.

    Started K orders above n_hi, the recurrence shrinks the error of its
    P = 0 start below 2**-64, under half an ulp.  asinh x <= x bounds the sum
    by K (K + 2 n_hi + 1) / r_max, so a depth past the cap fails before any
    loop.
    """
    cap = _CF_MAX_ITER
    total = 0.0
    k = n_hi
    if cap * (cap + 2 * n_hi + 1) >= _DEPTH_CONTRACTION * r_max:
        while total < _DEPTH_CONTRACTION and k - n_hi < cap:
            k += 1
            total += 2.0 * math.asinh(k / r_max)
    if total < _DEPTH_CONTRACTION:
        raise SolverError(
            f"Bessel ratio continued fraction needs more than {cap} orders at r = {r_max:.6g}"
        )
    return k - n_hi


def _ratios(n_hi: int, n_lo: int, r: np.ndarray):
    """Yield P_n(r) for n = n_hi, n_hi - 1, ..., n_lo from one backward pass.

    The start depth is set by the largest r of the batch, and every lane has
    converged to the last bit long before n_hi, so a value does not depend
    on the batch or on n_hi.  Each row is one buffer, overwritten when the
    next row is made.
    """
    # an empty batch runs as if r = 1
    depth = _start_depth(n_hi, float(r.max()) if r.size else 1.0)
    r2 = r * r
    p = np.zeros_like(r)
    for m in range(n_hi + depth, n_lo, -1):  # P_m -> P_{m-1}
        np.multiply(r2, p, out=p)
        np.add(p, 2.0 * m + 1.0, out=p)
        np.divide(1.0, p, out=p)
        if m <= n_hi + 1:
            yield p


def pn(n: int, r):
    """P_n(r) = I_{n+3/2}(r) / (r * I_{n+1/2}(r)).

    Strictly decreasing in both n and r, with 0 < P_n(r) <= 1/(2n+3).
    """
    n = _check_order(n)
    arr = _as_positive_array(r)
    out = next(_ratios(n, n, np.atleast_1d(arr)))
    return float(out[0]) if np.isscalar(r) or arr.ndim == 0 else out.reshape(arr.shape)


def _p0_closed(r, tanh_r):
    """coth(r)/r - 1/r^2 for a float or an array, given np.tanh(r).

    A float takes np.tanh's bits as a Python float, so the rest is float
    arithmetic with the array path's IEEE operations (math.tanh may round
    differently from numpy's SIMD tanh).
    """
    return 1.0 / (tanh_r * r) - 1.0 / (r * r)


def p0_float(r: float) -> float:
    """``p0``'s float branch, float arithmetic only (the radius ODE binds it);
    ValueError unless r is finite and positive."""
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError("argument r must be finite and positive")
    return _ratio_series(0.5, r) / r if r < 0.3 else _p0_closed(r, float(np.tanh(r)))


def p0(r):
    """P_0(r) = coth(r)/r - 1/r^2, with a series branch below r = 0.3.

    The closed form loses accuracy near the origin (1/r^2 cancellation), so
    small arguments reuse the series ratio; the crossover keeps the relative
    error below ~1e-14 on both sides.

    A float goes to ``p0_float``, which builds no arrays and returns the
    same bits as the array path, so no result depends on which path ran;
    anything else goes through arrays.
    """
    if isinstance(r, float):
        return p0_float(float(r))
    arr = _as_positive_array(r)
    a = np.atleast_1d(arr)
    out = np.empty_like(a)
    small = a < 0.3
    if np.any(small):
        rs = a[small]
        out[small] = _ratio_series(0.5, rs) / rs
    if np.any(~small):
        rl = a[~small]
        out[~small] = _p0_closed(rl, np.tanh(rl))
    return float(out[0]) if np.isscalar(r) or arr.ndim == 0 else out.reshape(arr.shape)


def pn_derivative(n: int, r):
    """dP_n/dr, always negative.

    With rho = r*P_n the Bessel derivative identities give
    d(rho)/dr = 1 - 2(n+1)*rho/r - rho^2, and 1 - (2n+3) P_n = r^2 P_n P_{n+1}
    turns this into P_n'(r) = r P_n (P_{n+1} - P_n), with no cancellation
    near the origin.  At large r both ratios tend to 1/r and their difference
    cancels, so the relative error grows with r: against mpmath it is ~1e-14
    at r = 100 and ~6e-12 at r = 1e4, and reaches 4.0e-10 at n = 0 on
    [20, 1e5].  For n = 0 use ``p0_derivative``, closed form from r = 20.
    """
    n = _check_order(n)
    arr = _as_positive_array(r)
    a = np.atleast_1d(arr)
    p_next, p = (row.copy() for row in _ratios(n + 1, n, a))
    out = a * p * (p_next - p)
    return float(out[0]) if np.isscalar(r) or arr.ndim == 0 else out.reshape(arr.shape)


def p0_derivative(r):
    """dP_0/dr, always negative.

    From r = 20 on it is the closed form 2/r^3 - coth(r)/r^2: the dropped
    -csch(r)^2/r term is below an ulp of the rest there, and no recurrence
    has to start ~sqrt(44 r) orders deep (past its cap beyond r ~ 2.2e8).
    Below r = 20 it is pn_derivative(0, r), bit for bit.
    """
    arr = _as_positive_array(r)
    a = np.atleast_1d(arr)
    out = np.empty_like(a)
    large = a >= _P0_DERIVATIVE_CLOSED_FROM
    rl = a[large]
    out[large] = 2.0 / rl**3 - 1.0 / (rl * rl * np.tanh(rl))
    if not large.all():
        out[~large] = pn_derivative(0, a[~large])
    return float(out[0]) if np.isscalar(r) or arr.ndim == 0 else out.reshape(arr.shape)


def p0_inverse(y: float) -> float:
    """Unique r > 0 with P_0(r) = y, for y in (0, 1/3).

    P_0 decreases from 1/3 and P_0(r) < 1/r, so [1e-8, 1/y] brackets the
    root; Brent's method stops once |P_0(r)/y - 1| <= P0_INVERSE_FTOL.
    """
    if not (isinstance(y, (int, float)) and math.isfinite(y)):
        raise ValueError("target y must be a finite real number")
    y = float(y)
    if not 0.0 < y < 1.0 / 3.0:
        raise ValueError(f"target y={y} outside (0, 1/3)")

    def f(r: float) -> float:
        return p0(r) / y - 1.0

    # rounding can make P_0(1/y) equal y, never exceed it
    return find_root(f, 1e-8, 1.0 / y, f(1e-8), min(f(1.0 / y), 0.0), ftol=P0_INVERSE_FTOL)
