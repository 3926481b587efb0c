"""The one scalar root finder: Brent's method (Brent 1973, Algorithms for
Minimization without Derivatives, ch. 4) in the form of scipy's ``brentq``."""

from __future__ import annotations

import sys

from .errors import SolverError

_MAX_ITER = 200


def find_root(f, a, b, fa, fb, xtol=0.0, rtol=4.0 * sys.float_info.epsilon, ftol=0.0):
    """Root of f in [a, b] given fa = f(a) and fb = f(b) of opposite signs: the
    first iterate x with |f(x)| <= ftol or a bracket narrower than xtol +
    rtol*|x| (an endpoint where f is 0 at once).  SolverError if fa and fb do
    not bracket a root or _MAX_ITER steps do not converge."""
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        raise SolverError(f"root not bracketed: f({a:.6g}) = {fa:.3g}, f({b:.6g}) = {fb:.3g}")
    # x_cur is the best iterate, x_blk the bracket's other end, x_pre the
    # previous iterate; s_cur and s_pre are the last two steps
    x_pre, f_pre, x_cur, f_cur = a, fa, b, fb
    for _ in range(_MAX_ITER):
        if (f_pre > 0.0) != (f_cur > 0.0):
            x_blk, f_blk, s_pre, s_cur = x_pre, f_pre, x_cur - x_pre, x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk, f_pre, f_cur, f_blk = x_cur, x_blk, x_cur, f_cur, f_blk, f_cur
        delta = 0.5 * (xtol + rtol * abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if abs(f_cur) <= ftol or abs(s_bis) < delta:
            return x_cur
        good = False
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            good = 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta)
        s_pre, s_cur = (s_cur, s_try) if good else (s_bis, s_bis)
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else (delta if s_bis > 0.0 else -delta)
        f_cur = f(x_cur)
    raise SolverError(f"root finder did not converge in {_MAX_ITER} iterations")


def refine_extremum(slope, value, lo, hi, sample, extreme, xtol):
    """extreme(sample, value(t)) at the root t of slope in [lo, hi], or the
    sample itself when slope does not change sign there."""
    s_lo, s_hi = slope(lo), slope(hi)
    if min(s_lo, s_hi) <= 0.0 <= max(s_lo, s_hi):
        return extreme(sample, value(find_root(slope, lo, hi, s_lo, s_hi, xtol=xtol)))
    return sample
