"""Dormand-Prince 5(4) for one scalar state, step for step scipy's RK45.

The pair of Dormand & Prince (1980) with local extrapolation and the quartic
dense output of Shampine (1986), as in Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I*, sections II.4-II.6.  The controller is
scipy's: its initial step selection, safety factor 0.9, step factors in
[0.2, 10], a minimum step of 10 ulp(t) and no growth right after a rejection.

The state is a Python float, but the five stage sums and the solution and
error rows are seven ``np.dot`` products on a (7, 1) stage array, with the
call shapes of scipy's ``rk_step``: numpy's dot may accumulate with fused
multiply-adds, and plain float sums would round differently.  So the step
sequence, the evaluation count and every value are those of
``solve_ivp(method="RK45")``.  The loop binds each product once per solve,
as the ``dot`` method of a fixed view of the stage array (the same product
without ``np.dot``'s dispatch), and writes out the five stages.

Each accepted step forms its dense coefficients K^T P with scipy's (1, 7) by
(7, 4) product and writes them as one row of a buffer that grows by
doubling.  They are never formed as one product over many steps, and the
dense output is read in bulk with one ``np.dot`` per step group, with that
group's shape: BLAS picks its kernel by shape, and a batched product would
round differently (see ``DenseSolution``).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import SolverError

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 5.0  # the error estimate is of order 4
_MIN_RTOL = 100.0 * sys.float_info.epsilon

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
# Shampine's dense output coefficients for his optimal c_6
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


class DenseSolution:
    """The piecewise quartic interpolant of every accepted step.

    ``ts`` and ``ys`` hold the step ends and the solution there.  A time on
    a step end belongs to the step that ends there; times outside
    [ts[0], ts[-1]] use the first or last step's polynomial.

    An array of times is evaluated in bulk: step indices, h, x and the power
    rows [x, x^2, x^3, x^4] with array ops, then exactly one ``np.dot`` per
    step group on a C-contiguous (4, k) block, as scipy's ``RkDenseOutput``
    does.  BLAS picks its kernel by shape, so one batched product over all
    groups would round differently (a group of one is an FMA chain, a wider
    one is neither that nor a plain sum) and move bits.
    """

    def __init__(self, ts, ys, qs):
        self.ts = np.array(ts)
        self.ys = np.array(ys)
        self._qs = qs  # row i: the dense coefficients of step i

    def __call__(self, t):
        """R at a time (a float) or at an array of times (an array of that shape)."""
        t = np.asarray(t, dtype=float)
        last = len(self._qs) - 1
        if t.ndim == 0:
            i = min(max(int(np.searchsorted(self.ts, t, side="left")) - 1, 0), last)
            h = self.ts[i + 1] - self.ts[i]
            x = float((t - self.ts[i]) / h)
            p = np.array([x, x * x, x * x * x, x * x * x * x])  # cumprod's products
            return float(h * np.dot(self._qs[i : i + 1], p)[0] + self.ys[i])
        n = t.size
        if n == 0:
            return np.empty(t.shape)
        order = np.argsort(t, axis=None)
        t_sorted = t.ravel()[order]
        seg = np.clip(np.searchsorted(self.ts, t_sorted, side="left") - 1, 0, last)
        t_old = self.ts[seg]
        h = self.ts[seg + 1] - t_old
        x = (t_sorted - t_old) / h
        # the k points of a group starting at a fill powers[4a : 4a + 4k] row by row
        starts = np.flatnonzero(np.diff(seg, prepend=-1))
        sizes = np.diff(starts, append=n)
        k = np.repeat(sizes, sizes)
        slot = 3 * np.repeat(starts, sizes) + np.arange(n)
        powers = np.empty(4 * n)
        p = x
        for row in range(4):
            powers[slot + row * k] = p
            p = p * x
        d = np.empty((1, n))
        qs, dot = self._qs, np.dot
        for i, a, m in zip(seg[starts].tolist(), starts.tolist(), sizes.tolist()):
            dot(qs[i : i + 1], powers[4 * a : 4 * (a + m)].reshape(4, m), out=d[:, a : a + m])
        out = np.empty(n)
        out[order] = h * d[0] + self.ys[seg]
        return out.reshape(t.shape)


def _norm(x: float) -> float:
    """scipy's RMS norm of a one-element vector: sqrt(x*x), not |x|."""
    return math.sqrt(x * x)


def _initial_step(fun, t0, y0, f0, t1, rtol, atol):
    """First step size, as scipy's ``select_initial_step`` (HNW II.4)."""
    interval = abs(t1 - t0)
    scale = atol + abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    if h0 == 0.0:  # d1 overflowed; scipy's h1 is then 0
        return 0.0
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, interval)


def solve(fun, t0: float, y0: float, t1: float, rtol: float, atol: float):
    """Integrate y' = fun(t, y) from t0 to t1 > t0 with a float state.

    Returns (dense solution, number of fun calls).  An rtol below 100 eps
    is raised to it, as scipy does.  SolverError if the step size falls
    below 10 ulp(t).
    """
    if not atol > 0.0:
        raise ValueError(f"atol must be positive, got {atol}")
    rtol = max(rtol, _MIN_RTOL)
    K = np.empty((7, 1))
    k = K[:, 0]
    # ndarray.dot is np.dot's product without its dispatch
    dot1, dot2, dot3, dot4, dot5 = (K[:s].T.dot for s in range(1, 6))
    A1, A2, A3, A4, A5 = (_A[s, :s] for s in range(1, 6))
    _, C1, C2, C3, C4, _ = _C
    dot_sol, dot_all = K[:-1].T.dot, K.T.dot

    t, y = t0, y0
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t1, rtol, atol)
    nfev = 2
    ts, ys = [t0], [y0]
    qs = np.empty((64, 4))
    while t < t1:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise SolverError(
                    "integration failed: Required step size is less than "
                    "spacing between numbers."
                )
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t

            k[0] = f
            k[1] = fun(t + C1 * h, y + dot1(A1).item() * h)
            k[2] = fun(t + C2 * h, y + dot2(A2).item() * h)
            k[3] = fun(t + C3 * h, y + dot3(A3).item() * h)
            k[4] = fun(t + C4 * h, y + dot4(A4).item() * h)
            k[5] = fun(t + h, y + dot5(A5).item() * h)
            y_new = y + h * dot_sol(_B).item()
            f_new = k[6] = fun(t + h, y_new)
            nfev += 6

            scale = atol + max(abs(y), abs(y_new)) * rtol
            error_norm = _norm(dot_all(_E).item() * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True

        n = len(ts) - 1
        if n == len(qs):
            qs = np.concatenate([qs, np.empty_like(qs)])
        dot_all(_P, out=qs[n : n + 1])
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    return DenseSolution(ts, ys, qs[: len(ts) - 1]), nfev
