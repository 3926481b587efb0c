"""Dormand-Prince 5(4) for one scalar state, step for step scipy's RK45.

The pair of Dormand & Prince (1980) with local extrapolation and the quartic
dense output of Shampine (1986), as in Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I*, sections II.4-II.6.  The controller is
scipy's: its initial step selection, safety factor 0.9, step factors in
[0.2, 10], a minimum step of 10 ulp(t) and no growth right after a rejection.

The state is a Python float, but four of the five stage sums and the
solution and error rows are six ``np.dot`` products on a (7, 1) stage array,
with the call shapes of scipy's ``rk_step``: numpy's dot may accumulate with
fused multiply-adds, and plain float sums would round differently.  The first
stage sum has one term, one rounding either way, so it is the plain product
f * a21.  So the step sequence, the evaluation count and every step's value
are those of ``solve_ivp(method="RK45")``.  The loop binds each product once per
solve, as the ``dot`` method of a fixed view of the stage array (the same
product without ``np.dot``'s dispatch).  Each product writes its one element
into a preallocated array, read back through a ``memoryview``, and the stages
are stored through another: float loads and stores with no numpy item access
and no new array per product.

Each accepted step forms its dense coefficients K^T P with scipy's (1, 7) by
(7, 4) product and writes them as one row of a buffer that grows by
doubling, so the steps (``ts``, ``ys``, the evaluation count) are RK45's bit
for bit.  The dense output is read elementwise by Horner's rule, not with
scipy's power rows and ``np.dot``: a read is within a few ulp of scipy's,
and its bits do not depend on what else is read in the same call (see
``DenseSolution``).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left

import numpy as np

from .errors import SolverError

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 5.0  # the error estimate is of order 4
_MIN_RTOL = 100.0 * sys.float_info.epsilon

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
# the stage coefficients of stages 2 to 6, row s - 2 for stage s
_A = np.array([
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

    A read is elementwise: each time takes its step's coefficients and
    evaluates the quartic by Horner's rule, so a time's value does not depend
    on the other times read with it, and a float, a 0-d array and any
    element of an array of any shape or order give the same bits.  A Python
    float takes the same expression in float arithmetic, on the solve's own
    lists of step ends and values, which spares it numpy's per-call cost.
    """

    def __init__(self, ts: list, ys: list, qs):
        self.ts = np.array(ts)
        self.ys = np.array(ys)
        self._qs = qs  # row i: the dense coefficients of step i
        self._steps = ts, ys, memoryview(qs).cast("B").cast("d")  # for the float read

    def __call__(self, t):
        """R at a time (a float) or at an array of times (an array of that shape)."""
        if type(t) is float:
            ts, ys, q = self._steps
            i = bisect_left(ts, t, 1, len(ts) - 1) - 1  # searchsorted(ts[1:-1], t)
            t_old = ts[i]
            h = ts[i + 1] - t_old
            x = (t - t_old) / h
            j = 4 * i
            return h * x * (q[j] + x * (q[j + 1] + x * (q[j + 2] + x * q[j + 3]))) + ys[i]
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(self.ts[1:-1], t)  # the step index, clipped to the first and last
        t_old = self.ts[i]
        h = self.ts[i + 1] - t_old
        x = (t - t_old) / h
        q0, q1, q2, q3 = self._qs.T[:, i]
        y = h * x * (q0 + x * (q1 + x * (q2 + x * q3))) + self.ys[i]
        return float(y) if y.ndim == 0 else y


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


def solve(fun, t0: float, y0: float, t1: float, rtol: float, atol: float, max_steps=math.inf):
    """Integrate y' = fun(t, y) from t0 to t1 > t0 with a float state, atol > 0.

    Returns (dense solution, number of fun calls).  An rtol below 100 eps
    is raised to it, as scipy does.  SolverError if the step size falls
    below 10 ulp(t) or t1 is not reached in max_steps accepted steps.
    """
    rtol = max(rtol, _MIN_RTOL)
    K = np.empty((7, 1))
    k = memoryview(K).cast("B").cast("d")
    # ndarray.dot is np.dot's product without its dispatch
    dot2, dot3, dot4, dot5 = (K[:s].T.dot for s in range(2, 6))
    A21 = float(_A[0, 0])
    A2, A3, A4, A5 = (_A[s - 1, :s] for s in range(2, 6))
    _, C1, C2, C3, C4, _ = _C
    dot_sol, dot_all = K[:-1].T.dot, K.T.dot
    S = np.empty(1)  # each product's one element, read as a float through s
    s, sqrt = memoryview(S), math.sqrt

    t, y = t0, y0
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t1, rtol, atol)
    nfev = 2
    ts, ys = [t0], [y0]
    qs = np.empty((64, 4))
    while t < t1:
        if len(ts) > max_steps:
            raise SolverError(f"integration failed: more than {max_steps:.0f} steps")
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
            k[1] = fun(t + C1 * h, y + f * A21 * h)
            dot2(A2, out=S)
            k[2] = fun(t + C2 * h, y + s[0] * h)
            dot3(A3, out=S)
            k[3] = fun(t + C3 * h, y + s[0] * h)
            dot4(A4, out=S)
            k[4] = fun(t + C4 * h, y + s[0] * h)
            dot5(A5, out=S)
            k[5] = fun(t + h, y + s[0] * h)
            dot_sol(_B, out=S)
            y_new = y + h * s[0]
            f_new = k[6] = fun(t + h, y_new)
            nfev += 6

            scale = atol + max(abs(y), abs(y_new)) * rtol
            dot_all(_E, out=S)
            error = s[0] * h / scale
            error_norm = sqrt(error * error)  # _norm
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
