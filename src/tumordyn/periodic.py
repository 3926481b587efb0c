"""The unique positive T-periodic radius orbit and convergence toward it.

The Poincare map F(R0) = R(T) is a monotone self-map of the bracket
[x_bar, x2] built from P0^{-1}; its unique fixed point seeds the periodic
orbit.  Root finding is bisection (the bracket signs are guaranteed) followed
by secant polish.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import InsufficientDataError, NoPeriodicSolutionError, SolverError
from .radial import ModelParams, integrate
from .specfun import p0_inverse, pn_derivative

POINCARE_RTOL = 1e-12
POINCARE_ATOL = 1e-14
DEFAULT_SEGMENTS = 1024
_X2_CAP_RATIO = 1e-6
_QUAD_NODES_PER_SEGMENT = 8


def bracket(params: ModelParams) -> tuple[float, float]:
    """Poincare-invariant interval (x_bar, x2) enclosing the fixed point.

    x2 = P0^{-1}(sigma_tilde / (3 Phi_max)) and
    x_bar = P0^{-1}(sigma_tilde / (3 mean Phi)) * exp(-mu (Phi_max - sigma_tilde) T / 3).
    For tiny sigma_tilde the upper endpoint is capped (and find_periodic
    expands it again only if needed).
    """
    mean, phi_max, _ = params.schedule.stats()
    if params.sigma_tilde >= mean:
        raise NoPeriodicSolutionError(
            "no positive periodic solution: sigma_tilde >= mean nutrient supply"
        )
    if params.sigma_tilde <= 0.0:
        raise NoPeriodicSolutionError(
            "no positive periodic solution: sigma_tilde must be positive"
        )
    y2 = params.sigma_tilde / (3.0 * phi_max)
    if y2 < _X2_CAP_RATIO:
        warnings.warn(
            f"sigma_tilde/(3*Phi_max) = {y2:.3e} < {_X2_CAP_RATIO}; "
            "capping the upper bracket endpoint",
            stacklevel=2,
        )
        y2 = _X2_CAP_RATIO
    x2 = p0_inverse(y2)
    growth = math.exp(
        -params.mu * (phi_max - params.sigma_tilde) * params.period / 3.0
    )
    x_bar = p0_inverse(params.sigma_tilde / (3.0 * mean)) * growth
    # any positive point below the proof's lower endpoint still maps upward,
    # so floor x_bar when the exponential factor underflows
    x_bar = max(x_bar, 1e-12 * x2)
    return (x_bar, x2)


def poincare_map(
    params: ModelParams,
    R0: float,
    t0: float = 0.0,
    rtol: float = POINCARE_RTOL,
    atol: float = POINCARE_ATOL,
) -> float:
    """One-period solution map R0 -> R(t0 + T)."""
    traj = integrate(params, R0, t0, t0 + params.period, rtol=rtol, atol=atol)
    return float(traj.radii[-1])


def gauss_nodes(edges) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on the intervals between
    consecutive edges, _QUAD_NODES_PER_SEGMENT per interval; the weights sum
    to edges[-1] - edges[0]."""
    x, w = np.polynomial.legendre.leggauss(_QUAD_NODES_PER_SEGMENT)
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    tq = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wq = (half[:, None] * w[None, :]).ravel()
    return tq, wq


@dataclass
class PeriodicSolution:
    """One dense period of the unique positive periodic radius orbit."""

    params: ModelParams
    t0: float
    period: float
    R_star0: float
    times: np.ndarray
    radii: np.ndarray
    R_min: float
    R_max: float
    residual: float
    bracket: tuple[float, float]
    _interp: object = field(repr=False)
    _quad: tuple | None = field(default=None, repr=False)

    def __call__(self, t):
        """R*(t) for any t, by wrapping into the stored period."""
        t = np.asarray(t, dtype=float)
        tau = (t - self.t0) % self.period + self.t0
        out = self._interp(tau)[0]
        return float(out) if t.ndim == 0 else out

    def quadrature(self):
        """Cached composite Gauss-Legendre nodes over the stored period.

        Returns (t_nodes, weights, R_nodes); weights sum to the period.
        """
        if self._quad is None:
            tq, wq = gauss_nodes(self.times)
            rq = self._interp(tq)[0]
            self._quad = (tq, wq, rq)
        return self._quad


def find_periodic(
    params: ModelParams,
    tol: float = 1e-11,
    t0: float = 0.0,
    n_segments: int = DEFAULT_SEGMENTS,
) -> PeriodicSolution:
    """Locate the fixed point of the Poincare map and store one dense period."""
    x_bar, x2 = bracket(params)

    def G(r0: float) -> float:
        return poincare_map(params, r0, t0=t0) - r0

    g_lo = G(x_bar)
    g_hi = G(x2)
    # capped upper endpoint: expand until the map pulls inward
    expansions = 0
    while g_hi > 0.0 and expansions < 60:
        x2 *= 2.0
        g_hi = G(x2)
        expansions += 1
    slack = 1e-9
    if g_lo < -slack * x_bar or g_hi > slack * x2:
        raise SolverError(
            "Poincare map bracket sign condition violated beyond tolerance; "
            "tighten integrator tolerances"
        )

    a, fa, b, fb = x_bar, g_lo, x2, g_hi
    while b - a > 1e-3 * b:
        m = 0.5 * (a + b)
        fm = G(m)
        if fm >= 0.0:
            a, fa = m, fm
        else:
            b, fb = m, fm

    # secant polish inside [a, b]; meet tol both relative and absolute
    r_prev, f_prev = a, fa
    r, f = b, fb
    for _ in range(60):
        if abs(f) <= tol * min(1.0, r):
            break
        denom = f - f_prev
        if denom == 0.0:
            r_new = 0.5 * (a + b)
        else:
            r_new = r - f * (r - r_prev) / denom
            if not a <= r_new <= b:
                r_new = 0.5 * (a + b)
        r_prev, f_prev = r, f
        r = r_new
        f = G(r)
        if f >= 0.0:
            a = max(a, r)
        else:
            b = min(b, r)
    if abs(f) > tol * min(1.0, r):
        raise SolverError(
            f"fixed-point residual {abs(f):.3e} exceeds tolerance {tol * min(1.0, r):.3e}"
        )

    t_eval = t0 + np.linspace(0.0, params.period, n_segments + 1)
    traj = integrate(
        params, r, t0, t0 + params.period,
        rtol=POINCARE_RTOL, atol=POINCARE_ATOL, t_eval=t_eval,
    )
    residual = abs(float(traj.radii[-1]) - r)

    radii = traj.radii
    r_min, r_max = _refine_extrema(traj, t_eval, radii)

    return PeriodicSolution(
        params=params,
        t0=t0,
        period=params.period,
        R_star0=r,
        times=traj.times,
        radii=radii,
        R_min=r_min,
        R_max=r_max,
        residual=residual,
        bracket=(x_bar, x2),
        _interp=traj._interp,
    )


def _refine_extrema(traj, t_eval, radii):
    out = []
    for sign, idx in ((1.0, int(np.argmin(radii))), (-1.0, int(np.argmax(radii)))):
        lo = t_eval[max(idx - 1, 0)]
        hi = t_eval[min(idx + 1, len(t_eval) - 1)]
        res = minimize_scalar(
            lambda t: sign * float(traj._interp(t)[0]),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-12},
        )
        out.append(sign * res.fun)
    return out[0], out[1]


@dataclass
class RateFit:
    """Fitted per-period contraction toward the periodic orbit."""

    delta_hat: float
    C_hat: float
    delta_bound: float
    r_squared: float
    n_periods_used: int
    one_sided: bool


def convergence_rate(
    params: ModelParams,
    R0: float,
    n_periods: int,
    orbit: PeriodicSolution | None = None,
    burn_in: int = 10,
) -> RateFit:
    """Fit log|R(kT) - R*(kT)| linearly in time and compare with the
    analytic contraction bound mu*Phi_min*M_min*R_min*min(1, R0/R*(0)).

    M_min is the minimum of -P0' over the comparison interval
    [min(R0/R*(0),1)*R_min, max(R0/R*(0),1)*R_max].  The first burn_in
    periods are excluded from the fit: the approach is exponential only
    asymptotically, and the early nonlinear transient bends the log plot.
    """
    if orbit is None:
        orbit = find_periodic(params)
    R_star0 = orbit.R_star0
    if abs(R0 - R_star0) <= 1e-9 * R_star0:
        raise InsufficientDataError(
            "initial radius is on the periodic orbit; no rate to fit"
        )
    if n_periods < 4:
        raise InsufficientDataError("need at least 4 periods to fit a rate")

    T = params.period
    t_marks = np.arange(n_periods + 1) * T
    traj = integrate(
        params, R0, 0.0, n_periods * T,
        rtol=POINCARE_RTOL, atol=POINCARE_ATOL, t_eval=t_marks,
    )
    diffs = traj.radii - R_star0
    one_sided = bool(np.all(diffs > 0.0) or np.all(diffs < 0.0))

    usable = np.abs(diffs) > 1e-12 * R_star0
    usable[: burn_in] = False
    ks = np.nonzero(usable)[0]
    if len(ks) < 4:
        raise InsufficientDataError(
            "difference from the orbit hit the floating-point floor too early"
        )
    tk = t_marks[ks]
    logd = np.log(np.abs(diffs[ks]))
    slope, intercept = np.polyfit(tk, logd, 1)
    fit = slope * tk + intercept
    ss_res = float(np.sum((logd - fit) ** 2))
    ss_tot = float(np.sum((logd - logd.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    delta_hat = -float(slope)
    c_hat = math.exp(float(intercept))

    ratio = R0 / R_star0
    lo = orbit.R_min * min(1.0, ratio)
    hi = orbit.R_max * max(1.0, ratio)
    grid = np.linspace(lo, hi, 4097)
    m_min = float(np.min(-pn_derivative(0, grid)))
    delta_bound = (
        params.mu * params.schedule.minimum * m_min * orbit.R_min * min(1.0, ratio)
    )
    if delta_hat < 0.95 * delta_bound:
        raise SolverError(
            f"fitted rate {delta_hat:.6g} fell below 95% of the analytic bound "
            f"{delta_bound:.6g}"
        )
    return RateFit(
        delta_hat=delta_hat,
        C_hat=c_hat,
        delta_bound=delta_bound,
        r_squared=r_squared,
        n_periods_used=len(ks),
        one_sided=one_sided,
    )
