"""The unique positive T-periodic radius orbit and convergence toward it.

The Poincare map F(R0) = R(T) is a monotone self-map of the bracket
[x_bar, x2] built from P0^{-1}; its unique fixed point seeds the periodic
orbit.  The bracket signs are guaranteed, so the fixed point is a root of
F(R0) - R0 found by Brent's method (``roots.find_root``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dopri import DenseSolution
from .errors import InsufficientDataError, NoPeriodicSolutionError, SolverError
from .radial import ModelParams, integrate, rhs
from .roots import find_root, refine_extremum
# pn_derivative stays bound here because bench/tracing.py wraps this site
from .specfun import p0_derivative, p0_inverse, pn_derivative  # noqa: F401

POINCARE_RTOL = 1e-12
POINCARE_ATOL = 1e-14
DEFAULT_SEGMENTS = 1024
_QUAD_NODES_PER_SEGMENT = 8
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(_QUAD_NODES_PER_SEGMENT)


def bracket(params: ModelParams) -> tuple[float, float]:
    """Poincare-invariant interval (x_bar, x2) enclosing the fixed point.

    x2 = P0^{-1}(sigma_tilde / (3 Phi_max)) and
    x_bar = P0^{-1}(sigma_tilde / (3 mean Phi)) * exp(-mu (Phi_max - sigma_tilde) T / 3).
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
    x2 = p0_inverse(params.sigma_tilde / (3.0 * phi_max))
    growth = math.exp(
        -params.mu * (phi_max - params.sigma_tilde) * params.period / 3.0
    )
    x_bar = p0_inverse(params.sigma_tilde / (3.0 * mean)) * growth
    # any positive point below the proof's lower endpoint still maps upward,
    # so floor x_bar when the exponential factor underflows
    x_bar = max(x_bar, 1e-12 * x2)
    return (x_bar, x2)


def poincare_map(params: ModelParams, R0: float) -> float:
    """One-period solution map R0 -> R(T)."""
    traj = integrate(params, R0, 0.0, params.period, rtol=POINCARE_RTOL, atol=POINCARE_ATOL)
    return float(traj.radii[-1])


def gauss_nodes(edges) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on the intervals between
    consecutive edges, _QUAD_NODES_PER_SEGMENT per interval; the weights sum
    to edges[-1] - edges[0]."""
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    tq = (mid[:, None] + half[:, None] * _GAUSS_X[None, :]).ravel()
    wq = (half[:, None] * _GAUSS_W[None, :]).ravel()
    return tq, wq


@dataclass
class PeriodicSolution:
    """One dense period [0, T] of the unique positive periodic radius orbit.

    The node cache and the mode-integral memo of ``stability`` are not
    constructor arguments, so ``dataclasses.replace`` starts both empty.
    """

    params: ModelParams
    period: float
    R_star0: float
    times: np.ndarray
    radii: np.ndarray
    R_min: float
    R_max: float
    residual: float
    bracket: tuple[float, float]
    _interp: DenseSolution = field(repr=False)
    _quad: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _mode_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, t):
        """R*(t) for any t, by wrapping into the stored period."""
        t = np.asarray(t, dtype=float)
        return self._interp(t % self.period)

    def quadrature(self):
        """Cached composite Gauss-Legendre nodes over the stored period.

        Returns (t_nodes, weights, R_nodes); weights sum to the period.
        """
        if self._quad is None:
            tq, wq = gauss_nodes(self.times)
            rq = self._interp(tq)
            self._quad = (tq, wq, rq)
        return self._quad


def find_periodic(params: ModelParams, tol: float = 1e-11) -> PeriodicSolution:
    """Locate the fixed point of the Poincare map and store one dense period."""
    x_bar, x2 = bracket(params)

    def G(r0: float) -> float:
        return (poincare_map(params, r0) - r0) / min(1.0, r0)

    g_lo = G(x_bar)
    g_hi = G(x2)
    slack = 1e-9
    if g_lo < -slack * max(1.0, x_bar) or g_hi > slack * max(1.0, x2):
        raise SolverError(
            "Poincare map bracket sign condition violated beyond tolerance; "
            "tighten integrator tolerances"
        )
    # within the slack the proof's signs G(x_bar) >= 0 >= G(x2) hold
    r = find_root(G, x_bar, x2, max(g_lo, 0.0), min(g_hi, 0.0), ftol=tol)

    t_eval = np.linspace(0.0, params.period, DEFAULT_SEGMENTS + 1)
    traj = integrate(
        params, r, 0.0, params.period,
        rtol=POINCARE_RTOL, atol=POINCARE_ATOL, t_eval=t_eval,
    )
    residual = abs(float(traj.radii[-1]) - r)
    if residual > tol * min(1.0, r):
        raise SolverError(f"fixed-point residual {residual:.3e} exceeds tolerance {tol * min(1.0, r):.3e}")
    r_min, r_max = _refine_extrema(params, traj)

    return PeriodicSolution(
        params=params,
        period=params.period,
        R_star0=r,
        times=traj.times,
        radii=traj.radii,
        R_min=r_min,
        R_max=r_max,
        residual=residual,
        bracket=(x_bar, x2),
        _interp=traj._interp,
    )


def _refine_extrema(params, traj):
    """R_min and R_max, refined where dR/dt changes sign next to the extreme samples."""

    radius = traj._interp

    def slope(t: float) -> float:
        return rhs(params, t, radius(t))

    ts, rs = traj.times, traj.radii
    return tuple(
        refine_extremum(slope, radius, ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)],
                        float(rs[i]), pick, 1e-12)
        for i, pick in ((int(np.argmin(rs)), min), (int(np.argmax(rs)), max))
    )


@dataclass
class RateFit:
    """Fitted per-period contraction toward the periodic orbit."""

    delta_hat: float
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

    ratio = R0 / R_star0
    lo = orbit.R_min * min(1.0, ratio)
    hi = orbit.R_max * max(1.0, ratio)
    # -P0' rises from 0 at r = 0 to its one maximum near r = 1.93 and falls
    # back to 0 as r -> inf, so its minimum over [lo, hi] is at an end
    m_min = float(np.min(-p0_derivative(np.array([lo, hi]))))
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
        delta_bound=delta_bound,
        r_squared=r_squared,
        n_periods_used=len(ks),
        one_sided=one_sided,
    )
