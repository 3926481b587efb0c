"""The unique positive T-periodic radius orbit and convergence toward it.

The Poincare map F(R0) = R(T) is a monotone self-map of the bracket
[x_bar, x2] built from P0^{-1}; its unique fixed point seeds the periodic
orbit.  A constant, sinusoid or Fourier supply first tries Fourier
collocation of u = log R (``_collocate``), kept if it lies in the bracket and
one period from it, or from one Newton step on the map (slope exp(-Lambda_0 T)
from the nodes), meets the residual gate.  Otherwise, and for every
piecewise-linear supply, the bracket signs are guaranteed, so the fixed
point is a root of F(R0) - R0 found by Brent's method (``roots.find_root``),
as accurate as the map's error times 1/(1 - F'), large near mu = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dopri import DenseSolution
from .errors import InsufficientDataError, NoPeriodicSolutionError, SolverError
from .nutrient import ConstantSchedule, FourierSchedule, SinusoidSchedule
from .radial import ModelParams, Trajectory, integrate, rhs
from .roots import find_root, refine_extremum
from .specfun import P0_INVERSE_FTOL, p0, p0_inverse, pn_derivative

POINCARE_RTOL = 1e-12
POINCARE_ATOL = 1e-14
DEFAULT_TOL = 1e-11
DEFAULT_SEGMENTS = 1024
RATE_BURN_IN = 10  # periods the rate fit leaves out by default
RATE_FIT_MARKS = 4  # period marks it fits at the least
# collocation: node counts in turn, Newton steps per count, the step size
# from which the Jacobian inverse is kept, and the resolved spectral tail
_COLLOCATION_NODES = (32, 64, 128, 256)
_NEWTON_MAX = 16
_CHORD_FROM = 1e-6
_TAIL_TOL = 1e-13


def bracket(params: ModelParams) -> tuple[float, float]:
    """Poincare-invariant interval (x_bar, x2) enclosing the fixed point.

    x2 = P0^{-1}(sigma_tilde / (3 Phi_max)) and
    x_bar = P0^{-1}(sigma_tilde / (3 mean Phi)) * exp(-mu (Phi_max - sigma_tilde) T / 3).
    """
    mean, phi_max = params.schedule.mean, params.schedule.maximum
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
    return float(_one_period(params, R0).radii[-1])


@functools.lru_cache(maxsize=1)
def _one_period(params: ModelParams, R0: float) -> Trajectory:
    """The dense solve behind the latest map evaluation, kept so that
    ``find_periodic`` reads its orbit from its last mapped point instead of
    integrating that period again."""
    return integrate(params, R0, params.period, rtol=POINCARE_RTOL, atol=POINCARE_ATOL)


@dataclass
class PeriodicSolution:
    """One dense period [0, T] of the unique positive periodic radius orbit.

    ``method`` ("collocation" or "shooting"), ``map_evals`` (1 or 2 on a
    collocated orbit) and the attempt's ``newton_steps`` say how R*(0) was
    found; ``node_radii`` are the accepted exp(u_j) at t_j = j T / M (M = 0
    on shooting), and node_radii[0] is R_star0 up to a Newton step
    |F(r) - r| / (1 - F').  ``bracket(params)`` encloses R_star0.  The
    mode-integral memo of ``stability`` is not a constructor argument, so
    ``dataclasses.replace`` starts it empty.
    """

    params: ModelParams
    period: float
    R_star0: float
    times: np.ndarray
    radii: np.ndarray
    R_min: float
    R_max: float
    residual: float
    _interp: DenseSolution = field(repr=False)
    method: str = field(compare=False)
    map_evals: int = field(compare=False)
    newton_steps: int = field(compare=False)
    node_radii: np.ndarray = field(compare=False, repr=False)
    _mode_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, t):
        """R*(t) for any t, by wrapping into the stored period."""
        t = np.asarray(t, dtype=float)
        return self._interp(t % self.period)


def find_periodic(params: ModelParams, tol: float = DEFAULT_TOL) -> PeriodicSolution:
    """Locate the fixed point of the Poincare map and store one dense period:
    the collocation root r, r + (F(r) - r) / (1 - F'), or Brent's root, the
    first to meet |F(R0) - R0| <= tol * min(1, R0)."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    x_bar, x2 = bracket(params)
    maps = 0

    def G(r0: float) -> float:
        nonlocal maps
        maps += 1
        return (poincare_map(params, r0) - r0) / min(1.0, r0)

    smooth = isinstance(params.schedule, (ConstantSchedule, SinusoidSchedule, FourierSchedule))
    r, node_radii, steps = _collocate(params, tol) if smooth else (None, None, 0)
    # r <= x2 as P0(r) >= P0(x2) up to p0_inverse's tolerance: under a
    # constant supply the fixed point is x2
    y2 = params.sigma_tilde / (3.0 * params.schedule.maximum)

    def inside(r0: float) -> bool:
        return x_bar <= r0 and p0(r0) >= y2 * (1.0 - P0_INVERSE_FTOL)

    method = "collocation"
    g = G(r) if r is not None and inside(r) else math.inf
    if tol < abs(g) < math.inf:  # a near miss: one Newton step on F
        phi = params.schedule(np.linspace(0.0, params.period, node_radii.size, endpoint=False))
        log_slope = params.period * float(np.mean(_diagonal(params.mu, phi, node_radii)))
        r -= g * min(1.0, r) / math.expm1(log_slope)  # F' = exp(log_slope) = exp(-Lambda_0 T)
        g = G(r) if inside(r) else math.inf
    if not abs(g) <= tol:
        method, node_radii = "shooting", np.empty(0)
        slack = 1e-9
        g_lo = G(x_bar)
        # x2 is mapped only if x_bar's sign holds
        if g_lo < -slack * max(1.0, x_bar) or (g_hi := G(x2)) > slack * max(1.0, x2):
            raise SolverError(
                "Poincare map bracket sign condition violated beyond tolerance; "
                "tighten integrator tolerances"
            )
        # within the slack the proof's signs G(x_bar) >= 0 >= G(x2) hold
        r = find_root(G, x_bar, x2, max(g_lo, 0.0), min(g_hi, 0.0), ftol=tol)

    # the accepted root is almost always the last map evaluation, so this is
    # a memo hit; t_eval never moves a step, so the samples are a fresh solve's
    t_eval = np.linspace(0.0, params.period, DEFAULT_SEGMENTS + 1)
    traj = _one_period(params, r).resample(t_eval)
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
        _interp=traj._interp,
        method=method,
        map_evals=maps,
        newton_steps=steps,
        node_radii=node_radii,
    )


def _collocate(params: ModelParams, tol: float) -> tuple[float | None, np.ndarray | None, int]:
    """(R*(0), the M node radii exp(u_j), Newton steps) by Fourier
    collocation of u = log R; (None, None, Newton steps) if it fails.

    Newton solves D u = mu (Phi P0(e^u) - sigma_tilde/3) at M equispaced
    nodes (D: Trefethen, Spectral Methods in MATLAB, ch. 3) until a chord
    step stops halving; that step must be below tol * min(1, 1/R(0)).  M
    doubles from 32 until u's coefficients from wave number 3M/8 on are
    below _TAIL_TOL * max(1, largest), giving up at 256 or when their decay
    per doubling falls short.  Never raises; uses no LAPACK, whose bits
    depend on the BLAS thread count.
    """
    T, mu, s3, schedule = params.period, params.mu, params.sigma_tilde / 3.0, params.schedule
    u, tail_prev, steps = None, None, 0
    with np.errstate(all="ignore"):
        for m in _COLLOCATION_NODES:
            k = np.arange(m)
            col = np.where(k > 0, (math.pi / T) * (-1.0) ** k / np.tan(k * (math.pi / m)), 0.0)
            D = col[(k[:, None] - k) % m]
            phi = schedule(k * (T / m))
            if u is None:
                u = np.full(m, math.log(p0_inverse(s3 / schedule.mean)))
            else:
                c = np.fft.rfft(u)
                c[-1] *= 0.5  # the old Nyquist term splits between +-m/4
                u = np.fft.irfft(c, m) * 2.0
            prev = math.inf
            for _ in range(_NEWTON_MAX):
                R = np.exp(u)
                if not np.all((R > 0.0) & (R < math.inf)):
                    return None, None, steps
                # D u without u's mean rounds at the size of u's variation
                F = (D * (u - u.mean())).sum(axis=1) - mu * (phi * p0(R) - s3)
                if prev > _CHORD_FROM:
                    jinv = _inverse(D - np.diag(_diagonal(mu, phi, R)))
                du = (jinv * F).sum(axis=1)
                step = float(np.max(np.abs(du)))
                steps += 1
                if not math.isfinite(step) or (prev > _CHORD_FROM and step > 4.0 * prev):
                    return None, None, steps  # non-finite, or Newton diverging
                u = u - du
                if prev <= _CHORD_FROM and not step < 0.5 * prev:
                    break
                prev = step
            r = float(np.exp(u[0]))
            if not (0.0 < r < math.inf and step <= tol * min(1.0, 1.0 / r)):
                return None, None, steps
            c = np.abs(np.fft.rfft(u))
            tail = float(np.max(c[3 * m // 8:])) / max(m, float(np.max(c)))
            if tail <= _TAIL_TOL:
                return r, np.exp(u), steps
            # the decay since the last M, kept up to the cap, must reach _TAIL_TOL
            if tail_prev and tail * (tail / tail_prev) ** math.log2(_COLLOCATION_NODES[-1] / m) > _TAIL_TOL:
                return None, None, steps
            tail_prev = tail
    return None, None, steps


def _diagonal(mu: float, phi: np.ndarray, R: np.ndarray) -> np.ndarray:
    """mu Phi P0'(R) R: d/du of the right side; its period mean is -Lambda_0."""
    return mu * phi * pn_derivative(0, R) * R


def _inverse(a: np.ndarray) -> np.ndarray:
    """a^-1 by Gauss-Jordan exchange steps on a, each pivot the largest entry
    of its column among rows not yet pivoted; non-finite if a is singular."""
    free, rows = np.ones(len(a), dtype=bool), []
    for k in range(len(a)):
        p = int(np.argmax(np.where(free, np.abs(a[:, k]), -1.0)))
        free[p] = False
        rows.append(p)
        row = a[p] / a[p, k]
        row[k] = 1.0 / a[p, k]
        col = a[:, k].copy()
        col[p] = 0.0
        a[:, k] = 0.0
        a -= col[:, None] * row
        a[p] = row
    # row p of the table now gives x_k, and column k takes y_p
    return a[rows][:, np.argsort(rows)]


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
    orbit: PeriodicSolution, R0: float, n_periods: int, burn_in: int = RATE_BURN_IN
) -> RateFit:
    """Fit log|R(kT) - R*(kT)| of a solve from R0, under the orbit's
    parameters, linearly in time and compare with the analytic contraction
    bound mu*Phi_min*M_min*R_min*min(1, R0/R*(0)).

    M_min is the minimum of -P0' over the comparison interval
    [min(R0/R*(0),1)*R_min, max(R0/R*(0),1)*R_max].  The first burn_in
    periods are excluded from the fit: the approach is exponential only
    asymptotically, and the early nonlinear transient bends the log plot.
    """
    params, R_star0 = orbit.params, orbit.R_star0
    if abs(R0 - R_star0) <= 1e-9 * R_star0:
        raise InsufficientDataError(
            "initial radius is on the periodic orbit; no rate to fit"
        )
    if n_periods < burn_in + RATE_FIT_MARKS - 1:
        raise InsufficientDataError(
            f"need at least {burn_in + RATE_FIT_MARKS - 1} periods to fit a rate "
            f"after a {burn_in}-period burn-in"
        )

    T = params.period
    t_marks = np.arange(n_periods + 1) * T
    traj = integrate(params, R0, n_periods * T, rtol=POINCARE_RTOL, atol=POINCARE_ATOL)
    diffs = traj.resample(t_marks).radii - R_star0
    one_sided = bool(np.all(diffs > 0.0) or np.all(diffs < 0.0))

    usable = np.abs(diffs) > 1e-12 * R_star0
    usable[: burn_in] = False
    ks = np.nonzero(usable)[0]
    if len(ks) < RATE_FIT_MARKS:
        raise InsufficientDataError(
            "difference from the orbit hit the floating-point floor too early"
        )
    tk = t_marks[ks]
    logd = np.log(np.abs(diffs[ks]))
    # marks too close for polyfit's column scale must not reach LAPACK
    try:
        with np.errstate(divide="raise", invalid="raise"):
            slope, intercept = np.polyfit(tk, logd, 1)
    except (FloatingPointError, ValueError) as exc:  # LinAlgError is a ValueError
        raise InsufficientDataError(f"rate fit of log|R(kT) - R*(0)| on time failed: {exc}") from None
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
    m_min = float(np.min(-pn_derivative(0, np.array([lo, hi]))))
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
