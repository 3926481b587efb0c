"""The unique positive T-periodic radius orbit and convergence toward it.

The Poincare map F(R0) = R(T) is a monotone self-map of the bracket
[x_bar, x2] built from P0^{-1}; its unique fixed point seeds the periodic
orbit.  A supply without ``breakpoints`` (constant, sinusoid, Fourier, or a
two-knot table, which is constant) first tries Fourier collocation of
u = log R (``_collocate``, each step the linearisation's periodic Green's
function ``_green``), kept if it lies in the bracket and one period from it,
or from one Newton step on the map (slope exp(-Lambda_0 T) from its last step),
meets the residual gate.  Otherwise, and for every kinked supply, the
bracket signs are guaranteed, so the fixed point is a root of F(R0) - R0 found
by Brent's method (``roots.find_root``), as accurate as the map's error times
1/(1 - F'), large near mu = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dopri import DenseSolution
from .errors import InsufficientDataError, NoPeriodicSolutionError, SolverError
from .radial import Classification, ModelParams, Trajectory, _require_positive, classify_radial, integrate, rhs
from .roots import find_root, refine_extremum
from .specfun import P0_INVERSE_FTOL, p0, p0_inverse, pn_derivative

POINCARE_RTOL = 1e-12
POINCARE_ATOL = 1e-14
DEFAULT_TOL = 1e-11
DEFAULT_SEGMENTS = 1024
_RADIUS_MEMO = 16  # float times at which an orbit keeps R*(t)
RATE_BURN_IN = 10  # periods the rate fit leaves out by default
RATE_FIT_MARKS = 4  # period marks it fits at the least
# collocation: node counts in turn, steps per count, the step size below
# which a step that stops halving ends the count, and the resolved spectral tail
_COLLOCATION_NODES = (32, 64, 128, 256)
_NEWTON_MAX = 16
_STALL_FROM = 1e-6
_TAIL_TOL = 1e-13


def bracket(params: ModelParams) -> tuple[float, float]:
    """Poincare-invariant interval (x_bar, x2) enclosing the fixed point.

    x2 = P0^{-1}(sigma_tilde / (3 Phi_max)) and
    x_bar = P0^{-1}(sigma_tilde / (3 mean Phi)) * exp(-mu (Phi_max - sigma_tilde) T / 3).
    """
    mean, phi_max = params.schedule.mean, params.schedule.maximum
    if classify_radial(params) is Classification.EXTINCTION:
        raise NoPeriodicSolutionError(
            "no positive periodic solution: sigma_tilde >= mean nutrient supply"
        )
    if params.sigma_tilde / 3.0 <= 0.0:  # the model's sigma_tilde / 3, 0 also when it underflows
        raise NoPeriodicSolutionError(
            "no positive periodic solution: sigma_tilde / 3 must be positive"
        )
    y2 = params.sigma_tilde / (3.0 * phi_max)
    # R* <= x2 < 1/y2, and P0'(R*) takes R*^3, so (1/y2)^3 must be a float
    if not y2**3 * np.finfo(float).max > 1.0:
        raise SolverError(f"sigma_tilde / (3 Phi_max) = {y2:.3g} puts R* past the floating-point range")
    x2 = p0_inverse(y2)
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

    ``method`` ("collocation" or "shooting"), ``map_evals`` (1 or 2 on a collocated orbit)
    and ``newton_steps`` (the collocation's Green steps over every M it tried; 0 if
    none) say how R*(0) was found; ``node_radii``
    are the accepted exp(u_j) at t_j = j T / M (M = 0 on shooting), and node_radii[0]
    is R_star0 up to a Newton step |F(r) - r| / (1 - F').  ``bracket(params)``
    encloses R_star0; ``residual`` is |R*(T) - R_star0|.  The samples ``times``
    (DEFAULT_SEGMENTS equal steps of [0, T]), ``radii`` (checked positive), R_min and
    R_max are read from the dense period when first asked for and kept; they and the
    memos (R*(t), ``stability``'s mode integrals) are not init fields, so
    ``dataclasses.replace`` starts empty.
    """

    params: ModelParams
    R_star0: float
    _interp: DenseSolution = field(repr=False)
    method: str = field(compare=False)
    map_evals: int = field(compare=False)
    newton_steps: int = field(compare=False)
    node_radii: np.ndarray = field(compare=False, repr=False)
    _mode_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _radius_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, t):
        """R*(t) for any t, wrapped into the stored period; the first _RADIUS_MEMO float reads are kept."""
        if type(t) is not float:
            return self._interp(np.asarray(t, dtype=float) % self.period)
        if t not in self._radius_memo and len(self._radius_memo) < _RADIUS_MEMO:
            self._radius_memo[t] = self._interp(t % self.period)
        return self._radius_memo.get(t) or self._interp(t % self.period)

    period = functools.cached_property(lambda self: self.params.period)
    residual = property(lambda self: abs(self._interp(self.period) - self.R_star0))
    times = functools.cached_property(lambda self: np.linspace(0.0, self.period, DEFAULT_SEGMENTS + 1))
    radii = functools.cached_property(lambda self: _require_positive(self._interp(self.times)))
    _extrema = functools.cached_property(lambda self: _refine_extrema(self.params, self))
    R_min = property(lambda self: self._extrema[0])
    R_max = property(lambda self: self._extrema[1])


def find_periodic(params: ModelParams, tol: float = DEFAULT_TOL) -> PeriodicSolution:
    """Locate the fixed point of the Poincare map and store one dense period:
    the collocation root r, r + (F(r) - r) / (1 - F') with the collocation's
    own log F', or Brent's root, the first to meet |F(R0) - R0| <= tol * min(1, R0)."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    x_bar, x2 = bracket(params)
    maps = 0

    def G(r0: float) -> float:
        nonlocal maps
        maps += 1
        return (poincare_map(params, r0) - r0) / min(1.0, r0)

    r, node_radii, steps, log_slope = (None, None, 0, None) if params.schedule.breakpoints else _collocate(params, tol)
    # r <= x2 as P0(r) >= P0(x2) up to p0_inverse's tolerance: under a
    # constant supply the fixed point is x2
    y2 = params.sigma_tilde / (3.0 * params.schedule.maximum)

    def inside(r0: float) -> bool:
        return x_bar <= r0 and p0(r0) >= y2 * (1.0 - P0_INVERSE_FTOL)

    method = "collocation"
    g = G(r) if r is not None and inside(r) else math.inf
    if tol < abs(g) < math.inf:  # a near miss: one Newton step on F
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

    # the accepted root is almost always the last map evaluation: a memo hit
    orbit = PeriodicSolution(
        params=params,
        R_star0=r,
        _interp=_one_period(params, r)._interp,
        method=method,
        map_evals=maps,
        newton_steps=steps,
        node_radii=node_radii,
    )
    if orbit.residual > (limit := tol * min(1.0, r)):
        raise SolverError(f"fixed-point residual {orbit.residual:.3e} exceeds tolerance {limit:.3e}")
    return orbit


def _collocate(params: ModelParams, tol: float) -> tuple[float | None, np.ndarray | None, int, float | None]:
    """(R*(0), the M node radii exp(u_j), steps, log F' = -Lambda_0 T) by
    Fourier collocation of u = log R; (None, None, steps, None) if it fails.

    Steps u -= _green(residual, a), a = d/du of the right side (log F' is T
    mean(a) at the last step), solve D u = mu (Phi P0(e^u) - sigma_tilde/3)
    at M equispaced nodes (D: Trefethen, Spectral Methods in MATLAB, ch. 3)
    until one below _STALL_FROM stops halving.  M doubles from 32 while that
    step exceeds tol * min(1, 1/R(0)) or u's coefficients from wave number
    3M/8 on exceed _TAIL_TOL * max(1, largest), giving up at 256, on a 4-fold
    step growth above _STALL_FROM, or when the tail's decay per doubling falls
    short.  Never raises; uses no LAPACK, whose bits depend on the BLAS thread
    count.
    """
    T, mu, s3, schedule = params.period, params.mu, params.sigma_tilde / 3.0, params.schedule
    u, tail_prev, steps = None, None, 0
    with np.errstate(all="ignore"):
        for m in _COLLOCATION_NODES:
            k = np.arange(m)
            col = np.where(k > 0, (math.pi / T) * (-1.0) ** k / np.tan(k * (math.pi / m)), 0.0)
            D = col[(k[:, None] - k) % m]
            phi = schedule(k * (T / m))
            u = np.full(m, math.log(p0_inverse(s3 / schedule.mean))) if u is None else _interpolate(u, m)
            prev = math.inf
            for _ in range(_NEWTON_MAX):
                R = np.exp(u)
                if not np.all((R > 0.0) & (R < math.inf)):
                    return None, None, steps, None
                # D u without u's mean rounds at the size of u's variation
                F = (D * (u - u.mean())).sum(axis=1) - mu * (phi * p0(R) - s3)
                du = _green(F, a := _diagonal(mu, phi, R), T)
                step = float(np.max(np.abs(du)))
                steps += 1
                if not math.isfinite(step) or (prev > _STALL_FROM and step > 4.0 * prev):
                    return None, None, steps, None  # non-finite, or diverging
                u = u - du
                if prev <= _STALL_FROM and not step < 0.5 * prev:
                    break
                prev = step
            r = float(np.exp(u[0]))
            if not 0.0 < r < math.inf:
                return None, None, steps, None
            c = np.abs(np.fft.rfft(u))
            tail = float(np.max(c[3 * m // 8:])) / max(m, float(np.max(c)))
            if tail <= _TAIL_TOL and step <= tol * min(1.0, 1.0 / r):
                return r, np.exp(u), steps, T * float(np.mean(a))
            # the decay since the last M, kept up to the cap, must reach _TAIL_TOL
            if tail_prev and tail * (tail / tail_prev) ** math.log2(_COLLOCATION_NODES[-1] / m) > _TAIL_TOL:
                return None, None, steps, None
            tail_prev = tail
    return None, None, steps, None


def _interpolate(x: np.ndarray, n: int) -> np.ndarray:
    """x's trigonometric interpolant at n >= x.size equispaced points; x's Nyquist term splits in two."""
    c = np.fft.rfft(x)
    c[-1] *= 0.5
    return np.fft.irfft(c, n) * (n / x.size)


def _green(F: np.ndarray, a: np.ndarray, T: float) -> np.ndarray:
    """The T-periodic v with v' - a v = F at F's nodes: v = e^A (d/dt - a_bar)^-1 (e^-A F),
    a_bar the mean of a and A' = a - a_bar, each factor diagonal in Fourier space (the
    Nyquist term's derivative 0, as in D), on twice the nodes so that products alias less."""
    m = 2 * F.size
    F, a = _interpolate(F, m), _interpolate(a, m)
    ik = np.arange(m // 2 + 1) * (2j * math.pi / T)
    ik[-1] = 0.0
    a_bar = a.mean()
    c = np.fft.rfft(a - a_bar)
    A = np.fft.irfft(np.divide(c, ik, out=np.zeros_like(c), where=ik != 0.0), m)
    w = np.fft.irfft(np.fft.rfft(np.exp(-A) * F) / (ik - a_bar), m)
    return (np.exp(A) * w)[::2]


def _diagonal(mu: float, phi: np.ndarray, R: np.ndarray) -> np.ndarray:
    """mu Phi P0'(R) R: d/du of the right side; its period mean is -Lambda_0."""
    return mu * phi * pn_derivative(0, R) * R


def _refine_extrema(params, traj):
    """R_min and R_max of a solve's or an orbit's samples, refined where dR/dt changes sign next to them."""

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
    parameters, by least squares on the period index k (delta_hat =
    -slope / T) and compare with the analytic contraction bound
    mu*Phi_min*M_min*R_min*min(1, R0/R*(0)).

    M_min is the minimum of -P0' over the comparison interval
    [min(R0/R*(0),1)*R_min, max(R0/R*(0),1)*R_max].  The first burn_in
    periods are excluded from the fit: the approach is exponential only
    asymptotically, and the early nonlinear transient bends the log plot.
    So is every mark from the first at or below the rounding floor
    1e-12 R*(0) on, as the difference there is noise.
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

    floor = np.abs(diffs) <= 1e-12 * R_star0
    end = int(np.argmax(floor)) if floor.any() else n_periods + 1
    ks = np.arange(burn_in, end)
    if len(ks) < RATE_FIT_MARKS:  # only where the floor was reached
        raise InsufficientDataError(
            f"|R(kT) - R*(0)| fell to the rounding floor 1e-12 R*(0) at period {end}, "
            f"leaving {len(ks)} of the {RATE_FIT_MARKS} marks a rate fit needs "
            f"after the {burn_in}-period burn-in"
        )
    # least squares of log|R(kT) - R*(0)| on k, in centred sums: no LAPACK
    k = ks - ks.mean()
    logd = np.log(np.abs(diffs[ks]))
    dev = logd - logd.mean()
    sxy, sxx, syy = float(np.sum(k * dev)), float(np.sum(k * k)), float(np.sum(dev * dev))
    r_squared = sxy * sxy / (sxx * syy) if syy > 0.0 else 1.0
    delta_hat = -(sxy / sxx) / T

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
