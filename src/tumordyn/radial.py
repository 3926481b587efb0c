"""The reduced tumor-radius ODE and its long-time classification.

dR/dt = mu * R * [Phi(t) * P0(R) - sigma_tilde / 3]

R = 0 is invariant; positive solutions stay positive.  Extinction versus
persistence is decided analytically by comparing sigma_tilde with the period
mean of the nutrient supply; a solve is only read for diagnostics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import dopri
from .errors import SolverError
from .nutrient import NutrientSchedule
# p0 stays bound here because bench/tracing.py wraps this site
from .specfun import p0, p0_float  # noqa: F401

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
# extinction_diagnostics samples each period at this many equal steps
_GRID_PER_PERIOD = 32
# integrate's step cap per period started; the benchmark's hardest period takes 6,328
_MAX_STEPS_PER_PERIOD = 100_000


@dataclass(frozen=True)
class ModelParams:
    """Model parameters (mu, sigma_tilde, gamma) plus the nutrient schedule."""

    mu: float
    sigma_tilde: float
    gamma: float
    schedule: NutrientSchedule

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not (math.isfinite(self.sigma_tilde) and self.sigma_tilde >= 0.0):
            raise ValueError(f"sigma_tilde must be nonnegative, got {self.sigma_tilde}")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    @property
    def period(self) -> float:
        return self.schedule.period


class Classification(enum.Enum):
    EXTINCTION = "Extinction"
    PERSISTENCE = "Persistence"


def _right_side(params: ModelParams):
    """The right side of float (t, R), bound once per solve to the float
    paths of Phi and P0: 0.0 at R <= 0, p0's ValueError at R = nan, inf.

    Phi at the latest t is kept, as an RK45 attempt's last two stages share
    t + h; Phi depends on t alone, so a kept value has the same bits."""
    mu, s3, T = params.mu, params.sigma_tilde / 3.0, params.period
    phi, P0 = params.schedule._value, p0_float
    t_kept = phi_kept = math.nan

    def f(t, R):
        nonlocal t_kept, phi_kept
        if R <= 0.0:
            return 0.0
        if t != t_kept:
            t_kept, phi_kept = t, phi(t % T)
        return mu * R * (phi_kept * P0(R) - s3)

    return f


def rhs(params: ModelParams, t: float, R: float) -> float:
    """Right side of the radius ODE; exactly 0 at R = 0."""
    if R < 0.0:
        raise ValueError(f"radius must be nonnegative, got {R}")
    return _right_side(params)(float(t), float(R))


@dataclass
class Trajectory:
    """Dense ODE solution R(t) on [0, t1] with its interpolant.

    ``times``/``radii`` are the accepted step ends, or after ``resample`` the
    requested times; ``t1`` and ``steps`` are read from the dense solve.
    """

    times: np.ndarray
    radii: np.ndarray
    nfev: int
    _interp: dopri.DenseSolution = field(repr=False)
    t1 = property(lambda self: float(self._interp.ts[-1]))
    steps = property(lambda self: len(self._interp.ts) - 1)

    def resample(self, t_eval) -> Trajectory:
        """This solve read at the strictly increasing 1-D times t_eval within
        [0, t1].  Where a solve is read never moves a step, so these are
        the values of a solve that stops at each of those times."""
        t_eval = np.array(t_eval, dtype=float)
        inside = t_eval.ndim == 1 and np.all((t_eval >= 0.0) & (t_eval <= self.t1))
        if not (inside and np.all(np.diff(t_eval) > 0.0)):
            raise ValueError("t_eval must be a strictly increasing 1-D array of times within [0, t1]")
        return replace(self, times=t_eval, radii=_require_positive(self._interp(t_eval)))


def _require_positive(radii: np.ndarray) -> np.ndarray:
    if np.any(radii <= 0.0):
        raise SolverError("integration produced a non-positive radius")
    return radii


def integrate(
    params: ModelParams,
    R0: float,
    t1: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) solve from R(0) = R0 to t1 with dense
    output (``dopri``), read on a grid with ``Trajectory.resample``.

    Positivity is verified on the accepted nodes; the right side treats
    non-positive trial radii as stationary so the integrator cannot step
    through zero.  A radius that overflows, or a solve that needs more than
    _MAX_STEPS_PER_PERIOD steps per period started, is a SolverError.
    """
    if not (R0 > 0.0 and math.isfinite(R0)):
        raise ValueError(f"initial radius must be positive and finite, got {R0}")
    if not (t1 > 0.0 and math.isfinite(t1)):
        raise ValueError(f"t1 must be positive and finite, got {t1}")
    if not atol > 0.0:
        raise ValueError(f"atol must be positive, got {atol}")
    max_steps = _MAX_STEPS_PER_PERIOD * -(-t1 // params.period)  # ceil, inf past the floats
    try:
        with np.errstate(over="ignore"):  # an overflow ends the solve below
            interp, nfev = dopri.solve(
                _right_side(params), 0.0, float(R0), float(t1), rtol, atol, max_steps
            )
    except ValueError as exc:  # P0 of an infinite radius
        raise SolverError("integration failed: the radius left the floating-point range") from exc
    return Trajectory(
        times=interp.ts,
        radii=_require_positive(interp.ys),
        nfev=nfev,
        _interp=interp,
    )


def classify_radial(params: ModelParams) -> Classification:
    """Extinction iff sigma_tilde >= mean(Phi); ties count as extinction."""
    mean = params.schedule.mean
    if params.sigma_tilde >= mean:
        return Classification.EXTINCTION
    return Classification.PERSISTENCE


@dataclass
class ExtinctionReport:
    period_radii: np.ndarray
    nonincreasing_ok: bool
    cap_ok: bool
    violations: list[str]


def extinction_diagnostics(params: ModelParams, traj: Trajectory) -> ExtinctionReport:
    """Check the proof-backed decay structure on a solve over whole periods.

    ``traj`` must start at t = 0 and end at n*T for an integer n >= 1, and is
    judged with the slack of integrate's default tolerances; it is read on a
    grid of _GRID_PER_PERIOD points per period.  Verifies (a) R(kT)
    is non-increasing and (b) within each period
    R(t) <= R(kT) * exp(mu*max(0, Phi_max - sigma_tilde)*T/3) on that grid,
    which follows from dR/dt <= mu*R*(Phi_max - sigma_tilde)/3 since P0 <= 1/3.
    """
    if classify_radial(params) is not Classification.EXTINCTION:
        raise ValueError("extinction diagnostics require sigma_tilde >= mean(Phi)")
    T = params.period
    n_periods = round(traj.t1 / T)
    if n_periods < 1 or traj.t1 != n_periods * T:
        raise ValueError("extinction diagnostics need a solve from t = 0 over whole periods")

    t_grid = np.linspace(0.0, n_periods * T, n_periods * _GRID_PER_PERIOD + 1)
    traj = traj.resample(t_grid)

    rk = traj.radii[::_GRID_PER_PERIOD]
    slack = 10.0 * max(DEFAULT_RTOL * float(np.max(traj.radii)), DEFAULT_ATOL)
    violations: list[str] = []

    diffs = np.diff(rk)
    nonincreasing_ok = bool(np.all(diffs <= slack))
    if not nonincreasing_ok:
        k = int(np.argmax(diffs))
        violations.append(
            f"R(kT) increased between periods {k} and {k + 1} by {diffs[k]:.3e}"
        )

    growth = max(0.0, params.schedule.maximum - params.sigma_tilde)
    cap = math.exp(params.mu * growth * T / 3.0)
    cap_ok = True
    for k in range(n_periods):
        seg = traj.radii[k * _GRID_PER_PERIOD : (k + 1) * _GRID_PER_PERIOD + 1]
        bound = rk[k] * cap + slack
        if np.any(seg > bound):
            cap_ok = False
            violations.append(f"within-period growth cap violated in period {k}")
            break

    return ExtinctionReport(
        period_radii=rk,
        nonincreasing_ok=nonincreasing_ok,
        cap_ok=cap_ok,
        violations=violations,
    )
