"""Linear stability of the periodic orbit under spherical-harmonic modes.

Each surface mode (n, m) has amplitude

  rho_nm(t) = rho_nm(0) * (R*(0)/R*(t))^(n-1)
              * exp(-Int_0^t [gamma*n*(n(n+1)/2 - 1)/R*^3
                              - mu*Phi*R*^2*P0(R*)*(P1(R*) - Pn(R*))] ds).

The period average of that integrand is the mode exponent Lambda_n (the
closed-form (n-1)*dlogR*/dt term integrates to zero over full periods and is
kept out of Lambda_n).  Mode n decays iff mu < theta_n, and the critical
proliferation coefficient is mu_star = theta_2.

The integrand is evaluated in one place, ``_mode_integrals``, on composite
Gauss-Legendre nodes from ``periodic.gauss_nodes``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoPeriodicSolutionError, SolverError
from .periodic import PeriodicSolution, find_periodic, gauss_nodes
from .radial import ModelParams
from .roots import find_root
from .specfun import _ratios, pn

DEFAULT_N_MAX = 32
MARGINAL_BAND = 1e-8


class Verdict(enum.Enum):
    LINEARLY_STABLE = "LinearlyStable"
    LINEARLY_UNSTABLE = "LinearlyUnstable"
    MARGINAL = "Marginal"


@dataclass(frozen=True)
class ModeExponent:
    mode: int
    lambda_bar: float
    floquet_multiplier: float


def classify_stability(mu: float, theta2: float, band: float = MARGINAL_BAND) -> Verdict:
    """Verdict for mu against the critical theta_2; |mu - theta_2| within
    band * theta_2 counts as marginal."""
    if abs(mu - theta2) <= band * theta2:
        return Verdict.MARGINAL
    if mu < theta2:
        return Verdict.LINEARLY_STABLE
    return Verdict.LINEARLY_UNSTABLE


def _mode_integrals(
    params: ModelParams, tq: np.ndarray, wq: np.ndarray, rq: np.ndarray, ns
) -> tuple[float, list[float]]:
    """The two parts of the mode integral on the nodes tq (weights wq, radii
    rq = R*(tq)): Int 1/R*^3 and, for each n in ns,
    Int Phi * R*^2 * P0(R*) * (P1(R*) - Pn(R*)).  The orders of ns are
    reduced one by one along a single backward pass, with no order table."""
    p1q = pn(1, rq)
    weighted = wq * params.schedule(tq) * rq**2 * pn(0, rq)
    hi, lo = max(ns), min(ns)
    prolif = {}
    for n, pnq in zip(range(hi, lo - 1, -1), _ratios(hi, lo, rq)):
        prolif[n] = float(np.sum(weighted * (p1q - pnq)))
    return float(np.sum(wq / rq**3)), [prolif[n] for n in ns]


def _curvature_part(params: ModelParams, n: int, tension: float) -> float:
    """gamma * n(n(n+1)/2 - 1) times Int 1/R*^3."""
    return params.gamma * (n * (n * (n + 1) / 2.0 - 1.0)) * tension


def _threshold(params: ModelParams, n: int, tension: float, prolif: float) -> float:
    return _curvature_part(params, n, tension) / prolif


def _exponent(
    orbit: PeriodicSolution, n: int, mu: float, tension: float, prolif: float
) -> ModeExponent:
    T = orbit.period
    lam = (_curvature_part(orbit.params, n, tension) - mu * prolif) / T
    return ModeExponent(mode=n, lambda_bar=lam, floquet_multiplier=math.exp(-lam * T))


def theta_n(orbit: PeriodicSolution, n: int) -> float:
    """Threshold theta_n: mode n decays iff mu < theta_n (n >= 2)."""
    if n < 2:
        raise ValueError("theta_n is defined for n >= 2 (theta_0 = theta_1 = infinity)")
    tension, (prolif,) = _mode_integrals(orbit.params, *orbit.quadrature(), [n])
    return _threshold(orbit.params, n, tension, prolif)


def mode_exponent(
    orbit: PeriodicSolution, n: int, mu: float | None = None
) -> ModeExponent:
    """Period-averaged decay rate Lambda_n of mode n on this orbit.

    Lambda_1 is exactly zero (translation modes are neutral).  mu defaults to
    the orbit's own parameter; passing another value evaluates the exponent
    formula on the frozen orbit.
    """
    if n < 0 or n != int(n):
        raise ValueError(f"mode index must be a nonnegative integer, got {n!r}")
    n = int(n)
    if mu is None:
        mu = orbit.params.mu
    tension, (prolif,) = _mode_integrals(orbit.params, *orbit.quadrature(), [n])
    return _exponent(orbit, n, mu, tension, prolif)


def mu_star(
    params: ModelParams,
    self_consistent: bool = False,
    orbit: PeriodicSolution | None = None,
) -> tuple[float, bool]:
    """Critical proliferation coefficient theta_2.

    By default theta_2 is evaluated on the orbit computed at params.mu (the
    per-mu classification).  With self_consistent=True the root of
    mu = theta_2(orbit(mu)) is returned instead, to relative accuracy 1e-9;
    the two coincide for a constant nutrient supply, where the orbit is
    mu-independent.
    """
    if not self_consistent:
        if orbit is None:
            orbit = find_periodic(params)
        return theta_n(orbit, 2), False

    def h(mu: float) -> float:
        trial = replace(params, mu=mu)
        return mu - theta_n(find_periodic(trial), 2)

    # walk a log grid; large mu can collapse the orbit radius below the
    # representable range, in which case no threshold exists numerically
    prev = None
    for exponent in range(-6, 7):
        mu_try = 10.0**exponent
        try:
            h_try = h(mu_try)
        except (SolverError, ValueError, OverflowError):
            break
        if prev is not None and prev[1] < 0.0 <= h_try:
            return find_root(h, prev[0], mu_try, prev[1], h_try, xtol=1e-12, rtol=1e-9), True
        prev = (mu_try, h_try)
    raise NoPeriodicSolutionError("self-consistent mu_star not bracketed in [1e-6, 1e6]")


def evolve_mode(
    orbit: PeriodicSolution, n: int, m: int, rho0: float, t: float
) -> float:
    """Amplitude rho_nm(t) of surface mode (n, m); independent of m.

    Whole periods use the cached exponent; the fractional remainder is
    integrated by composite Gauss-Legendre on the dense orbit.
    """
    if abs(m) > n:
        raise ValueError(f"|m| <= n required, got (n, m) = ({n}, {m})")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    T = orbit.period
    k = int(math.floor(t / T))
    tau = t - k * T
    lam = mode_exponent(orbit, n).lambda_bar
    integral = k * lam * T
    if tau > 0.0:
        params = orbit.params
        tq, wq = gauss_nodes(np.linspace(0.0, tau, 257))
        tension, (prolif,) = _mode_integrals(params, tq, wq, orbit(tq), [n])
        integral += _curvature_part(params, n, tension) - params.mu * prolif
    prefactor = (orbit.R_star0 / orbit(t)) ** (n - 1)
    return rho0 * prefactor * math.exp(-integral)


@dataclass
class DecayBoundReport:
    """Check of the cubic-in-n decay floor Lambda_n >= delta * (n^3 + 1)."""

    mu: float
    theta2: float
    delta_hat: float
    candidate_floor: float
    per_mode: list[tuple[int, float]]
    nonpositive_modes: list[int]
    ok: bool


def mode_decay_bound_check(
    orbit: PeriodicSolution,
    n_range=range(2, 33),
    mu: float | None = None,
    slack: float = 0.05,
) -> DecayBoundReport:
    """Verify min_n Lambda_n/(n^3+1) clears the analytic floor
    (mu/theta2)(theta2/mu - 1) * gamma / (4 R_max^3), up to slack."""
    if mu is None:
        mu = orbit.params.mu
    ns = list(n_range)
    tension, prolif = _mode_integrals(orbit.params, *orbit.quadrature(), [2, *ns])
    theta2 = _threshold(orbit.params, 2, tension, prolif[0])
    if mu >= theta2:
        raise ValueError("decay bound check requires the stable regime mu < theta_2")
    per_mode = []
    nonpositive = []
    for n, p in zip(ns, prolif[1:]):
        lam = _exponent(orbit, n, mu, tension, p).lambda_bar
        per_mode.append((n, lam / (n**3 + 1)))
        if lam <= 0.0:
            nonpositive.append(n)
    delta_hat = min(v for _, v in per_mode)
    floor = (
        0.25
        * (mu / theta2)
        * (theta2 / mu - 1.0)
        * orbit.params.gamma
        / orbit.R_max**3
    )
    ok = not nonpositive and delta_hat >= (1.0 - slack) * floor
    return DecayBoundReport(
        mu=mu,
        theta2=theta2,
        delta_hat=delta_hat,
        candidate_floor=floor,
        per_mode=per_mode,
        nonpositive_modes=nonpositive,
        ok=ok,
    )


@dataclass
class StabilityReport:
    params: ModelParams
    orbit: PeriodicSolution
    thresholds: np.ndarray        # theta_n for n = 2..n_max
    mu_star: float                # theta_2 on the orbit at params.mu
    self_consistent_mu_star: float | None
    exponents: list[ModeExponent]  # n = 0..n_max
    verdict: Verdict


def analyze(
    params: ModelParams,
    n_max: int = DEFAULT_N_MAX,
    self_consistent: bool = False,
) -> StabilityReport:
    """Full per-mode stability report at the given parameters (n_max >= 2)."""
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max!r}")
    orbit = find_periodic(params)
    tension, prolif = _mode_integrals(params, *orbit.quadrature(), range(n_max + 1))
    thresholds = np.array(
        [_threshold(params, n, tension, prolif[n]) for n in range(2, n_max + 1)]
    )
    exponents = [_exponent(orbit, n, params.mu, tension, p) for n, p in enumerate(prolif)]
    crit = thresholds[0]
    sc = mu_star(params, self_consistent=True)[0] if self_consistent else None
    return StabilityReport(
        params=params,
        orbit=orbit,
        thresholds=thresholds,
        mu_star=crit,
        self_consistent_mu_star=sc,
        exponents=exponents,
        verdict=classify_stability(params.mu, crit),
    )
