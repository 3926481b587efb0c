"""Linear stability of the periodic orbit under spherical-harmonic modes.

Each surface mode (n, m) has amplitude

  rho_nm(t) = rho_nm(0) * (R*(0)/R*(t))^(n-1)
              * exp(-Int_0^t [gamma*n*(n(n+1)/2 - 1)/R*^3
                              - mu*Phi*R*^2*P0(R*)*(P1(R*) - Pn(R*))] ds).

The period average of that integrand is the mode exponent Lambda_n (the
closed-form (n-1)*dlogR*/dt term integrates to zero over full periods and is
kept out of Lambda_n).  Mode n decays iff mu < theta_n, and the critical
proliferation coefficient is mu_star = theta_2.

The integrand is evaluated in one place, ``_mode_terms`` with its
``_ModeTerms.integrals``.  A collocated orbit's period is taken by the
trapezoid rule on its collocation nodes (geometric for smooth periodic
integrands: Trefethen & Weideman, SIAM Review 56, 2014); a shot orbit's
period and every fractional window [0, tau) by the composite Gauss-Legendre
nodes of ``gauss_nodes``.  Node terms and integrals are memoized on the
orbit: the whole period, each order once, and the latest window that
``evolve_mode`` asked for, whose first pass takes every order the period holds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NoPeriodicSolutionError, SolverError
from .periodic import PeriodicSolution, find_periodic
from .radial import ModelParams
from .roots import find_root
from .specfun import _check_mode, _check_order, _ratios, pn

DEFAULT_N_MAX = 32
MARGINAL_BAND = 1e-8
_QUAD_NODES_PER_SEGMENT = 8
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(_QUAD_NODES_PER_SEGMENT)


class Verdict(enum.Enum):
    LINEARLY_STABLE = "LinearlyStable"
    LINEARLY_UNSTABLE = "LinearlyUnstable"
    MARGINAL = "Marginal"


@dataclass(frozen=True)
class ModeExponent:
    mode: int
    lambda_bar: float
    floquet_multiplier: float


def classify_stability(mu: float, theta2: float) -> Verdict:
    """Verdict for mu against the critical theta_2; |mu - theta_2| within
    MARGINAL_BAND * theta_2 counts as marginal."""
    if abs(mu - theta2) <= MARGINAL_BAND * theta2:
        return Verdict.MARGINAL
    if mu < theta2:
        return Verdict.LINEARLY_STABLE
    return Verdict.LINEARLY_UNSTABLE


@dataclass
class _ModeTerms:
    """The order-free terms of the mode integrand on one node set, and the
    integrals taken from them so far.

    weighted = w * Phi * R*^2 * P0(R*) and p1 = P1(R*) at the nodes (radii
    R*); tension = Int 1/R*^3; prolif[n] = Int Phi * R*^2 * P0 * (P1 - Pn).
    """

    radii: np.ndarray
    weighted: np.ndarray
    p1: np.ndarray
    tension: float
    prolif: dict[int, float] = field(default_factory=dict)

    def integrals(self, ns) -> list[float]:
        """prolif[n] for each n of ns.  Missing orders are reduced one by one
        along a single backward pass, with no order table."""
        missing = [n for n in ns if n not in self.prolif]
        if missing:
            hi, lo = max(missing), min(missing)
            for n, pnq in zip(range(hi, lo - 1, -1), _ratios(hi, lo, self.radii)):
                if n not in self.prolif:
                    self.prolif[n] = float(np.sum(self.weighted * (self.p1 - pnq)))
        return [self.prolif[n] for n in ns]


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


def _mode_terms(orbit: PeriodicSolution, tq, wq, rq) -> _ModeTerms:
    """Mode terms on nodes tq with weights wq and radii rq = R*(tq)."""
    weighted = wq * orbit.params.schedule(tq) * rq**2 * pn(0, rq)
    return _ModeTerms(rq, weighted, pn(1, rq), float(np.sum(wq / rq**3)))


def _period_integrals(orbit: PeriodicSolution, ns) -> tuple[float, list[float]]:
    """Int_0^T 1/R*^3 and each order's proliferation integral, memoized on
    the orbit: the trapezoid rule (weights T/M) on a collocated orbit's M
    node radii, else one Gauss panel per stored step."""
    memo = orbit._mode_memo
    if "period" not in memo:
        rq, T = orbit.node_radii, orbit.period
        if rq.size:
            h = T / rq.size
            memo["period"] = _mode_terms(orbit, np.arange(rq.size) * h, h, rq)
        else:
            tq, wq = gauss_nodes(orbit.times)
            memo["period"] = _mode_terms(orbit, tq, wq, orbit(tq))
    terms = memo["period"]
    return terms.tension, terms.integrals(ns)


def _window_integrals(orbit: PeriodicSolution, tau: float, n: int) -> tuple[float, float]:
    """The same two integrals of order n over [0, tau), on 256 Gauss panels.
    A missing order is reduced in one pass with every higher order the period
    memo holds, so a study's later orders hit.  Only the latest window is
    kept, so the memo stays bounded."""
    memo = orbit._mode_memo
    kept, terms = memo.get("window", (None, None))
    if kept != tau:
        tq, wq = gauss_nodes(np.linspace(0.0, tau, 257))
        terms = _mode_terms(orbit, tq, wq, orbit(tq))
        memo["window"] = (tau, terms)
    if n not in terms.prolif:
        terms.integrals(range(n, max(n, *memo["period"].prolif) + 1))
    return terms.tension, terms.prolif[n]


def _curvature_part(params: ModelParams, n: int, tension: float) -> float:
    """gamma * n(n(n+1)/2 - 1) times Int 1/R*^3."""
    return params.gamma * (n * (n * (n + 1) / 2.0 - 1.0)) * tension


def _threshold(params: ModelParams, n: int, tension: float, prolif: float) -> float:
    return _curvature_part(params, n, tension) / prolif


def _exponent(orbit: PeriodicSolution, n: int, tension: float, prolif: float) -> ModeExponent:
    T = orbit.period
    lam = (_curvature_part(orbit.params, n, tension) - orbit.params.mu * prolif) / T
    return ModeExponent(mode=n, lambda_bar=lam, floquet_multiplier=math.exp(-lam * T))


def theta_n(orbit: PeriodicSolution, n: int) -> float:
    """Threshold theta_n: mode n decays iff mu < theta_n (n >= 2)."""
    n = _check_order(n)
    if n < 2:
        raise ValueError("theta_n is defined for n >= 2 (theta_0 = theta_1 = infinity)")
    tension, (prolif,) = _period_integrals(orbit, [n])
    return _threshold(orbit.params, n, tension, prolif)


def mode_exponent(orbit: PeriodicSolution, n: int) -> ModeExponent:
    """Period-averaged decay rate Lambda_n of mode n on this orbit, at the
    orbit's own mu.  Lambda_1 is exactly zero (translation modes are
    neutral)."""
    n = _check_order(n)
    tension, (prolif,) = _period_integrals(orbit, [n])
    return _exponent(orbit, n, tension, prolif)


def mu_star(params: ModelParams) -> float:
    """Self-consistent critical proliferation coefficient: the root of
    mu = theta_2(orbit(mu)), to relative accuracy 1e-9.

    theta_2 on the orbit at params.mu (the per-mu classification) is
    ``theta_n(orbit, 2)``, which ``analyze`` reports as ``thresholds[0]``;
    the two coincide for a constant nutrient supply, where the orbit is
    mu-independent.
    """

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
            return find_root(h, prev[0], mu_try, prev[1], h_try, xtol=1e-12, rtol=1e-9)
        prev = (mu_try, h_try)
    raise NoPeriodicSolutionError("self-consistent mu_star not bracketed in [1e-6, 1e6]")


def evolve_mode(
    orbit: PeriodicSolution, n: int, m: int, rho0: float, t: float
) -> float:
    """Amplitude rho_nm(t) of surface mode (n, m); independent of m.

    Whole periods use the exponent Lambda_n memoized on the orbit; the
    fractional remainder is integrated by composite Gauss-Legendre on the
    dense orbit, with the latest remainder's node terms memoized too.
    """
    n, m = _check_mode(n, m)
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    T = orbit.period
    k = int(math.floor(t / T))
    tau = t - k * T
    lam = mode_exponent(orbit, n).lambda_bar
    integral = k * lam * T
    if tau > 0.0:
        params = orbit.params
        tension, prolif = _window_integrals(orbit, tau, n)
        integral += _curvature_part(params, n, tension) - params.mu * prolif
    prefactor = (orbit.R_star0 / orbit(t)) ** (n - 1)
    return rho0 * prefactor * math.exp(-integral)


@dataclass
class DecayBoundReport:
    """Check of the cubic-in-n decay floor Lambda_n >= delta * (n^3 + 1)."""

    theta2: float
    delta_hat: float
    candidate_floor: float
    per_mode: list[tuple[int, float]]
    nonpositive_modes: list[int]
    ok: bool


def mode_decay_bound_check(orbit: PeriodicSolution, n_range=range(2, 33)) -> DecayBoundReport:
    """Verify min_n Lambda_n/(n^3+1) clears the analytic floor
    (mu/theta2)(theta2/mu - 1) * gamma / (4 R_max^3), up to 5%, at the
    orbit's own mu."""
    mu = orbit.params.mu
    ns = [_check_order(n) for n in n_range]
    tension, prolif = _period_integrals(orbit, [2, *ns])
    theta2 = _threshold(orbit.params, 2, tension, prolif[0])
    if mu >= theta2:
        raise ValueError("decay bound check requires the stable regime mu < theta_2")
    per_mode = []
    nonpositive = []
    for n, p in zip(ns, prolif[1:]):
        lam = _exponent(orbit, n, tension, p).lambda_bar
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
    ok = not nonpositive and delta_hat >= 0.95 * floor
    return DecayBoundReport(
        theta2=theta2,
        delta_hat=delta_hat,
        candidate_floor=floor,
        per_mode=per_mode,
        nonpositive_modes=nonpositive,
        ok=ok,
    )


@dataclass
class StabilityReport:
    orbit: PeriodicSolution
    thresholds: np.ndarray        # theta_n for n = 2..n_max
    exponents: list[ModeExponent]  # n = 0..n_max
    verdict: Verdict


def analyze(params: ModelParams, n_max: int = DEFAULT_N_MAX) -> StabilityReport:
    """Full per-mode stability report at the given parameters (n_max >= 2)."""
    n_max = _check_order(n_max)
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max!r}")
    orbit = find_periodic(params)
    tension, prolif = _period_integrals(orbit, range(n_max + 1))
    thresholds = np.array(
        [_threshold(params, n, tension, prolif[n]) for n in range(2, n_max + 1)]
    )
    exponents = [_exponent(orbit, n, tension, p) for n, p in enumerate(prolif)]
    return StabilityReport(
        orbit=orbit,
        thresholds=thresholds,
        exponents=exponents,
        verdict=classify_stability(params.mu, thresholds[0]),
    )
