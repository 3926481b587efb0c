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
integrands: Trefethen & Weideman, SIAM Review 56, 2014).  Every other
integral, a shot orbit's period and each fractional window [0, tau), takes
one Gauss-Legendre panel (``gauss_nodes``) per piece of the dense solve:
its steps, split at the schedule's breakpoints, so that on each panel R* is
one quartic and Phi one smooth formula.  The 8-node rule is a table of
correctly rounded constants (Golub & Welsch, Math. Comp. 23, 1969; Abramowitz
& Stegun, Table 25.4), so no integral calls LAPACK.  Node terms and integrals
are memoized on the orbit: the whole period, each order once, and the latest
window ``evolve_mode`` asked for (first pass: n to max(2n, n + 64)).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SolverError
from .periodic import PeriodicSolution, find_periodic
from .radial import ModelParams
from .roots import find_root
from .specfun import _check_mode, _check_order, _ratios, pn

DEFAULT_N_MAX = 32
MARGINAL_BAND = 1e-8
_BLOCK_ROWS = 64  # orders reduced by one row-wise sum


class Verdict(enum.Enum):
    LINEARLY_STABLE = "LinearlyStable"
    LINEARLY_UNSTABLE = "LinearlyUnstable"
    MARGINAL = "Marginal"


@dataclass(frozen=True)
class ModeExponent:
    """Lambda_n and exp(-Lambda_n T), which is math.inf past the float range."""

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
    prolif[1] is 0 exactly, as P1 - P1 is, whatever depth a pass starts from.
    """

    radii: np.ndarray
    weighted: np.ndarray
    p1: np.ndarray
    tension: float
    prolif: dict[int, float] = field(default_factory=lambda: {1: 0.0})

    def integrals(self, ns) -> list[float]:
        """prolif[n] for each n of ns.  Missing orders come from one backward
        pass, _BLOCK_ROWS rows to a row-wise sum (each row its own sum's bits)."""
        missing = [n for n in ns if n not in self.prolif]
        if missing:
            hi, lo = max(missing), min(missing)
            block = np.empty((min(hi - lo + 1, _BLOCK_ROWS), self.radii.size))
            for n, pnq in zip(range(hi, lo - 1, -1), _ratios(hi, lo, self.radii)):
                k = (hi - n) % len(block)  # row k holds order n, row 0 order n + k
                block[k] = pnq
                if k == len(block) - 1 or n == lo:
                    rows = block[: k + 1]
                    np.multiply(self.weighted, np.subtract(self.p1, rows, out=rows), out=rows)
                    for m, total in zip(range(n + k, n - 1, -1), rows.sum(axis=1).tolist()):
                        self.prolif.setdefault(m, total)
        return [self.prolif[n] for n in ns]


# The positive roots x of P_8 and their weights 2/((1 - x^2) P_8'(x)^2), each
# correctly rounded; the rule on [-1, 1] mirrors them.
_GAUSS_X = (0.1834346424956498, 0.525532409916329, 0.7966664774136267, 0.9602898564975363)
_GAUSS_W = (0.362683783378362, 0.31370664587788727, 0.22238103445337448, 0.10122853629037626)


def gauss_nodes(edges) -> tuple[np.ndarray, np.ndarray]:
    """Composite 8-node Gauss-Legendre nodes and weights on the intervals
    between consecutive edges; the weights sum to edges[-1] - edges[0]."""
    x = np.array([-v for v in reversed(_GAUSS_X)] + list(_GAUSS_X))
    w = np.array(_GAUSS_W[::-1] + _GAUSS_W)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def _mode_terms(orbit: PeriodicSolution, tq, wq, rq) -> _ModeTerms:
    """Mode terms on nodes tq with weights wq and radii rq = R*(tq)."""
    weighted = wq * orbit.params.schedule(tq) * rq**2 * pn(0, rq)
    return _ModeTerms(rq, weighted, pn(1, rq), float(np.sum(wq / rq**3)))


def _piece_terms(orbit: PeriodicSolution, tau: float) -> _ModeTerms:
    """Mode terms on [0, tau], tau <= T, one Gauss panel per piece: the
    dense solve's steps split at the schedule's breakpoints."""
    ends = orbit._interp.ts  # ends[0] = 0.0, ends[-1] = T
    kinks = [b for b in orbit.params.schedule.breakpoints if b < tau]
    # a kink on a step end would add one empty panel, of weight 0
    tq, wq = gauss_nodes(np.sort(np.append(ends[: np.searchsorted(ends, tau)], [*kinks, tau])))
    return _mode_terms(orbit, tq, wq, orbit(tq))


def _period_integrals(orbit: PeriodicSolution, ns) -> tuple[float, list[float]]:
    """Int_0^T 1/R*^3 and each order's proliferation integral, memoized on
    the orbit: the trapezoid rule (weights T/M) on a collocated orbit's M
    node radii, else one Gauss panel per piece (``_piece_terms``)."""
    memo = orbit._mode_memo
    if "period" not in memo:
        rq, T = orbit.node_radii, orbit.period
        if rq.size:
            h = T / rq.size
            memo["period"] = _mode_terms(orbit, np.arange(rq.size) * h, h, rq)
        else:
            memo["period"] = _piece_terms(orbit, T)
    terms = memo["period"]
    return terms.tension, terms.integrals(ns)


def _window_integrals(orbit: PeriodicSolution, tau: float, n: int) -> tuple[float, float]:
    """The same two integrals of order n over [0, tau) (``_piece_terms``).
    A missing order is reduced in one pass with the higher orders the period
    memo holds, up to max(2n, n + 64), so a study's later orders hit and a
    large period memo costs no more.  Only the latest window is kept, so the
    memo stays bounded."""
    memo = orbit._mode_memo
    kept, terms = memo.get("window", (None, None))
    if kept != tau:
        terms = _piece_terms(orbit, tau)
        memo["window"] = (tau, terms)
    if n not in terms.prolif:
        top = min(max(n, *memo["period"].prolif), max(2 * n, n + 64))
        terms.integrals(range(n, top + 1))
    return terms.tension, terms.prolif[n]


def _curvature_part(params: ModelParams, n: int, tension: float) -> float:
    """gamma * n(n(n+1)/2 - 1) times Int 1/R*^3."""
    return params.gamma * (n * (n * (n + 1) / 2.0 - 1.0)) * tension


def _threshold(params: ModelParams, n: int, tension: float, prolif: float) -> float:
    return _curvature_part(params, n, tension) / prolif


def _exponent_integral(params: ModelParams, n: int, tension: float, prolif: float) -> float:
    return _curvature_part(params, n, tension) - params.mu * prolif


def _lambda(orbit: PeriodicSolution, n: int, tension: float, prolif: float) -> float:
    return _exponent_integral(orbit.params, n, tension, prolif) / orbit.period


def _exponent(orbit: PeriodicSolution, n: int, tension: float, prolif: float) -> ModeExponent:
    lam = _lambda(orbit, n, tension, prolif)
    try:
        multiplier = math.exp(-lam * orbit.period)
    except OverflowError:
        multiplier = math.inf
    return ModeExponent(mode=n, lambda_bar=lam, floquet_multiplier=multiplier)


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
    mu = theta_2(orbit(mu)) to relative accuracy 1e-9, at the first sign
    change of mu - theta_2 from - to + on a decade walk over [1e-6, 1e6]
    (for sigma_tilde > Phi_min a second crossing back can follow).

    theta_2 on the orbit at params.mu (the per-mu classification) is
    ``theta_n(orbit, 2)``, which ``analyze`` reports as ``thresholds[0]``;
    the two coincide for a constant nutrient supply, where the orbit is
    mu-independent.  A walk that brackets no change raises SolverError.
    """

    def h(mu: float) -> float:
        trial = replace(params, mu=mu)
        return mu - theta_n(find_periodic(trial), 2)

    # walk a log grid; large mu can collapse the orbit radius below the
    # representable range, in which case no threshold exists numerically
    prev, stop = None, "no sign change from - to + on the walk"
    for exponent in range(-6, 7):
        mu_try = 10.0**exponent
        try:
            h_try = h(mu_try)
        except (SolverError, ValueError, OverflowError) as exc:
            stop = f"the walk stopped at mu = {mu_try:g}: {exc}"
            break
        if prev is not None and prev[1] < 0.0 <= h_try:
            return find_root(h, prev[0], mu_try, prev[1], h_try, xtol=1e-12, rtol=1e-9)
        prev = (mu_try, h_try)
    last = "no mu was solved" if prev is None else (
        f"mu - theta_2 {'<' if prev[1] < 0.0 else '>='} 0 at mu = {prev[0]:g}, the last mu solved")
    raise SolverError(f"self-consistent mu_star not bracketed in [1e-6, 1e6]: {last}; {stop}")


def evolve_mode(
    orbit: PeriodicSolution, n: int, m: int, rho0: float, t: float
) -> float:
    """Amplitude rho_nm(t) of surface mode (n, m); independent of m.

    Whole periods use Lambda_n from the integrals memoized on the orbit; the
    fractional remainder is integrated by one Gauss-Legendre panel per piece
    of the dense orbit, with the latest remainder's node terms memoized too.
    Past the float range it is inf with rho0's sign (0 for rho0 = 0).
    """
    n, m = _check_mode(n, m)
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    T = orbit.period
    k = int(math.floor(t / T))
    tau = t - k * T
    tension, (prolif,) = _period_integrals(orbit, [n])
    integral = k * _lambda(orbit, n, tension, prolif) * T
    if tau > 0.0:
        integral += _exponent_integral(orbit.params, n, *_window_integrals(orbit, tau, n))
    prefactor = (orbit.R_star0 / orbit(t)) ** (n - 1)
    try:
        return rho0 * prefactor * math.exp(-integral)
    except OverflowError:
        return math.copysign(math.inf, rho0) if rho0 else 0.0


@dataclass
class DecayBoundReport:
    """Check of the cubic-in-n decay floor Lambda_n >= delta * (n^3 + 1)."""

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
        lam = _lambda(orbit, n, tension, p)
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
