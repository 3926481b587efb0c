"""Radial nutrient/pressure fields on the periodic orbit and surface modes.

sigma*(r,t) = Phi(t) * (R*/sinh R*) * (sinh r / r) and the quadratic-in-r
pressure profile are evaluated in closed form; sinh ratios are computed in
log space so large radii do not overflow.  Spherical harmonics follow the
orthonormal convention with the (-1)^m Condon-Shortley factor absorbed in
the associated Legendre recurrence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import stability
from .errors import SolverError
from .periodic import PeriodicSolution
from .radial import rhs
from .specfun import _check_mode, p0, pn


def _sinh_ratio(r: float, R: float) -> float:
    """sinh(r)/r divided by sinh(R)/R, overflow-free."""
    num = 2.0 if r == 0.0 else -math.expm1(-2.0 * r) / r
    den = -math.expm1(-2.0 * R) / R
    return math.exp(r - R) * num / den


def _check_radius(r: float, R: float):
    if not 0.0 <= r <= R * (1.0 + 1e-12):
        raise ValueError(f"radius r={r} outside [0, R*(t)={R}]")


def sigma_star(orbit: PeriodicSolution, r: float, t: float) -> float:
    """Periodic nutrient field; equals Phi(t) on the moving boundary."""
    R = orbit(t)
    _check_radius(r, R)
    return orbit.params.schedule(t) * _sinh_ratio(min(r, R), R)


def p_star(orbit: PeriodicSolution, r: float, t: float) -> float:
    """Periodic pressure field; equals gamma/R*(t) on the moving boundary."""
    R = orbit(t)
    _check_radius(r, R)
    params = orbit.params
    phi = params.schedule(t)
    sigma = phi * _sinh_ratio(min(r, R), R)
    return (
        params.mu * params.sigma_tilde * r * r / 6.0
        - params.mu * sigma
        + params.gamma / R
        - params.mu * params.sigma_tilde * R * R / 6.0
        + params.mu * phi
    )


@dataclass(frozen=True)
class BoundaryDerivatives:
    dsigma_dr: float
    d2sigma_dr2: float
    dp_dr: float
    d2p_dr2: float


def boundary_derivatives(orbit: PeriodicSolution, t: float) -> BoundaryDerivatives:
    """Closed-form radial derivatives of sigma* and p* at r = R*(t)."""
    params = orbit.params
    R = orbit(t)
    phi = params.schedule(t)
    p0R = p0(R)
    p1R = pn(1, R)
    dRdt = rhs(params, t, R)
    return BoundaryDerivatives(
        dsigma_dr=phi * R * p0R,
        d2sigma_dr2=phi * (1.0 - 2.0 * p0R),
        dp_dr=-dRdt,
        d2p_dr2=-dRdt / R - params.mu * phi * R * R * p0R * p1R,
    )


def _legendre_norm(n: int, m: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal associated Legendre N_n^m (m >= 0), Condon-Shortley phase,
    normalized so that Y_nm = N_n^m(cos theta) * exp(i m phi)."""
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    p_mm = np.full_like(np.asarray(x, dtype=float), math.sqrt(0.25 / math.pi))
    for k in range(1, m + 1):
        p_mm = -math.sqrt((2.0 * k + 1.0) / (2.0 * k)) * s * p_mm
    if n == m:
        return p_mm
    p_prev = p_mm
    p_cur = math.sqrt(2.0 * m + 3.0) * x * p_mm
    for k in range(m + 2, n + 1):
        a = math.sqrt((4.0 * k * k - 1.0) / (k * k - m * m))
        b = math.sqrt(((k - 1.0) ** 2 - m * m) / (4.0 * (k - 1.0) ** 2 - 1.0))
        p_cur, p_prev = a * (x * p_cur - b * p_prev), p_cur
    return p_cur


def spherical_harmonic(n: int, m: int, theta, phi):
    """Orthonormal Y_nm(theta, phi); Y_{n,-m} = (-1)^m * conj(Y_{n,m})."""
    n, m = _check_mode(n, m)
    theta_arr = np.asarray(theta, dtype=float)
    phi_arr = np.asarray(phi, dtype=float)
    if np.any(theta_arr < -1e-12) or np.any(theta_arr > math.pi + 1e-12):
        raise ValueError("theta must lie in [0, pi]")
    k = abs(m)
    legendre = _legendre_norm(n, k, np.cos(theta_arr))
    val = legendre * np.exp(1j * k * phi_arr)
    if m < 0:
        val = (-1.0) ** k * np.conj(val)
    if np.isscalar(theta) and np.isscalar(phi):
        return complex(val)
    return val


def perturbed_surface(
    orbit: PeriodicSolution,
    modes,
    epsilon: float,
    t: float,
    thetas,
    phis,
) -> np.ndarray:
    """First-order perturbed boundary radius r(theta, phi) at time t.

    modes is an iterable of (n, m, initial_amplitude); amplitudes are evolved
    to time t with the mode dynamics (SolverError if one is not finite) before
    the harmonics are summed.  The real part of the harmonic sum is exported.
    """
    modes = [(*_check_mode(n, m), rho0) for n, m, rho0 in modes]
    th = np.asarray(thetas, dtype=float).reshape(-1, 1)
    ph = np.asarray(phis, dtype=float).reshape(1, -1)
    base = orbit(t)
    total = np.zeros((th.size, ph.size), dtype=complex)
    for n, m, rho0 in modes:
        amp = stability.evolve_mode(orbit, n, m, rho0, t)
        if not math.isfinite(amp):
            raise SolverError(f"the amplitude of mode (n, m) = ({n}, {m}) at t = {t:g} is not finite")
        total += amp * spherical_harmonic(n, m, th, ph)
    deviation = epsilon * np.real(total)
    if deviation.size and np.max(np.abs(deviation)) > 0.1 * orbit.R_min:
        warnings.warn(
            "perturbation exceeds 10% of the minimum orbit radius; "
            "the first-order expansion may be inaccurate",
            stacklevel=2,
        )
    return base + deviation
