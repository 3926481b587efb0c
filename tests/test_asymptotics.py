"""The asymptotic regimes as closed-form oracles.

Averaging (Sanders, Verhulst & Murdock, *Averaging Methods in Nonlinear
Dynamical Systems*, 2007) and the quasi-static limit (O'Malley, *Singular
Perturbation Methods for Ordinary Differential Equations*, 1991) give values
no package numerics produce at the parameter ends.  Each test checks a gap's size and its order: the gap's
ratio between two decades of mu, or between two windows of periods.  All on
Phi = 1 + 0.5 sin 2 pi t with gamma = 1, where x_bar = P0^{-1}(sigma~/3) is
the constant-supply equilibrium at mean Phi.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ive

from tumordyn import ModelParams, SinusoidSchedule, find_periodic, integrate, p0_inverse, pn, theta_n

SINUSOID = SinusoidSchedule(period=1.0, mean_level=1.0, amplitude=0.5)


def _params(mu, sigma_tilde):
    return ModelParams(mu=mu, sigma_tilde=sigma_tilde, gamma=1.0, schedule=SINUSOID)


def _x_bar(sigma_tilde):
    return p0_inverse(sigma_tilde / (3.0 * SINUSOID.mean))


def test_small_mu_orbit_tends_to_equilibrium():
    """mu -> 0: R*(0)/x_bar - 1 is O(mu)."""
    gap = {mu: find_periodic(_params(mu, 0.45)).R_star0 / _x_bar(0.45) - 1.0 for mu in (1e-4, 1e-3)}
    assert gap[1e-4] == pytest.approx(-1.194e-6, rel=1e-3)
    assert gap[1e-3] / gap[1e-4] == pytest.approx(10.0, rel=1e-3)


@pytest.mark.parametrize("sigma_tilde, gap_1e4", [(0.45, 4.83e-12), (0.9, 2.12e-11)])
def test_small_mu_theta2_tends_to_constant_supply(sigma_tilde, gap_1e4):
    """mu -> 0: theta_2 tends to the constant-supply value at mean Phi,
    4 gamma / (x_bar^5 P0 (P1 - P2)) at x_bar, with a relative gap O(mu^2)."""
    x = _x_bar(sigma_tilde)
    limit = 4.0 / (x**5 * pn(0, x) * (pn(1, x) - pn(2, x)))
    gap = {mu: theta_n(find_periodic(_params(mu, sigma_tilde)), 2) / limit - 1.0 for mu in (1e-4, 1e-3)}
    assert gap[1e-4] == pytest.approx(gap_1e4, rel=1e-2)
    assert gap[1e-3] / gap[1e-4] == pytest.approx(100.0, rel=1e-2)


def _bessel_ratio(n, r):
    """P_n(r) = I_{n+3/2}(r) / (r I_{n+1/2}(r)), from scipy's scaled Bessel functions."""
    return ive(n + 1.5, r) / (r * ive(n + 0.5, r))


def _quasi_static_theta2(sigma_tilde):
    """4 gamma Int R_qs^-3 / Int Phi R_qs^2 P0 (P1 - P2) over one period, with
    R_qs = P0^{-1}(sigma~ / (3 Phi)) by brentq and each integral by quad."""
    eps = 2.0**-52

    def phi(t):
        return 1.0 + 0.5 * math.sin(2.0 * math.pi * t)

    def r_qs(t):
        y = sigma_tilde / (3.0 * phi(t))
        return brentq(lambda r: _bessel_ratio(0, r) - y, 1e-3, 1e3, xtol=1e-15, rtol=4.0 * eps)

    def prolif(t):
        r = r_qs(t)
        return phi(t) * r * r * _bessel_ratio(0, r) * (_bessel_ratio(1, r) - _bessel_ratio(2, r))

    tension = quad(lambda t: r_qs(t) ** -3, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return 4.0 * tension / quad(prolif, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def test_large_mu_theta2_tends_to_quasi_static():
    """mu -> infinity with sigma~ < Phi_min: R* tends to the quasi-static orbit
    R_qs, and theta_2 to its quadrature, with a relative gap O(1/mu^2).  Both
    orbits are shot, so theta_2 comes from the Gauss-Legendre panels."""
    limit = _quasi_static_theta2(0.45)
    assert limit == pytest.approx(3.0336849363701767, rel=1e-12)  # mpmath at 20 digits
    gap = {}
    for mu in (3e3, 1e4):
        orbit = find_periodic(_params(mu, 0.45))
        assert orbit.method == "shooting"
        gap[mu] = theta_n(orbit, 2) / limit - 1.0
    assert gap[3e3] == pytest.approx(-1.208e-2, rel=1e-3)
    assert gap[1e4] == pytest.approx(-1.171e-3, rel=1e-3)
    # (10/3)^2 = 11.1 for a pure 1/mu^2 gap; the next order takes 7% of it here
    assert gap[3e3] / gap[1e4] == pytest.approx(10.32, rel=1e-3)
    assert gap[3e3] / gap[1e4] == pytest.approx((1e4 / 3e3) ** 2, rel=0.1)


def test_extinction_rate_tends_to_averaged_deficit():
    """sigma~ > mean Phi: log R(kT)/kT -> mu (mean Phi - sigma~)/3.  The gap
    is the R^2/45 term of P0 = 1/3 - R^2/45 + ..., so it falls as R(kT)^2:
    by exp(2 * rate * 20) between windows 20 periods apart."""
    mu, sigma_tilde = 1.0, 1.2
    rate = mu * (SINUSOID.mean - sigma_tilde) / 3.0
    traj = integrate(_params(mu, sigma_tilde), 1.0, 80.0)

    def slope(k0):
        """Least-squares slope of log R(kT) on k = k0 ... k0 + 20."""
        k = np.arange(k0, k0 + 21.0)
        y = np.log(traj(k))
        kc = k - k.mean()
        return float(np.sum(kc * (y - y.mean())) / np.sum(kc * kc))

    s40, s60 = slope(40), slope(60)
    assert s40 == pytest.approx(-0.066694, abs=1e-6)
    assert s40 - rate == pytest.approx(-2.72e-5, rel=1e-2)
    assert (s60 - rate) / (s40 - rate) == pytest.approx(np.exp(2.0 * rate * 20), rel=1e-2)
