"""The model's exact scalings as oracle-free checks at any parameter.

For c > 0 each transformation maps the problem to one with a known answer:

(a) time, (mu, gamma, T, Phi(t)) -> (c mu, c gamma, T/c, Phi(ct)): R*(0) and
    Lambda_n T are unchanged and theta_2 scales by c;
(b) supply, (Phi, sigma~, mu) -> (c Phi, c sigma~, mu/c): R*(0) and
    Lambda_n T are unchanged and theta_2 scales by 1/c;
(c) tension, gamma -> c gamma: R* is unchanged (gamma is not in the radius
    equation) and theta_2 scales by c; Lambda_n T is not invariant.
(d) phase, Phi(t) -> Phi(t + s): R*(t) -> R*(t + s), and theta_2, Lambda_n T
    and mu_star are unchanged.  With s = T/4 the Fourier coefficients rotate
    by exact quarter turns, and s is the node M/4 of every M from 32 to 256,
    so the shifted orbit's R*(0) is the unshifted node value there.

Bound.  The scaled problem differs from the original only by rounding: each
input and each operation adds at most u = 2^-53 relative, a few u per
collocation equation.  A perturbation of the equations reaches R* through the
periodic Green's function of the linearised radius equation, which carries
the factor 1/(1 - F'), F' = exp(-Lambda_0 T) the orbit's Floquet multiplier.
The integrands of theta_2 and Lambda_n T move by at most 3 times R*'s
relative change: R^-3 by 3, and R^2 P0 (P1 - Pn), whose log-derivative in R
lies in (-1, 2) for n = 2, 5 and R in [0.01, 100].  Allowing 4u per equation and rounding 12 up to
16 for the sums' own roundoff gives 16u/(1 - F') for R*(0) and theta_2.
mu_star is the root of mu - theta_2(mu), so a relative change e of theta_2
moves it by e/|1 - dlog theta_2/dlog mu|, with F' taken on the orbit at mu_star.
Lambda_n T = I_n (theta_n - mu), with I_n > 0 the proliferation integral, also
carries the cancellation factor (theta_n + mu)/|theta_n - mu|.  At F' = 0.885
(mu = 1, sigma~ = 0.5) the bound is 1.5e-14; the largest gap measured over
480 draws of c, on these orbits, was 1.3e-15.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tumordyn import FourierSchedule, ModelParams, SinusoidSchedule, find_periodic, mode_exponent, mu_star, theta_n

U = 2.0**-53
MODES = (2, 5)
QUARTER_TURNS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))  # (cos, sin) of k pi/2


def _schedule(form, period, scale):
    if form == "sinusoid":
        return SinusoidSchedule(period=period, mean_level=scale, amplitude=0.5 * scale)
    return FourierSchedule(
        period=period,
        mean_level=scale,
        cos_coeffs=(0.25 * scale, 0.08 * scale),
        sin_coeffs=(0.15 * scale, -0.05 * scale),
    )


def _quarter_shifted(form, period):
    """_schedule(form, period, 1)(t + period/4) as a FourierSchedule: harmonic k
    turns by k quarter turns, cos and sin 0 or +-1, so no coefficient rounds."""
    if form == "sinusoid":
        cos, sin = (0.0,), (0.5,)
    else:
        base = _schedule(form, period, 1.0)
        cos, sin = base.cos_coeffs, base.sin_coeffs
    cos_k, sin_k = [], []
    for k, (a, b) in enumerate(zip(cos, sin), start=1):
        c, s = QUARTER_TURNS[k % 4]
        cos_k.append(a * c + b * s)
        sin_k.append(b * c - a * s)
    return FourierSchedule(period=period, mean_level=1.0, cos_coeffs=tuple(cos_k), sin_coeffs=tuple(sin_k))


def _solve(form, mu, sigma_tilde, gamma, period=1.0, scale=1.0):
    """(orbit, R*(0), theta_2, {n: Lambda_n T}) on a collocated orbit."""
    orbit = find_periodic(
        ModelParams(mu=mu, sigma_tilde=sigma_tilde, gamma=gamma, schedule=_schedule(form, period, scale))
    )
    assert orbit.method == "collocation"
    return orbit, orbit.R_star0, theta_n(orbit, 2), {n: mode_exponent(orbit, n).lambda_bar * period for n in MODES}


def _bound(orbit):
    """16u/(1 - F') with F' = exp(-Lambda_0 T) (module docstring)."""
    return 16.0 * U / -math.expm1(-mode_exponent(orbit, 0).lambda_bar * orbit.period)


def _gap(got, want):
    return abs(got / want - 1.0)


FORMS = pytest.mark.parametrize("form", ["sinusoid", "fourier"])
BASES = pytest.mark.parametrize("mu, sigma_tilde", [(1.0, 0.5), (3.0, 0.3)])
FACTORS = given(c=st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e))
DRAWS = settings(max_examples=25, deadline=None)


def _check_invariants(base, scaled, theta_factor):
    orbit, r0, theta2, lam_t = base
    _, r0_c, theta2_c, lam_t_c = scaled
    bound = _bound(orbit)
    assert _gap(r0_c, r0) <= bound
    assert _gap(theta2_c, theta_factor * theta2) <= bound
    for n in MODES:
        theta = theta_n(orbit, n)
        mu = orbit.params.mu
        assert _gap(lam_t_c[n], lam_t[n]) <= bound * (theta + mu) / abs(theta - mu), n


@FORMS
@BASES
@DRAWS
@FACTORS
def test_time_scaling(form, mu, sigma_tilde, c):
    base = _solve(form, mu, sigma_tilde, 1.0)
    _check_invariants(base, _solve(form, c * mu, sigma_tilde, c, period=1.0 / c), c)


@FORMS
@BASES
@DRAWS
@FACTORS
def test_supply_scaling(form, mu, sigma_tilde, c):
    base = _solve(form, mu, sigma_tilde, 1.0)
    _check_invariants(base, _solve(form, mu / c, c * sigma_tilde, 1.0, scale=c), 1.0 / c)


@FORMS
@BASES
@DRAWS
@FACTORS
def test_tension_scaling(form, mu, sigma_tilde, c):
    orbit, r0, theta2, _ = _solve(form, mu, sigma_tilde, 1.0)
    _, r0_c, theta2_c, _ = _solve(form, mu, sigma_tilde, c)
    assert r0_c == r0
    assert _gap(theta2_c, c * theta2) <= _bound(orbit)


@FORMS
@BASES
def test_quarter_period_phase_shift(form, mu, sigma_tilde):
    orbit, _, theta2, lam_t = _solve(form, mu, sigma_tilde, 1.0)
    params = replace(orbit.params, schedule=_quarter_shifted(form, 1.0))
    shifted = find_periodic(params)
    assert shifted.method == "collocation"
    # R*(T/4) is the unshifted orbit's node M/4; T = 1
    at_quarter = orbit.node_radii[orbit.node_radii.size // 4]
    lam_shifted = {n: mode_exponent(shifted, n).lambda_bar for n in MODES}
    _check_invariants(
        (orbit, at_quarter, theta2, lam_t), (shifted, shifted.R_star0, theta_n(shifted, 2), lam_shifted), 1.0
    )

    root = mu_star(orbit.params)
    at_root = find_periodic(replace(orbit.params, mu=root))
    h = 1e-4
    log_slope = math.log(
        theta_n(find_periodic(replace(orbit.params, mu=root * (1.0 + h))), 2)
        / theta_n(find_periodic(replace(orbit.params, mu=root * (1.0 - h))), 2)
    ) / math.log((1.0 + h) / (1.0 - h))
    assert _gap(mu_star(params), root) <= _bound(at_root) / abs(1.0 - log_slope)
