"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a PASS line (visible with pytest -s or on failure) so the
suite doubles as a checklist.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from tumordyn import (
    Classification,
    ConstantSchedule,
    FourierSchedule,
    ModelParams,
    SinusoidSchedule,
    boundary_derivatives,
    bracket,
    classify_radial,
    convergence_rate,
    evolve_mode,
    extinction_diagnostics,
    find_periodic,
    integrate,
    mode_decay_bound_check,
    mode_exponent,
    mu_star,
    p0,
    p_star,
    pn,
    pn_derivative,
    poincare_map,
    sigma_star,
    spherical_harmonic,
    theta_n,
)
from tumordyn.cli import main as cli_main


def test_criterion_1_special_functions():
    r = np.logspace(-4, 3, 200)
    vals = np.array([pn(n, r) for n in range(0, 21)])
    for n in range(0, 21):
        assert np.all(vals[n] > 0.0)
        assert np.all(vals[n] <= 1.0 / (2 * n + 3) + 1e-15)
        assert np.all(np.diff(vals[n]) < 0.0)
    assert np.all(vals[:-1] > vals[1:])
    identity = p0(r) * (r**2 * pn(1, r) + 3.0) - 1.0
    assert np.max(np.abs(identity)) <= 1e-11
    h = 1e-5
    for n in (0, 3, 10, 20):
        for x in (0.01, 0.5, 3.0, 50.0):
            fd = (pn(n, x + h) - pn(n, x - h)) / (2 * h)
            assert pn_derivative(n, x) == pytest.approx(fd, rel=1e-6, abs=1e-9)
    print("PASS criterion 1: special-function bounds, monotonicity, identity, derivative")


def test_criterion_2_radial_classification(sinusoid, default_params):
    for sigma in (1.0, 1.2):
        params = replace(default_params, sigma_tilde=sigma)
        assert classify_radial(params) is Classification.EXTINCTION
        report = extinction_diagnostics(params, integrate(params, 1.0, 200 * params.period))
        assert report.nonincreasing_ok, report.violations
        if sigma == 1.0:
            # borderline case decays slowly but measurably
            assert report.period_radii[-1] / report.period_radii[0] < 0.5
    assert classify_radial(default_params) is Classification.PERSISTENCE
    traj = integrate(default_params, 1.0, 50.0)
    assert traj.radii[-1] > 1.0  # persists near the orbit, no decay
    print("PASS criterion 2: extinction for sigma >= mean, persistence below")


def test_criterion_3_periodic_orbit(default_params, default_orbit, constant_params, constant_orbit):
    assert default_orbit.residual <= 1e-11
    lo, hi = bracket(default_params)
    assert lo <= default_orbit.R_star0 <= hi
    grid = np.linspace(lo / 2.0, 2.0 * hi, 80)
    signs = np.sign([poincare_map(default_params, float(x)) - float(x) for x in grid])
    assert np.count_nonzero(np.diff(signs)) == 1
    target = constant_params.sigma_tilde / (3.0 * constant_params.schedule.mean)
    assert p0(constant_orbit.R_star0) == pytest.approx(target, abs=1e-10)
    print("PASS criterion 3: orbit residual, bracket, uniqueness, autonomous limit")


def test_criterion_4_exponential_attraction(default_orbit):
    for factor in (0.5, 2.0):
        fit = convergence_rate(default_orbit, factor * default_orbit.R_star0, 180, burn_in=40)
        assert fit.n_periods_used >= 10
        assert fit.r_squared >= 0.999
        assert fit.delta_hat >= 0.95 * fit.delta_bound
    print("PASS criterion 4: linear log-decay fit beats the analytic contraction bound")


def test_criterion_5_mode_structure(default_params, default_orbit):
    assert abs(mode_exponent(default_orbit, 1).lambda_bar) <= 1e-11
    for mu in (0.1, 1.0, 10.0):
        orbit = find_periodic(replace(default_params, mu=mu))
        assert mode_exponent(orbit, 0).lambda_bar > 0.0
    thetas = [theta_n(default_orbit, n) for n in range(2, 33)]
    assert all(b > a for a, b in zip(thetas, thetas[1:]))
    # sign equivalence on a 7-point mu grid genuinely straddling the flip
    # (at sigma_tilde = 0.5 the per-mu threshold sits near mu ~ 0.426)
    low_sigma = replace(default_params, sigma_tilde=0.5)
    flipped = 0
    for mu in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 1.0):
        orbit = find_periodic(replace(low_sigma, mu=mu))
        lam2 = mode_exponent(orbit, 2).lambda_bar
        th2 = theta_n(orbit, 2)
        assert (lam2 > 0.0) == (mu < th2)
        flipped += mu > th2
    assert 0 < flipped < 7
    print("PASS criterion 5: Lambda_1 = 0, Lambda_0 > 0, thresholds increase, sign equivalence")


def test_criterion_6_cubic_decay_floor(default_orbit):
    # the default orbit is stable at its own mu = 1 (theta_2 ~ 64.05)
    report = mode_decay_bound_check(default_orbit, n_range=range(2, 33))
    assert not report.nonpositive_modes
    assert report.delta_hat >= 0.95 * report.candidate_floor
    print("PASS criterion 6: min Lambda_n/(n^3+1) clears the analytic floor")


def test_criterion_7_field_verification(default_orbit):
    params = default_orbit.params
    phases = np.linspace(0.0, 1.0, 64, endpoint=False)
    for t in phases:
        t = float(t)
        R = default_orbit(t)
        assert sigma_star(default_orbit, R, t) == pytest.approx(
            params.schedule(t), rel=1e-13
        )
        assert p_star(default_orbit, R, t) == pytest.approx(params.gamma / R, rel=1e-12)
    # closed-form boundary derivatives vs one-sided finite differences
    h = 1e-4
    for t in (0.0, 0.25, 0.5, 0.75):
        R = default_orbit(t)
        bd = boundary_derivatives(default_orbit, t)
        for f, d1_ref, d2_ref in (
            (lambda r: sigma_star(default_orbit, r, t), bd.dsigma_dr, bd.d2sigma_dr2),
            (lambda r: p_star(default_orbit, r, t), bd.dp_dr, bd.d2p_dr2),
        ):
            d1 = (3 * f(R) - 4 * f(R - h) + f(R - 2 * h)) / (2 * h)
            d2 = (2 * f(R) - 5 * f(R - h) + 4 * f(R - 2 * h) - f(R - 3 * h)) / h**2
            assert d1 == pytest.approx(d1_ref, rel=1e-5, abs=1e-7)
            assert d2 == pytest.approx(d2_ref, rel=1e-5, abs=1e-6)
    # interior equations: Lap(sigma) = sigma and -Lap(p) = mu (sigma - sigma_tilde)
    hh = 1e-4
    for t in (0.1, 0.6):
        R = default_orbit(t)
        for frac in (0.25, 0.5, 0.8):
            r = frac * R
            for f, target in (
                (
                    lambda x: sigma_star(default_orbit, x, t),
                    sigma_star(default_orbit, r, t),
                ),
                (
                    lambda x: -p_star(default_orbit, x, t),
                    params.mu * (sigma_star(default_orbit, r, t) - params.sigma_tilde),
                ),
            ):
                lap = (f(r + hh) - 2 * f(r) + f(r - hh)) / hh**2 + (
                    f(r + hh) - f(r - hh)
                ) / (hh * r)
                assert abs(lap - target) <= 1e-6
    print("PASS criterion 7: boundary values exact, derivatives and interior equations match")


def test_criterion_8_consistency(default_orbit):
    T = default_orbit.period
    for n in (0, 2, 3, 5):
        lam = mode_exponent(default_orbit, n).lambda_bar
        for k in range(1, 21):
            got = evolve_mode(default_orbit, n, 0, 1.0, k * T)
            assert got == pytest.approx(math.exp(-lam * k * T), rel=1e-9)
    x, w = np.polynomial.legendre.leggauss(32)
    theta = np.arccos(x)
    phi = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    wt = w[:, None] * (2.0 * math.pi / 64.0)
    modes = [(n, m) for n in range(0, 9) for m in range(-n, n + 1)]
    vals = {nm: spherical_harmonic(nm[0], nm[1], th, ph) for nm in modes}
    for i, a in enumerate(modes):
        for b in modes[i:]:
            inner = np.sum(wt * vals[a] * np.conj(vals[b]))
            assert abs(inner - (1.0 if a == b else 0.0)) <= 1e-10
    print("PASS criterion 8: mode-evolution envelope and harmonic orthonormality")


def test_criterion_9_cli_determinism(tmp_path):
    cfg = {
        "version": 1,
        "params": {"mu": 1.0, "sigma_tilde": 0.9, "gamma": 1.0},
        "schedule": {"form": "sinusoid", "period": 1.0, "mean": 1.0, "amplitude": 0.5},
        "sweep": {
            "mu_grid": [0.1, 0.3, 0.5, 1.0],
            "sigma_grid": [0.5, 0.9, 1.0, 1.1],
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out2)]) == 0
    b1 = (out1 / "sweep.csv").read_bytes()
    assert b1 == (out2 / "sweep.csv").read_bytes()

    rows = [line.split(",") for line in b1.decode().splitlines()[1:]]
    by = {(float(r[0]), float(r[1])): r[2] for r in rows}
    # sigma sweep flips to Extinction exactly at the mean-supply crossing
    for mu in (0.1, 0.3, 0.5, 1.0):
        assert by[(mu, 0.9)] in ("LinearlyStable", "LinearlyUnstable")
        assert by[(mu, 1.0)] == "Extinction"
        assert by[(mu, 1.1)] == "Extinction"
    # mu sweep flips at the theta_2 crossing (~0.426 at sigma = 0.5)
    assert by[(0.1, 0.5)] == "LinearlyStable"
    assert by[(0.3, 0.5)] == "LinearlyStable"
    assert by[(0.5, 0.5)] == "LinearlyUnstable"
    assert by[(1.0, 0.5)] == "LinearlyUnstable"
    print("PASS criterion 9: byte-identical sweeps and correct verdict flips")


@pytest.mark.parametrize("schedule", [
    SinusoidSchedule(period=1.0, mean_level=1.0, amplitude=0.5),
    FourierSchedule(period=1.0, mean_level=1.0, cos_coeffs=(0.25, 0.08), sin_coeffs=(0.15, -0.05)),
    ConstantSchedule(period=1.0, value=1.0),
], ids=["sinusoid", "fourier", "constant"])
def test_criterion_10_single_mu_star_crossing(schedule):
    # sigma_tilde = 0.45 < Phi_min: mu - theta_2(orbit(mu)) changes sign once
    # on a quarter-decade walk, and mu_star is that root
    params = ModelParams(mu=1.0, sigma_tilde=0.45, gamma=1.0, schedule=schedule)
    assert params.sigma_tilde < schedule.minimum
    mus = 10.0 ** (np.arange(-12, 13) / 4.0)
    orbits = [find_periodic(replace(params, mu=mu)) for mu in mus]
    assert {orbit.method for orbit in orbits} == {"collocation"}
    h = mus - np.array([theta_n(orbit, 2) for orbit in orbits])
    changes = np.flatnonzero(np.sign(h[:-1]) != np.sign(h[1:]))
    assert changes.size == 1 and h[changes[0]] < 0.0 < h[changes[0] + 1]
    root = mu_star(params)
    assert mus[changes[0]] < root < mus[changes[0] + 1]
    assert abs(root - theta_n(find_periodic(replace(params, mu=root)), 2)) <= 1e-9 * root
    print(f"PASS criterion 10: one sign change of mu - theta_2, mu_star = {root:.6g}")
