import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tumordyn import (
    NoPeriodicSolutionError,
    Verdict,
    analyze,
    classify_stability,
    convergence_rate,
    evolve_mode,
    find_periodic,
    mode_decay_bound_check,
    mode_exponent,
    mu_star,
    p0,
    pn,
    rhs,
    theta_n,
    stability,
)


class TestThetaN:
    def test_strictly_increasing(self, default_orbit):
        thetas = [theta_n(default_orbit, n) for n in range(2, 33)]
        assert all(b > a for a, b in zip(thetas, thetas[1:]))

    def test_frozen_theta2(self, default_orbit):
        # frozen from a converged run on the default sinusoid orbit
        assert theta_n(default_orbit, 2) == pytest.approx(64.0499443, rel=1e-6)

    def test_low_modes_rejected(self, default_orbit):
        with pytest.raises(ValueError):
            theta_n(default_orbit, 1)
        with pytest.raises(ValueError):
            theta_n(default_orbit, 0)


class TestModeExponent:
    def test_lambda1_exactly_zero(self, default_orbit):
        assert abs(mode_exponent(default_orbit, 1).lambda_bar) <= 1e-11

    def test_lambda0_positive(self, default_params):
        for mu in (0.1, 1.0, 10.0):
            orbit = find_periodic(replace(default_params, mu=mu))
            assert mode_exponent(orbit, 0).lambda_bar > 0.0

    def test_lambda0_is_radial_contraction_rate(self, default_params, default_orbit):
        lam0 = mode_exponent(default_orbit, 0).lambda_bar
        fit = convergence_rate(
            default_params, 1.5 * default_orbit.R_star0, 150, orbit=default_orbit, burn_in=30
        )
        assert fit.delta_hat == pytest.approx(lam0, rel=1e-2)

    def test_multiplier_consistent(self, default_orbit):
        e = mode_exponent(default_orbit, 2)
        assert e.floquet_multiplier == pytest.approx(
            math.exp(-e.lambda_bar * default_orbit.period), rel=1e-14
        )

    def test_sign_equivalence_with_threshold(self, default_params):
        # Lambda_2 > 0 iff mu < theta_2(mu), on a grid straddling the flip
        # (at sigma_tilde = 0.5 the flip sits near mu ~ 0.426)
        params = replace(default_params, sigma_tilde=0.5)
        flipped = 0
        for mu in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 1.0):
            orbit = find_periodic(replace(params, mu=mu))
            lam2 = mode_exponent(orbit, 2).lambda_bar
            th2 = theta_n(orbit, 2)
            assert (lam2 > 0.0) == (mu < th2)
            flipped += mu > th2
        assert 0 < flipped < 7  # the grid genuinely straddles the threshold

    def test_frozen_exponent_on_orbit(self, default_orbit):
        assert mode_exponent(default_orbit, 2).lambda_bar == pytest.approx(
            1.70777, rel=1e-4
        )

    def test_bad_mode(self, default_orbit):
        with pytest.raises(ValueError):
            mode_exponent(default_orbit, -1)


class TestMuStar:
    def test_per_mu_equals_theta2(self, default_params, default_orbit):
        val, sc = mu_star(default_params, orbit=default_orbit)
        assert not sc
        assert val == pytest.approx(theta_n(default_orbit, 2), rel=1e-14)

    def test_constant_supply_self_consistent(self, constant_params, constant_orbit):
        # mu-independent orbit: both variants return the same threshold
        per_mu, _ = mu_star(constant_params, orbit=constant_orbit)
        sc_val, sc = mu_star(constant_params, self_consistent=True)
        assert sc
        assert sc_val == pytest.approx(per_mu, rel=1e-8)

    def test_self_consistent_root(self, sinusoid):
        from tumordyn import ModelParams

        params = ModelParams(mu=1.0, sigma_tilde=0.5, gamma=1.0, schedule=sinusoid)
        root, sc = mu_star(params, self_consistent=True)
        assert sc
        orbit = find_periodic(replace(params, mu=root))
        assert root == pytest.approx(theta_n(orbit, 2), rel=1e-6)

    def test_self_consistent_no_root(self, default_params):
        # at sigma_tilde = 0.9 the threshold outruns mu on the whole grid
        with pytest.raises(NoPeriodicSolutionError):
            mu_star(default_params, self_consistent=True)


class TestEvolveMode:
    def test_whole_period_envelope(self, default_orbit):
        for n in (0, 2, 3, 5):
            lam = mode_exponent(default_orbit, n).lambda_bar
            for k in (1, 5, 20):
                got = evolve_mode(default_orbit, n, 0, 1.0, k * default_orbit.period)
                assert got == pytest.approx(math.exp(-lam * k), rel=1e-9)

    def test_m_independent(self, default_orbit):
        vals = {m: evolve_mode(default_orbit, 3, m, 0.7, 2.3) for m in (-3, 0, 2)}
        assert len(set(vals.values())) == 1

    def test_continuity_at_period_boundary(self, default_orbit):
        eps = 1e-8
        below = evolve_mode(default_orbit, 2, 0, 1.0, 1.0 - eps)
        above = evolve_mode(default_orbit, 2, 0, 1.0, 1.0 + eps)
        assert below == pytest.approx(above, rel=1e-6)

    @pytest.mark.parametrize("n", [0, 2, 5])
    @pytest.mark.parametrize("periods", [0.37, 2.37])
    def test_fractional_time_against_ode(self, default_params, default_orbit, n, periods):
        # d log rho/dt = -(n-1) dlogR/dt - [gamma*n(n(n+1)/2-1)/R^3
        #                 - mu*Phi*R^2*P0*(P1 - Pn)], integrated alongside R
        p = default_params

        def f(t, y):
            R = y[0]
            dR = rhs(p, t, R)
            mode = p.gamma * n * (n * (n + 1) / 2 - 1) / R**3 - p.mu * p.schedule(
                t
            ) * R**2 * p0(R) * (pn(1, R) - pn(n, R))
            return [dR, -(n - 1) * dR / R - mode]

        t = periods * default_orbit.period
        sol = solve_ivp(
            f, (0.0, t), [default_orbit.R_star0, 0.0], method="DOP853", rtol=1e-13, atol=1e-14
        )
        assert sol.success
        got = evolve_mode(default_orbit, n, 0, 1.0, t)
        assert got == pytest.approx(math.exp(sol.y[1, -1]), rel=1e-9)

    def test_bad_inputs(self, default_orbit):
        with pytest.raises(ValueError):
            evolve_mode(default_orbit, 2, 3, 1.0, 0.5)
        with pytest.raises(ValueError):
            evolve_mode(default_orbit, 2, 0, 1.0, -0.1)


class TestDecayBound:
    def test_floor_in_stable_regime(self, default_params, default_orbit):
        theta2 = theta_n(default_orbit, 2)
        report = mode_decay_bound_check(default_orbit, mu=0.5 * theta2)
        assert report.ok
        assert not report.nonpositive_modes
        assert report.delta_hat >= 0.95 * report.candidate_floor

    def test_per_mode_equals_mode_exponent(self, default_orbit):
        mu = 0.5 * theta_n(default_orbit, 2)
        report = mode_decay_bound_check(default_orbit, n_range=range(2, 41), mu=mu)
        assert report.theta2 == theta_n(default_orbit, 2)
        for n, value in report.per_mode:
            assert value == mode_exponent(default_orbit, n, mu=mu).lambda_bar / (n**3 + 1)

    def test_rejects_unstable_regime(self, default_orbit):
        theta2 = theta_n(default_orbit, 2)
        with pytest.raises(ValueError):
            mode_decay_bound_check(default_orbit, mu=2.0 * theta2)


class TestAnalyze:
    def test_stable_verdict(self, default_params):
        report = analyze(default_params, n_max=8)
        assert report.verdict is Verdict.LINEARLY_STABLE
        assert report.mu_star == pytest.approx(64.0499443, rel=1e-6)
        assert len(report.thresholds) == 7
        assert len(report.exponents) == 9

    def test_equals_per_mode_calls(self, default_params):
        report = analyze(default_params, n_max=40)
        for n, theta in enumerate(report.thresholds, start=2):
            assert theta == theta_n(report.orbit, n)
        for n, e in enumerate(report.exponents):
            assert e == mode_exponent(report.orbit, n)

    def test_n_max_below_two_rejected(self, default_params):
        with pytest.raises(ValueError):
            analyze(default_params, n_max=1)

    def test_unstable_verdict(self, default_params):
        # at sigma_tilde = 0.5 the threshold sits near 0.426, so mu = 1 is above it
        report = analyze(replace(default_params, sigma_tilde=0.5), n_max=4)
        assert report.verdict is Verdict.LINEARLY_UNSTABLE

    def test_marginal_verdict(self, constant_params):
        # constant supply: the orbit (and hence theta_2) does not move with mu,
        # so re-running exactly at the threshold lands in the marginal band
        base = analyze(constant_params, n_max=2)
        report = analyze(replace(constant_params, mu=base.mu_star), n_max=2)
        assert report.verdict is Verdict.MARGINAL


class TestModeMemo:
    """Each orbit keeps its mode integrals; warm calls give a cold orbit's bits."""

    def test_warm_equals_cold(self, default_params):
        orbit = analyze(default_params, n_max=64).orbit
        fresh = find_periodic(default_params)
        T = orbit.period
        for t in (T, 2.0 * T, 2.37 * T):
            for n in range(65):
                want = evolve_mode(replace(fresh), n, 0, 0.7, t)
                assert evolve_mode(orbit, n, 0, 0.7, t) == want
        for n in range(65):
            assert mode_exponent(orbit, n, mu=0.3) == mode_exponent(replace(fresh), n, mu=0.3)
        warm = mode_decay_bound_check(orbit, n_range=range(2, 65))
        assert warm == mode_decay_bound_check(replace(fresh), n_range=range(2, 65))

    def test_one_pass_per_orbit_and_window(self, default_params, monkeypatch):
        sizes, builds = [], []
        ratios, nodes = stability._ratios, stability.gauss_nodes

        def counted_ratios(n_hi, n_lo, r):
            sizes.append(r.size)
            return ratios(n_hi, n_lo, r)

        def counted_nodes(edges):
            builds.append(edges[-1])
            return nodes(edges)

        monkeypatch.setattr(stability, "_ratios", counted_ratios)
        monkeypatch.setattr(stability, "gauss_nodes", counted_nodes)
        orbit = analyze(default_params, n_max=64).orbit
        period_nodes = orbit.quadrature()[0].size
        assert sizes == [period_nodes]
        sizes.clear()
        T = orbit.period
        for t in (T, 2.0 * T, 2.37 * T, 3.5 * T):
            for n in range(65):
                for m in (0, -n):
                    evolve_mode(orbit, n, m, 1.0, t)
        for n in range(2, 65):
            theta_n(orbit, n)
            mode_exponent(orbit, n, mu=0.3)
        mode_decay_bound_check(orbit, n_range=range(2, 65))
        # no full-period pass: only one pass per order in each of the two windows
        assert builds == [2.37 * T - 2.0 * T, 0.5 * T]
        assert sizes == [256 * 8] * (2 * 65)

    def test_orbits_do_not_share_values(self, default_params):
        a = find_periodic(default_params)
        b = find_periodic(replace(default_params, mu=2.0))
        assert theta_n(a, 2) != theta_n(b, 2)
        assert evolve_mode(a, 3, 0, 1.0, 1.5) != evolve_mode(b, 3, 0, 1.0, 1.5)
        assert theta_n(b, 2) == theta_n(find_periodic(b.params), 2)
        assert a._mode_memo is not b._mode_memo

    def test_replace_starts_empty(self, default_orbit):
        theta_n(default_orbit, 2)
        copy = replace(default_orbit)
        assert copy._quad is None and copy._mode_memo == {}
        with pytest.raises(ValueError):
            replace(default_orbit, _mode_memo={})


class TestClassifyStability:
    @pytest.mark.parametrize(
        "mu, verdict",
        [
            (1.0, Verdict.LINEARLY_STABLE),
            (2.0 * (1.0 - 2e-8), Verdict.LINEARLY_STABLE),
            (2.0 * (1.0 - 1e-9), Verdict.MARGINAL),
            (2.0, Verdict.MARGINAL),
            (2.0 * (1.0 + 1e-9), Verdict.MARGINAL),
            (2.0 * (1.0 + 2e-8), Verdict.LINEARLY_UNSTABLE),
            (3.0, Verdict.LINEARLY_UNSTABLE),
        ],
    )
    def test_band(self, mu, verdict):
        assert classify_stability(mu, 2.0) is verdict

    def test_band_width(self):
        assert classify_stability(1.05, 1.0, band=0.1) is Verdict.MARGINAL
        assert classify_stability(1.05, 1.0, band=0.0) is Verdict.LINEARLY_UNSTABLE
