import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from tumordyn import (
    ConstantSchedule,
    ModelParams,
    PiecewiseLinearSchedule,
    SinusoidSchedule,
    SolverError,
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
    periodic,
    perturbed_surface,
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


# Independent 25-digit oracle (ROADMAP item 1): Fourier collocation of
# u = log R written in mpmath without package code, with theta_2 from the
# trapezoid rule on its nodes and mpmath.besseli; M = 32, 48 and 64 agree.
# Case: Phi = 1 + 0.5 sin(2 pi t), mu = 1, sigma_tilde = 0.5, gamma = 1.
ORACLE_R_STAR0 = "4.670585825783967999023344"
ORACLE_THETA2 = "0.4257460051525289081001786"


def _rel_error(got, want) -> float:
    return float(abs(mp.mpf(got) / mp.mpf(want) - 1))


class TestOracle:
    @pytest.fixture(scope="class")
    def orbit(self, sinusoid):
        return find_periodic(ModelParams(mu=1.0, sigma_tilde=0.5, gamma=1.0, schedule=sinusoid))

    def test_theta2(self, orbit):
        assert _rel_error(theta_n(orbit, 2), ORACLE_THETA2) <= 1e-14

    def test_r_star0(self, orbit):
        assert _rel_error(orbit.R_star0, ORACLE_R_STAR0) <= 1e-15

    def test_constant_supply_closed_form(self, constant_params, constant_orbit):
        # R* = x2 with Phi P0(x2) = sigma_tilde/3, so Int 1/R*^3 and the
        # proliferation integral are T times their values at x2
        phi, gamma = constant_params.schedule.value, constant_params.gamma

        def ratio(n, r):
            return mp.besseli(n + 1.5, r) / (r * mp.besseli(n + 0.5, r))

        with mp.workdps(40):
            s3 = mp.mpf(constant_params.sigma_tilde) / 3
            x2 = mp.findroot(lambda r: phi * ratio(0, r) - s3, 1.0)
            for n in range(2, 65):
                curvature = gamma * n * (n * (n + 1) / 2 - 1) / x2**3
                prolif = phi * x2**2 * ratio(0, x2) * (ratio(1, x2) - ratio(n, x2))
                assert _rel_error(theta_n(constant_orbit, n), curvature / prolif) <= 1e-13, n


class TestModeExponent:
    def test_lambda1_exactly_zero(self, default_orbit):
        assert abs(mode_exponent(default_orbit, 1).lambda_bar) <= 1e-11

    def test_lambda1_zero_on_shot_orbit(self, monkeypatch):
        # Lambda_1 is P1 - P1 at every node, so it is 0.0 on a shot orbit too
        schedule = SinusoidSchedule(period=0.7268, mean_level=1.0, amplitude=0.5)
        params = ModelParams(mu=0.0471, sigma_tilde=0.00815, gamma=1.0, schedule=schedule)
        monkeypatch.setattr(periodic, "_collocate", lambda params, tol: (None, None, 0, None))
        report = analyze(params, n_max=64)
        assert report.orbit.method == "shooting"
        assert report.exponents[1].lambda_bar == 0.0

    @pytest.mark.parametrize("n_max", [2, 8, 32, 64])
    def test_lambda1_zero_on_large_orbit(self, n_max):
        # at R* ~ 1.5e4, P1 from pn(1, .) and the n = 1 row of a pass started
        # at n_max's depth can differ in a last bit; P1 - P1 is still 0
        schedule = SinusoidSchedule(period=1.0, mean_level=1.0, amplitude=0.5)
        params = ModelParams(mu=100.0, sigma_tilde=2e-4, gamma=1.0, schedule=schedule)
        assert analyze(params, n_max=n_max).exponents[1].lambda_bar == 0.0

    def test_multiplier_past_float_range_is_inf(self):
        # -Lambda_5 T = 842 > 709.78: exp overflows from mode 5 on
        schedule = ConstantSchedule(period=5.286, value=1.8587749795474482)
        params = ModelParams(mu=338.9, sigma_tilde=0.7578, gamma=0.588, schedule=schedule)
        report = analyze(params, n_max=8)
        assert all(math.isfinite(e.lambda_bar) for e in report.exponents)
        assert [e.mode for e in report.exponents if math.isinf(e.floquet_multiplier)] == [5, 6, 7, 8]
        assert all(e.floquet_multiplier == math.exp(-e.lambda_bar * 5.286) for e in report.exponents[:5])

    def test_lambda0_positive(self, default_params):
        for mu in (0.1, 1.0, 10.0):
            orbit = find_periodic(replace(default_params, mu=mu))
            assert mode_exponent(orbit, 0).lambda_bar > 0.0

    def test_lambda0_is_radial_contraction_rate(self, default_orbit):
        lam0 = mode_exponent(default_orbit, 0).lambda_bar
        fit = convergence_rate(default_orbit, 1.5 * default_orbit.R_star0, 150, burn_in=30)
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
    def test_constant_supply_self_consistent(self, constant_params, constant_orbit):
        # mu-independent orbit: the root equals the per-mu threshold
        assert mu_star(constant_params) == pytest.approx(theta_n(constant_orbit, 2), rel=1e-8)

    def test_self_consistent_root(self, sinusoid):
        params = ModelParams(mu=1.0, sigma_tilde=0.5, gamma=1.0, schedule=sinusoid)
        root = mu_star(params)
        orbit = find_periodic(replace(params, mu=root))
        assert root == pytest.approx(theta_n(orbit, 2), rel=1e-6)

    def test_self_consistent_no_root(self, default_params):
        # at sigma_tilde = 0.9 the threshold outruns mu up to mu = 100, and at
        # mu = 1000 the shot orbit fails its bracket sign check; orbits exist,
        # so the walk ends on a solver error that says where and why
        with pytest.raises(SolverError, match=(
            r"^self-consistent mu_star not bracketed in \[1e-6, 1e6\]: "
            r"mu - theta_2 < 0 at mu = 100, the last mu solved; "
            r"the walk stopped at mu = 1000: Poincare map bracket sign condition violated"
        )):
            mu_star(default_params)


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

    @pytest.mark.parametrize(
        "mu, sigma_tilde, n, periods, method",
        [(1.0, 0.5, 2, 1e6, "collocation"), (3e3, 0.45, 5, 2.37, "shooting")],
        ids=["collocated", "shot"],
    )
    def test_past_float_range_is_signed_inf(self, sinusoid, mu, sigma_tilde, n, periods, method):
        """An unstable mode's amplitude past the float range is inf with rho0's
        sign (0 for rho0 = 0), as its Floquet multiplier is; a surface summing
        that mode is a SolverError naming it."""
        orbit = find_periodic(ModelParams(mu=mu, sigma_tilde=sigma_tilde, gamma=1.0, schedule=sinusoid))
        assert orbit.method == method
        t = periods * orbit.period
        assert [evolve_mode(orbit, n, 0, rho0, t) for rho0 in (0.3, -2.0, 0.0)] == [math.inf, -math.inf, 0.0]
        with pytest.raises(SolverError, match=rf"mode \(n, m\) = \({n}, 1\)"):
            perturbed_surface(orbit, [(0, 0, 1.0), (n, 1, 1e-300)], 1e-3, t, [1.0], [0.0])

    def test_bad_inputs(self, default_orbit):
        with pytest.raises(ValueError):
            evolve_mode(default_orbit, 2, 3, 1.0, 0.5)
        with pytest.raises(ValueError):
            evolve_mode(default_orbit, 2, 0, 1.0, -0.1)


class TestGaussRule:
    """The 8-node Gauss-Legendre rule of every integral off the collocation
    nodes, as gauss_nodes gives it on [-1, 1]."""

    @staticmethod
    def _rule():
        return stability.gauss_nodes(np.array([-1.0, 1.0]))

    def test_correctly_rounded(self):
        """The nodes are the roots of P_8 and the weights 2/((1 - x^2) P_8'(x)^2),
        from mpmath at 50 digits rounded to float, bit for bit."""
        with mp.workdps(50):
            # 128 P_8(x) = 6435 x^8 - 12012 x^6 + 6930 x^4 - 1260 x^2 + 35
            roots = sorted(mp.polyroots([6435, 0, -12012, 0, 6930, 0, -1260, 0, 35], extraprec=100))
            slopes = [8 * (x * mp.legendre(8, x) - mp.legendre(7, x)) / (x * x - 1) for x in roots]
            weights = [2 / ((1 - x * x) * d * d) for x, d in zip(roots, slopes)]
        x, w = self._rule()
        assert x.tolist() == [float(r) for r in roots]
        assert w.tolist() == [float(v) for v in weights]

    @pytest.mark.parametrize("k", range(16))
    def test_integrates_monomials(self, k):
        """Sum w x^k, summed exactly, is Int_{-1}^{1} x^k within (k + 1) units of
        roundoff: one from the weight's rounding and k from the node's in x^k.
        Odd powers cancel exactly, as the rule is mirrored."""
        x, w = self._rule()
        with mp.workdps(50):
            got = mp.fsum(mp.mpf(wi) * mp.mpf(xi) ** k for xi, wi in zip(x.tolist(), w.tolist()))
            exact = mp.mpf(2) / (k + 1) if k % 2 == 0 else mp.mpf(0)
            assert abs(got - exact) <= (k + 1) * 2.0**-53 * exact

    def test_within_64_ulp_of_leggauss(self):
        x, w = self._rule()
        lx, lw = np.polynomial.legendre.leggauss(8)
        assert np.all(np.abs(x - lx) <= 64 * np.spacing(np.abs(lx)))
        assert np.all(np.abs(w - lw) <= 64 * np.spacing(lw))


class TestDecayBound:
    def test_floor_in_stable_regime(self, default_orbit):
        # the default orbit is stable at its own mu = 1 (theta_2 ~ 64.05)
        report = mode_decay_bound_check(default_orbit)
        assert report.ok
        assert not report.nonpositive_modes
        assert report.delta_hat >= 0.95 * report.candidate_floor

    def test_per_mode_equals_mode_exponent(self, default_orbit):
        report = mode_decay_bound_check(default_orbit, n_range=range(2, 41))
        # the floor reads theta_2 from theta_n, its one spelling
        theta2, mu, orbit = theta_n(default_orbit, 2), default_orbit.params.mu, default_orbit
        assert report.candidate_floor == 0.25 * (mu / theta2) * (theta2 / mu - 1.0) * orbit.params.gamma / orbit.R_max**3
        for n, value in report.per_mode:
            assert value == mode_exponent(default_orbit, n).lambda_bar / (n**3 + 1)

    def test_rejects_unstable_regime(self, default_params):
        # at sigma_tilde = 0.5 the orbit's own mu = 1 is above theta_2 ~ 0.426
        orbit = find_periodic(replace(default_params, sigma_tilde=0.5))
        with pytest.raises(ValueError, match="requires the stable regime"):
            mode_decay_bound_check(orbit)


class TestAnalyze:
    def test_stable_verdict(self, default_params):
        report = analyze(default_params, n_max=8)
        assert report.verdict is Verdict.LINEARLY_STABLE
        assert report.thresholds[0] == pytest.approx(64.0499443, rel=1e-6)
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
        report = analyze(replace(constant_params, mu=base.thresholds[0]), n_max=2)
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
            assert mode_exponent(orbit, n) == mode_exponent(replace(fresh), n)
        warm = mode_decay_bound_check(orbit, n_range=range(2, 65))
        assert warm == mode_decay_bound_check(replace(fresh), n_range=range(2, 65))

    @staticmethod
    def _count_passes(monkeypatch):
        """Node counts of the recurrence passes and right edges of the Gauss
        node sets built, from here on."""
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
        return sizes, builds

    def test_one_pass_per_orbit_and_window(self, default_params, monkeypatch):
        sizes, builds = self._count_passes(monkeypatch)
        orbit = analyze(default_params, n_max=64).orbit
        T = orbit.period
        # a collocated orbit's period is one pass over its own nodes
        assert orbit.method == "collocation"
        assert builds == []
        assert sizes == [orbit.node_radii.size]
        builds.clear()
        sizes.clear()
        for t in (T, 2.0 * T, 2.37 * T, 3.5 * T):
            for n in range(65):
                for m in (0, -n):
                    evolve_mode(orbit, n, m, 1.0, t)
        for n in range(2, 65):
            theta_n(orbit, n)
            mode_exponent(orbit, n)
        mode_decay_bound_check(orbit, n_range=range(2, 65))
        # no full-period pass, and one pass for every order in each of the two
        # windows, on 8 Gauss nodes per step of the dense solve inside it
        assert builds == [2.37 * T - 2.0 * T, 0.5 * T]
        ends = orbit._interp.ts
        panels = [np.count_nonzero((ends > 0.0) & (ends < tau)) + 1 for tau in builds]
        assert sizes == [8 * p for p in panels] == [232, 312]

    def test_window_batch_bounded(self, default_params):
        """A window's first miss at order n reduces orders n to at most
        max(2n, n + 64), however many the period memo holds."""
        orbit = analyze(default_params, n_max=2000).orbit
        evolve_mode(orbit, 2, 0, 1.0, 0.5)
        assert len(orbit._mode_memo["window"][1].prolif) <= 67

    @pytest.mark.parametrize("lo, hi", [(0, 1), (0, 2), (2, 64), (0, 64), (0, 65), (3, 200)])
    def test_block_sums_equal_per_order_sums(self, default_orbit, lo, hi):
        """Orders reduced 64 rows at a time have the bits of one sum per order."""
        tq, wq = stability.gauss_nodes(np.linspace(0.0, 0.37, 30))
        rq = default_orbit(tq)
        terms = stability._mode_terms(default_orbit, tq, wq, rq)
        got = terms.integrals(range(lo, hi + 1))
        rows = stability._ratios(hi, lo, rq)
        want = {n: float(np.sum(terms.weighted * (terms.p1 - p))) for n, p in zip(range(hi, lo - 1, -1), rows)}
        want = [0.0 if n == 1 else want[n] for n in range(lo, hi + 1)]
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))

    KNOTTED = PiecewiseLinearSchedule(
        period=1.0, knot_times=(0.0, 0.3, 0.55, 1.0), knot_values=(1.0, 1.8, 0.4, 1.0)
    )

    def test_shot_orbit_keeps_gauss_rule(self, monkeypatch):
        schedule = self.KNOTTED
        params = ModelParams(mu=1.0, sigma_tilde=0.5, gamma=1.0, schedule=schedule)
        sizes, builds = self._count_passes(monkeypatch)
        orbit = analyze(params, n_max=8).orbit
        assert (orbit.method, orbit.node_radii.size) == ("shooting", 0)
        # one 8-node panel per step of the dense solve, split at the two knots
        assert builds == [orbit.period]
        pieces = orbit._interp.ts.size - 1 + len(schedule.breakpoints)
        assert sizes == [8 * pieces] == [360]

    def test_shot_orbit_integrals_match_quad_on_pieces(self):
        """theta_n and a fractional window on a shot orbit agree with adaptive
        quadrature given the step ends and the knots as break points."""
        schedule = self.KNOTTED
        params = ModelParams(mu=1.0, sigma_tilde=0.5, gamma=1.0, schedule=schedule)
        orbit = find_periodic(params)
        edges = np.union1d(orbit._interp.ts, schedule.breakpoints)

        def integral(f, tau):
            e = np.append(edges[edges < tau], tau)
            return math.fsum(quad(f, a, b, epsabs=0.0, epsrel=1e-13)[0] for a, b in zip(e[:-1], e[1:]))

        def integrals(n, tau):
            def prolif(t):
                r = orbit(t)
                return schedule(t) * r * r * pn(0, r) * (pn(1, r) - pn(n, r))

            curvature = params.gamma * n * (n * (n + 1) / 2.0 - 1.0)
            return curvature * integral(lambda t: orbit(t) ** -3, tau), integral(prolif, tau)

        for n in range(2, 9):
            curvature, prolif = integrals(n, 1.0)
            assert theta_n(orbit, n) == pytest.approx(curvature / prolif, rel=1e-14, abs=0.0)
            curvature, prolif = integrals(n, 0.87)
            want = (orbit.R_star0 / orbit(0.87)) ** (n - 1) * math.exp(params.mu * prolif - curvature)
            assert evolve_mode(orbit, n, 0, 1.0, 0.87) == pytest.approx(want, rel=1e-14, abs=0.0)

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
        assert copy._mode_memo == {}
        assert copy.node_radii is default_orbit.node_radii
        assert copy.node_radii.size > 0
        with pytest.raises(ValueError):
            replace(default_orbit, _mode_memo={})


class TestInputValidation:
    """Every entry point checks orders and times the same way."""

    def test_whole_float_orders(self, default_params, default_orbit):
        assert theta_n(default_orbit, 3.0) == theta_n(default_orbit, 3)
        assert mode_exponent(default_orbit, 3.0) == mode_exponent(default_orbit, 3)
        want = evolve_mode(default_orbit, 3, 0, 1.0, 0.5)
        assert evolve_mode(default_orbit, 3.0, 0, 1.0, 0.5) == want
        assert len(analyze(default_params, n_max=4.0).thresholds) == 3

    @pytest.mark.parametrize("n", [2.5, -1, float("nan"), float("inf"), "3"])
    def test_bad_orders(self, default_params, default_orbit, n):
        calls = [
            lambda: theta_n(default_orbit, n),
            lambda: mode_exponent(default_orbit, n),
            lambda: evolve_mode(default_orbit, n, 0, 1.0, 0.5),
            lambda: mode_decay_bound_check(default_orbit, n_range=[2, n]),
            lambda: analyze(default_params, n_max=n),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="order n must be a nonnegative integer"):
                call()

    @pytest.mark.parametrize("m", [0.5, -1.5, 3, float("nan"), float("inf"), "1", None])
    def test_bad_azimuthal_index(self, default_orbit, m):
        with pytest.raises(ValueError, match="m must be a whole number with"):
            evolve_mode(default_orbit, 2, m, 1.0, 0.5)

    def test_whole_float_azimuthal_index(self, default_orbit):
        assert evolve_mode(default_orbit, 2, -2.0, 1.0, 0.5) == evolve_mode(default_orbit, 2, -2, 1.0, 0.5)

    @pytest.mark.parametrize("t", [float("inf"), float("nan"), -0.1])
    def test_bad_time(self, default_orbit, t):
        with pytest.raises(ValueError, match="t must be finite and nonnegative"):
            evolve_mode(default_orbit, 2, 0, 1.0, t)


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
        # MARGINAL_BAND is a relative 1e-8 band around theta_2
        assert classify_stability(1.0 + 0.5e-8, 1.0) is Verdict.MARGINAL
        assert classify_stability(1.0 + 2e-8, 1.0) is Verdict.LINEARLY_UNSTABLE
