import contextlib
import dataclasses
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tumordyn import (
    ConstantSchedule,
    FourierSchedule,
    InsufficientDataError,
    ModelParams,
    NoPeriodicSolutionError,
    PiecewiseLinearSchedule,
    SinusoidSchedule,
    SolverError,
    bracket,
    convergence_rate,
    find_periodic,
    integrate,
    p0,
    p0_inverse,
    periodic,
    poincare_map,
)
from tumordyn import cli, dopri, radial
from tumordyn.stability import gauss_nodes, mode_exponent, mu_star

SINUSOID = SinusoidSchedule(period=1.0, mean_level=1.0, amplitude=0.5)
FOURIER = FourierSchedule(period=1.0, mean_level=1.0, cos_coeffs=(0.25, 0.08), sin_coeffs=(0.15, -0.05))
PIECEWISE = PiecewiseLinearSchedule(
    period=1.0, knot_times=(0.0, 0.3, 0.55, 1.0), knot_values=(1.0, 1.8, 0.4, 1.0)
)


class TestBracket:
    def test_contains_fixed_point(self, default_params, default_orbit):
        lo, hi = bracket(default_params)
        assert lo < default_orbit.R_star0 < hi

    def test_no_solution_above_mean(self, default_params):
        with pytest.raises(NoPeriodicSolutionError):
            bracket(replace(default_params, sigma_tilde=1.0))

    def test_no_solution_zero_sigma(self, default_params):
        with pytest.raises(NoPeriodicSolutionError):
            bracket(replace(default_params, sigma_tilde=0.0))

    def test_tiny_sigma_uses_proof_endpoint(self, default_params):
        params = replace(default_params, sigma_tilde=1e-7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = bracket(params)
            orbit = find_periodic(params)
        assert hi == p0_inverse(1e-7 / (3.0 * params.schedule.maximum))
        assert lo < orbit.R_star0 < hi
        assert orbit.residual <= 1e-11 * min(1.0, orbit.R_star0)

    def test_endpoints_map_inward(self, default_params):
        lo, hi = bracket(default_params)
        assert poincare_map(default_params, lo) >= lo * (1.0 - 1e-9)
        assert poincare_map(default_params, hi) <= hi * (1.0 + 1e-9)


class TestPoincareMap:
    def test_monotone(self, default_params):
        r = np.array([0.5, 1.0, 1.5, 2.0])
        images = [poincare_map(default_params, float(x)) for x in r]
        assert all(b > a for a, b in zip(images, images[1:]))

    def test_fixed_point(self, default_params, default_orbit):
        image = poincare_map(default_params, default_orbit.R_star0)
        assert abs(image - default_orbit.R_star0) <= 1e-11


class TestFindPeriodic:
    def test_residual(self, default_orbit):
        assert default_orbit.residual <= 1e-11

    def test_frozen_initial_radius(self, default_orbit):
        # frozen from a converged run at tol=1e-11
        assert default_orbit.R_star0 == pytest.approx(1.2904434394736837, rel=1e-9)

    def test_periodic_wraparound(self, default_orbit):
        assert default_orbit(0.25) == pytest.approx(default_orbit(7.25), rel=1e-10)
        assert default_orbit(0.0) == pytest.approx(default_orbit.R_star0, rel=1e-12)

    def test_float_read_bit_equal_to_array_read(self):
        """One time read as a float, an np.float64 or a 0-d array has the bits
        of that time inside an array, for each supply form: through the dense
        period at its step ends, mid-step, the knots, 0 and T, just outside
        [0, T] and at NaN, and through the orbit at those times past T."""
        for schedule in (ConstantSchedule(period=1.0, value=1.0), SINUSOID, FOURIER, PIECEWISE):
            orbit = find_periodic(ModelParams(mu=1.0, sigma_tilde=0.5, gamma=1.0, schedule=schedule))
            T, ends = orbit.period, orbit._interp.ts
            outside = [-1e-9, math.nextafter(0.0, -1.0), math.nextafter(T, 2.0 * T), T + 1e-9, math.nan]
            period = np.concatenate([ends, 0.5 * (ends[1:] + ends[:-1]), schedule.breakpoints, [0.0, T]])
            dense = np.concatenate([period, outside])
            wrapped = np.concatenate([dense, period + T, period + 7.0 * T, [1e3 + 0.1]])
            for read, t in ((orbit._interp, dense), (orbit, wrapped)):
                bulk = read(t)
                for x, want in zip(t.tolist(), bulk.tolist()):
                    for one in (x, np.float64(x), np.array(x)):
                        got = read(one)
                        assert type(got) is float
                        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), (schedule, x)

    def test_map_evaluations(self, default_params, monkeypatch):
        calls = []
        inner = periodic.poincare_map

        def counted(*args, **kwargs):
            calls.append(args[1])
            return inner(*args, **kwargs)

        monkeypatch.setattr(periodic, "poincare_map", counted)
        orbit = find_periodic(default_params)
        assert orbit.residual <= 1e-11
        assert len(calls) <= 8

    def test_orbit_read_from_last_map_solve(self, monkeypatch):
        # a piecewise supply always shoots; Brent's root is its last map
        # evaluation, so storing the orbit integrates no extra period
        params = ModelParams(mu=1.0, sigma_tilde=0.5, gamma=1.0, schedule=PIECEWISE)
        maps, solves = [], []
        inner_map, inner_integrate = periodic.poincare_map, periodic.integrate

        def counted_map(*args, **kwargs):
            maps.append(args[1])
            return inner_map(*args, **kwargs)

        def counted_integrate(*args, **kwargs):
            solves.append(args[1])
            return inner_integrate(*args, **kwargs)

        monkeypatch.setattr(periodic, "poincare_map", counted_map)
        monkeypatch.setattr(periodic, "integrate", counted_integrate)
        orbit = find_periodic(params)
        assert orbit.method == "shooting"
        assert len(solves) == len(maps) == orbit.map_evals >= 3

    def test_stored_orbit_bit_equal_to_fresh_solve(self, default_params, default_orbit):
        T = default_params.period
        fresh = integrate(
            default_params, default_orbit.R_star0, T,
            rtol=periodic.POINCARE_RTOL, atol=periodic.POINCARE_ATOL,
        ).resample(np.linspace(0.0, T, 1025))
        assert np.array_equal(default_orbit.times, fresh.times)
        assert np.array_equal(default_orbit.radii.view(np.int64), fresh.radii.view(np.int64))

    def test_extrema_match_dense_scan(self, default_orbit):
        rr = default_orbit(np.linspace(0.0, default_orbit.period, 400_001))
        scale = default_orbit.R_star0
        assert 0.0 <= np.min(rr) - default_orbit.R_min <= 1e-11 * scale
        assert 0.0 <= default_orbit.R_max - np.max(rr) <= 1e-11 * scale

    def test_extrema_bound_samples(self, default_orbit):
        tt = np.linspace(0.0, 1.0, 500)
        rr = default_orbit(tt)
        assert default_orbit.R_min <= np.min(rr) + 1e-12
        assert default_orbit.R_max >= np.max(rr) - 1e-12

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1.0])
    def test_tol_must_be_finite_and_positive(self, default_params, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            find_periodic(default_params, tol=tol)

    def test_quadrature_weights(self, default_orbit):
        tq, wq = gauss_nodes(default_orbit.times)
        rq = default_orbit(tq)
        assert np.sum(wq) == pytest.approx(default_orbit.period, rel=1e-13)
        assert np.all(rq > 0.0)
        # quadrature of R itself matches a trapezoid check on the dense grid
        trap = np.trapezoid(default_orbit.radii, default_orbit.times)
        assert np.sum(wq * rq) == pytest.approx(trap, rel=1e-8)

    def test_constant_supply_equilibrium(self, constant_params, constant_orbit):
        # with constant supply the orbit is the equilibrium P0(R) = sigma/3
        r_eq = p0_inverse(constant_params.sigma_tilde / 3.0)
        assert constant_orbit.R_star0 == pytest.approx(r_eq, rel=1e-10)
        assert constant_orbit.R_max - constant_orbit.R_min <= 1e-9 * r_eq

    def test_uniqueness_scan(self, default_params, default_orbit):
        lo, hi = bracket(default_params)
        grid = np.linspace(lo / 2.0, 2.0 * hi, 60)
        signs = np.sign(
            [poincare_map(default_params, float(r)) - float(r) for r in grid]
        )
        changes = np.count_nonzero(np.diff(signs))
        assert changes == 1


def _counted_maps(monkeypatch):
    calls = []
    inner = periodic.poincare_map

    def counted(params, r0):
        calls.append(r0)
        return inner(params, r0)

    monkeypatch.setattr(periodic, "poincare_map", counted)
    return calls


class TestCollocation:
    @pytest.mark.parametrize("schedule", [
        ConstantSchedule(period=1.0, value=1.2), SINUSOID, FOURIER,
    ], ids=["constant", "sinusoid", "fourier"])
    @pytest.mark.parametrize("mu, sigma", [(1.0, 0.5), (100.0, 0.6)])
    def test_smooth_forms_take_one_map(self, monkeypatch, schedule, mu, sigma):
        calls = _counted_maps(monkeypatch)
        orbit = find_periodic(ModelParams(mu=mu, sigma_tilde=sigma, gamma=1.0, schedule=schedule))
        assert orbit.method == "collocation"
        assert len(calls) == orbit.map_evals == 1
        assert calls == [orbit.R_star0]
        assert orbit.node_radii.size in (32, 64, 128, 256)
        assert orbit.newton_steps >= 1
        assert orbit.residual <= 1e-11 * min(1.0, orbit.R_star0)

    def test_slow_tail_decay_gives_up(self, monkeypatch):
        # at mu = 200 the spectrum of u decays too slowly from M = 32 to 64
        # to reach _TAIL_TOL by M = 256, so the attempt stops after M = 64
        params = ModelParams(mu=200.0, sigma_tilde=0.6, gamma=1.0, schedule=SINUSOID)
        sizes, green = [], periodic._green
        monkeypatch.setattr(periodic, "_green", lambda F, a, T: sizes.append(len(F)) or green(F, a, T))
        r, node_radii, steps, log_slope = periodic._collocate(params, periodic.DEFAULT_TOL)
        assert (r, node_radii, log_slope) == (None, None, None)
        assert steps >= 1
        assert (sizes[0], sizes[-1]) == (32, 64)

    @pytest.mark.parametrize("m", [32, 64])
    @pytest.mark.parametrize("T", [1.0, 2.5])
    @pytest.mark.parametrize("a", [
        lambda x: np.full_like(x, -1.5),
        lambda x: -2.0 + 0.8 * np.cos(x) + 0.3 * np.sin(2.0 * x),
    ], ids=["constant-a", "smooth-a"])
    def test_green_solves_the_collocated_linear_step(self, m, T, a):
        # (D - diag a) v = F at the nodes, D the spectral derivative on m nodes
        k, col = np.arange(m), np.zeros(m)
        col[1:] = (math.pi / T) * (-1.0) ** k[1:] / np.tan(k[1:] * (math.pi / m))
        D = col[(k[:, None] - k) % m]
        x = k * (2.0 * math.pi / m)
        F, a_nodes = np.exp(np.sin(x)) - 0.4 * np.cos(3.0 * x), a(x)
        v = periodic._green(F, a_nodes, T)
        assert np.max(np.abs(D @ v - a_nodes * v - F)) <= 1e-12 * np.max(np.abs(F))

    @pytest.mark.parametrize("schedule, mu, sigma, r_star0", [
        (SINUSOID, 316.0, 0.3, 7.708699050552055),
        (SINUSOID, 1000.0, 0.3, 8.503128939296488),
        (FOURIER, 316.0, 0.3, 11.828847104146421),
        (FOURIER, 1000.0, 0.3, 12.148067855794398),
        (SINUSOID, 100.0, 0.9, 0.03433192425830608),
        (FOURIER, 0.1, 1e-3, 2998.9976776936205),
        (ConstantSchedule(period=1.0, value=1.0), 1.0, 0.5, 4.73331939977518),
    ], ids=["sinusoid-316", "sinusoid-1000", "fourier-316", "fourier-1000",
            "sinusoid-100-0.9", "fourier-0.1-1e-3", "constant"])
    def test_green_steps_keep_the_inverse_roots(self, schedule, mu, sigma, r_star0):
        # references from full Newton steps (the dense inverse of D - diag(a)):
        # the discrete equations are the same, so only rounding may differ
        r = periodic._collocate(
            ModelParams(mu=mu, sigma_tilde=sigma, gamma=1.0, schedule=schedule), periodic.DEFAULT_TOL
        )[0]
        assert r == pytest.approx(r_star0, rel=1e-13, abs=0.0)

    def test_piecewise_never_collocates(self, monkeypatch):
        attempts = []
        monkeypatch.setattr(periodic, "_collocate", lambda *args: attempts.append(args))
        calls = _counted_maps(monkeypatch)
        orbit = find_periodic(ModelParams(mu=1.0, sigma_tilde=0.5, gamma=1.0, schedule=PIECEWISE))
        assert attempts == []
        assert (orbit.method, orbit.node_radii.size, orbit.newton_steps) == ("shooting", 0, 0)
        assert len(calls) == orbit.map_evals

    @pytest.mark.parametrize("schedule", [SINUSOID, FOURIER], ids=["sinusoid", "fourier"])
    @pytest.mark.parametrize("mu", [0.1, 3.16, 100.0])
    @pytest.mark.parametrize("sigma", [0.3, 0.6, 0.97, 1e-3])
    def test_agrees_with_forced_shooting(self, monkeypatch, schedule, mu, sigma):
        params = ModelParams(mu=mu, sigma_tilde=sigma, gamma=1.0, schedule=schedule)
        spectral = find_periodic(params)
        monkeypatch.setattr(periodic, "_collocate", lambda params, tol: (None, 0, 0, None))
        shot = find_periodic(params)
        assert (spectral.method, shot.method) == ("collocation", "shooting")
        assert spectral.R_star0 == pytest.approx(shot.R_star0, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("schedule", [SINUSOID, FOURIER], ids=["sinusoid", "fourier"])
    @pytest.mark.parametrize("mu", [0.1, 3.16, 100.0])
    def test_near_miss_polished_by_one_map(self, monkeypatch, schedule, mu):
        # at R* ~ 3e3 the RK45 map's own error exceeds the gate, so the
        # collocation root misses it and takes one Newton step on the map
        calls = _counted_maps(monkeypatch)
        orbit = find_periodic(ModelParams(mu=mu, sigma_tilde=1e-3, gamma=1.0, schedule=schedule))
        assert orbit.method == "collocation"
        assert len(calls) == orbit.map_evals == 2
        assert calls[1] == orbit.R_star0 != calls[0]
        assert orbit.node_radii.size > 0
        assert orbit.residual <= 1e-11 * min(1.0, orbit.R_star0)

    def test_wrong_slope_falls_back_to_shooting(self, monkeypatch):
        params = ModelParams(mu=3.16, sigma_tilde=1e-3, gamma=1.0, schedule=SINUSOID)
        polished = find_periodic(params)
        collocate = periodic._collocate

        def collocate_then_skew_slope(params, tol):
            r, node_radii, steps, log_slope = collocate(params, tol)
            # 100 times the log slope: the Newton step covers ~1% of the miss
            return r, node_radii, steps, 100.0 * log_slope

        monkeypatch.setattr(periodic, "_collocate", collocate_then_skew_slope)
        calls = _counted_maps(monkeypatch)
        shot = find_periodic(params)
        assert (polished.method, shot.method) == ("collocation", "shooting")
        assert calls[0] != polished.R_star0 != calls[1]
        assert len(calls) == shot.map_evals > 2
        assert shot.node_radii.size == 0
        assert shot.residual <= 1e-11 * min(1.0, shot.R_star0)
        assert shot.R_star0 == pytest.approx(polished.R_star0, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("schedule, mu, sigma", [
        (SINUSOID, 1.0, 0.9), (SINUSOID, 0.1, 1e-3), (FOURIER, 100.0, 1e-3),
    ], ids=["default", "tiny-mu0.1", "tiny-fourier-mu100"])
    def test_map_slope_is_radial_multiplier(self, schedule, mu, sigma):
        # F'(R*) = exp(-Lambda_0 T): the polish's slope (the log slope
        # _collocate returns), the radial mode's Floquet multiplier and a
        # centered difference of the map agree
        params = ModelParams(mu=mu, sigma_tilde=sigma, gamma=1.0, schedule=schedule)
        orbit = find_periodic(params)
        T, r = orbit.period, orbit.R_star0
        assert orbit.node_radii.size > 0
        slope = math.exp(periodic._collocate(params, periodic.DEFAULT_TOL)[3])
        multiplier = math.exp(-mode_exponent(orbit, 0).lambda_bar * T)
        assert abs(slope - multiplier) <= 1e-12
        h = 1e-4 * r
        centered = (poincare_map(params, r + h) - poincare_map(params, r - h)) / (2.0 * h)
        assert abs(slope - centered) <= 1e-9

    def test_failed_attempt_keeps_shooting_error(self, monkeypatch):
        # G(x_bar) already violates its sign, so G(x2) is never evaluated
        params = ModelParams(mu=1e3, sigma_tilde=0.9, gamma=1.0, schedule=SINUSOID)
        calls = _counted_maps(monkeypatch)
        with pytest.raises(SolverError) as info:
            find_periodic(params)
        assert str(info.value) == (
            "Poincare map bracket sign condition violated beyond tolerance; "
            "tighten integrator tolerances"
        )
        assert calls == [bracket(params)[0]]

    @pytest.mark.parametrize("params", [
        ModelParams(mu=1e3, sigma_tilde=0.9, gamma=1.0, schedule=SINUSOID),
        ModelParams(mu=1e4, sigma_tilde=0.9, gamma=1.0, schedule=SINUSOID),
        ModelParams(mu=1.0, sigma_tilde=1e-9, gamma=1.0, schedule=SINUSOID),
        ModelParams(mu=1.0, sigma_tilde=0.5, gamma=1.0, schedule=PIECEWISE),
    ], ids=["mu=1e3", "mu=1e4", "sigma=1e-9", "piecewise"])
    def test_no_warning_on_probe_regimes(self, params):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.suppress(SolverError):
                find_periodic(params)
        assert [str(w.message) for w in caught] == []

    def test_observability_fields_stay_out_of_equality(self):
        names = {"method", "map_evals", "newton_steps"}
        flags = {f.name: f.compare for f in dataclasses.fields(periodic.PeriodicSolution)}
        assert names <= set(flags)
        assert not any(flags[name] for name in names)


class TestLazySamples:
    """times, radii, R_min and R_max are read from the dense period when
    first asked for, with the bits of an eager resample of the same solve."""

    @pytest.mark.parametrize("params, method, maps", [
        (ModelParams(mu=1.0, sigma_tilde=0.9, gamma=1.0, schedule=SINUSOID), "collocation", 1),
        (ModelParams(mu=3.16, sigma_tilde=1e-3, gamma=1.0, schedule=SINUSOID), "collocation", 2),
        (ModelParams(mu=1.0, sigma_tilde=0.5, gamma=1.0, schedule=PIECEWISE), "shooting", None),
    ], ids=["collocated", "near-miss", "shot"])
    def test_bit_equal_to_eager_resample(self, params, method, maps):
        orbit = find_periodic(params)
        assert orbit.method == method and maps in (None, orbit.map_evals)
        assert not {"times", "radii", "_extrema"} & vars(orbit).keys()
        T = params.period
        eager = integrate(
            params, orbit.R_star0, T, rtol=periodic.POINCARE_RTOL, atol=periodic.POINCARE_ATOL,
        ).resample(np.linspace(0.0, T, periodic.DEFAULT_SEGMENTS + 1))
        assert orbit.residual == abs(float(eager.radii[-1]) - orbit.R_star0)
        assert np.array_equal(orbit.times, eager.times)
        assert np.array_equal(orbit.radii.view(np.int64), eager.radii.view(np.int64))
        assert (orbit.R_min, orbit.R_max) == periodic._refine_extrema(params, eager)

    def test_sweep_row_and_mu_star_read_no_samples(self, monkeypatch):
        sizes = []
        resample, dense = radial.Trajectory.resample, dopri.DenseSolution.__call__
        monkeypatch.setattr(radial.Trajectory, "resample", lambda self, t: sizes.append(len(t)) or resample(self, t))
        monkeypatch.setattr(dopri.DenseSolution, "__call__", lambda self, t: sizes.append(np.size(t)) or dense(self, t))
        params = ModelParams(mu=1.0, sigma_tilde=0.3, gamma=1.0, schedule=SINUSOID)
        assert cli._sweep_row((params, 1.0, 0.3))[2] == "LinearlyUnstable"
        assert mu_star(params) > 0.0
        assert sizes and periodic.DEFAULT_SEGMENTS + 1 not in sizes


# delta_hat of an independent solve: scipy's solve_ivp DOP853 at rtol 2.3e-14
# (atol 1e-300) of R and R* as a pair from (R0, R*(0)), with R*(0) from
# find_periodic and P0 from specfun.p0, the same 10-period burn-in and
# 1e-12 R*(0) floor rule, and np.polyfit's line through log|R(kT) - R*(kT)|
# on t = kT (at sigma_tilde = 1e-9, where the marks fall by 3e-10 a period,
# good to about 1e-6).  Case: (mu, sigma_tilde, schedule, R0 / R*(0), periods), gamma = 1.
DOP853_RATES = {
    "sinusoid-mu0.5": ((0.5, 0.6, SinusoidSchedule(period=1.0, mean_level=1.0, amplitude=0.4875), 2.0, 40),
                       0.06845851426082365),
    "fourier": ((1.0, 0.285, FourierSchedule(period=1.0, mean_level=1.0, cos_coeffs=(0.24375, 0.078),
                                             sin_coeffs=(0.14625, -0.04875)), 2.0, 40),
                0.08500441533712881),
    "mu10": ((10.0, 0.6, SINUSOID, 2.0, 40), 1.2581513454374018),
    "sigma1e-9": ((1.0, 1e-9, SINUSOID, 2.0, 30), 3.333332602634736e-10),
    "start-1e200": ((1.0, 0.5, SINUSOID, 1e200, 30), 0.1666666666666593),
}


class TestConvergenceRate:
    def test_fit_from_above(self, default_orbit):
        fit = convergence_rate(default_orbit, 2.0 * default_orbit.R_star0, 180, burn_in=40)
        assert fit.r_squared >= 0.999
        assert fit.delta_hat >= 0.95 * fit.delta_bound
        assert fit.one_sided

    def test_fit_from_below(self, default_orbit):
        # the approach from below has a longer nonlinear transient, so more
        # of the early periods are excluded before fitting
        fit = convergence_rate(default_orbit, 0.5 * default_orbit.R_star0, 180, burn_in=40)
        assert fit.r_squared >= 0.999
        assert fit.delta_hat >= 0.95 * fit.delta_bound

    def test_on_orbit_start_rejected(self, default_orbit):
        with pytest.raises(InsufficientDataError):
            convergence_rate(default_orbit, default_orbit.R_star0, 20)

    def test_too_few_periods(self, default_orbit):
        with pytest.raises(InsufficientDataError):
            convergence_rate(default_orbit, 2.0, 3)

    def test_horizon_shorter_than_burn_in_named(self, default_orbit):
        with pytest.raises(InsufficientDataError, match="at least 13 periods .* 10-period burn-in"):
            convergence_rate(default_orbit, 2.0 * default_orbit.R_star0, 8)

    @pytest.mark.parametrize("start", [2.0, 0.5])
    def test_fit_agrees_with_polyfit(self, default_orbit, start, monkeypatch):
        # the closed-form least squares on k is polyfit's line on t = k T,
        # through the same marks R*(0) |expm1(v(kT))| of the deviation solve
        solves, inner = [], periodic._solve
        monkeypatch.setattr(periodic, "_solve", lambda *args: solves.append(inner(*args)) or solves[-1])
        R0, n = start * default_orbit.R_star0, 30
        fit = convergence_rate(default_orbit, R0, n)
        [(deviation, _)] = solves
        T = default_orbit.period
        ks = np.arange(periodic.RATE_BURN_IN, n + 1)
        logd = np.log(default_orbit.R_star0 * np.abs(np.expm1(deviation(ks * T))))
        slope, intercept = np.polyfit(ks * T, logd, 1)
        assert fit.n_periods_used == ks.size
        assert fit.delta_hat == pytest.approx(-slope, rel=1e-12)
        r_squared = 1.0 - np.sum((logd - slope * ks * T - intercept) ** 2) / np.sum((logd - logd.mean()) ** 2)
        assert fit.r_squared == pytest.approx(r_squared, rel=1e-12)

    @pytest.mark.parametrize("case, rel", [
        ("sinusoid-mu0.5", 1e-6), ("fourier", 1e-6), ("mu10", 1e-4), ("sigma1e-9", 1e-2), ("start-1e200", 1e-6),
    ])
    def test_rate_against_independent_solve(self, case, rel):
        """delta_hat within rel of DOP853_RATES.  At mu = 10 the marks reach
        the floor; at sigma_tilde = 1e-9 the drop per period, Lambda_0 T ~ 3e-10,
        is below a fixed rtol of 1e-8 on v."""
        (mu, sigma_tilde, schedule, factor, n), want = DOP853_RATES[case]
        orbit = find_periodic(ModelParams(mu=mu, sigma_tilde=sigma_tilde, gamma=1.0, schedule=schedule))
        fit = convergence_rate(orbit, factor * orbit.R_star0, n)
        assert fit.delta_hat == pytest.approx(want, rel=rel)

    def test_one_sided_on_the_fitted_marks(self):
        # at mu = 10 the marks reach the 1e-12 R*(0) floor within 40 periods; the
        # signs below it are rounding noise, and the fit and its sign test drop them
        orbit = find_periodic(ModelParams(mu=10.0, sigma_tilde=0.6, gamma=1.0, schedule=SINUSOID))
        fit = convergence_rate(orbit, 2.0 * orbit.R_star0, 40)
        assert fit.n_periods_used < 40 - periodic.RATE_BURN_IN + 1
        assert fit.one_sided

    @pytest.mark.parametrize("R0", [1e-300, 1e-320])
    def test_tiny_start_is_no_rate(self, R0):
        # R(kT) barely moves from 1e-300 in 40 periods, so the fitted rate is -0, and the
        # bound mu Phi_min M_min R_min min(1, R0 / R*(0)) underflows to 0: no gate, one error
        orbit = find_periodic(ModelParams(mu=1.0, sigma_tilde=0.5, gamma=1.0, schedule=SINUSOID))
        with pytest.raises(InsufficientDataError, match=r"^the period marks did not approach R\*\(0\): fitted rate -0$"):
            convergence_rate(orbit, R0, 40)

    def test_motionless_marks_end_on_the_rate_gate(self):
        # period marks 1e-300 apart: R(kT) does not move, the fitted rate is
        # 0, and the rate gate fails with one named error
        params = ModelParams(mu=1.0, sigma_tilde=0.5, gamma=1.0,
                             schedule=SinusoidSchedule(period=1e-300, mean_level=1.0, amplitude=0.5))
        orbit = find_periodic(params)
        with pytest.raises(SolverError, match=r"^fitted rate -0 fell below 95% of the analytic bound "):
            convergence_rate(orbit, 2.0 * orbit.R_star0, 30)


class TestRulesReadFromOwners:
    def test_bracket_takes_the_tie_rule_from_classify_radial(self, default_params, monkeypatch):
        # the tie sigma_tilde = mean counts as extinction in one place
        tie = replace(default_params, sigma_tilde=1.0)
        with pytest.raises(NoPeriodicSolutionError, match="sigma_tilde >= mean"):
            bracket(tie)
        monkeypatch.setattr(periodic, "classify_radial", lambda params: radial.Classification.PERSISTENCE)
        with pytest.raises(ValueError, match="outside"):  # P0^-1(1/3) past the tie
            bracket(tie)

    def test_two_knot_table_collocates_as_constant(self):
        # a two-knot table has no breakpoints: it is the constant supply,
        # Phi has the same bits, and so does the orbit
        table = PiecewiseLinearSchedule(period=1.0, knot_times=(0.0, 1.0), knot_values=(1.2, 1.2))
        constant = ConstantSchedule(period=1.0, value=1.2)
        orbits = [find_periodic(ModelParams(mu=1.0, sigma_tilde=0.5, gamma=1.0, schedule=s))
                  for s in (table, constant)]
        assert [o.method for o in orbits] == ["collocation"] * 2
        assert orbits[0].R_star0 == orbits[1].R_star0
        assert np.array_equal(orbits[0].node_radii, orbits[1].node_radii)

    @pytest.mark.parametrize("schedule", [
        SinusoidSchedule(period=1.0, mean_level=1e308, amplitude=0.5),
        ConstantSchedule(period=1.0, value=1e308),
        PiecewiseLinearSchedule(period=1.0, knot_times=(0.0, 0.5, 1.0), knot_values=(1.0, 1e308, 1.0)),
    ], ids=["sinusoid", "constant", "piecewise"])
    def test_level_past_the_float_range_is_a_solver_error(self, schedule):
        # 3 Phi_max overflows, so R* <= x2 = P0^-1(sigma_tilde / (3 Phi_max)) is past the floats
        with pytest.raises(SolverError, match=r"^sigma_tilde / \(3 Phi_max\) = 0 puts R\* past the floating-point range$"):
            bracket(ModelParams(mu=1.0, sigma_tilde=0.5, gamma=1.0, schedule=schedule))

    def test_period_is_read_from_params(self, default_orbit):
        assert "period" not in {f.name for f in dataclasses.fields(periodic.PeriodicSolution)}
        assert default_orbit.period == default_orbit.params.period

    @pytest.mark.parametrize("sigma", [0.0, 5e-324])
    def test_sigma_third_underflow_has_no_orbit(self, sigma):
        # the model divides sigma_tilde by 3: at 5e-324 that is 0, the death
        # term vanishes and R grows without bound, whatever the supply
        params = ModelParams(mu=1.0, sigma_tilde=sigma, gamma=1.0, schedule=ConstantSchedule(period=1.0, value=1e-300))
        with pytest.raises(NoPeriodicSolutionError, match="sigma_tilde / 3 must be positive"):
            bracket(params)
