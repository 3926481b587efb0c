import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from tumordyn import (
    Classification,
    ConstantSchedule,
    FourierSchedule,
    ModelParams,
    PiecewiseLinearSchedule,
    SinusoidSchedule,
    SolverError,
    classify_radial,
    dopri,
    extinction_diagnostics,
    integrate,
    p0,
    radial,
    rhs,
)

FORMS = [
    ConstantSchedule(period=1.5, value=1.3),
    SinusoidSchedule(period=2.0, mean_level=1.0, amplitude=0.5),
    FourierSchedule(
        period=0.7, mean_level=1.0, cos_coeffs=(0.2, -0.1), sin_coeffs=(0.15, 0.05, 0.02)
    ),
    PiecewiseLinearSchedule(
        period=1.0, knot_times=(0.0, 0.25, 0.6, 1.0), knot_values=(1.0, 1.8, 0.4, 1.0)
    ),
]


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


class TestModelParams:
    def test_period_passthrough(self, default_params):
        assert default_params.period == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu": 0.0},
            {"mu": -1.0},
            {"sigma_tilde": -0.1},
            {"gamma": 0.0},
            {"mu": float("nan")},
        ],
    )
    def test_validation(self, default_params, kwargs):
        with pytest.raises(ValueError):
            replace(default_params, **kwargs)


class TestRhs:
    def test_zero_is_stationary(self, default_params):
        assert rhs(default_params, 0.3, 0.0) == 0.0

    def test_closed_form(self, default_params):
        t, R = 0.2, 1.7
        expected = (
            default_params.mu
            * R
            * (default_params.schedule(t) * p0(R) - default_params.sigma_tilde / 3.0)
        )
        assert rhs(default_params, t, R) == pytest.approx(expected, rel=1e-15)

    def test_negative_radius_rejected(self, default_params):
        with pytest.raises(ValueError):
            rhs(default_params, 0.0, -0.5)

    @pytest.mark.parametrize("schedule", FORMS, ids=lambda s: type(s).__name__)
    def test_solver_right_side_bitwise(self, schedule):
        """The float-only right side integrate hands the solver gives the
        formula's bits, read through the array paths of Phi and P0, and
        rhs's bits; at R <= 0 it is 0.0."""
        params = ModelParams(mu=1.7, sigma_tilde=0.45, gamma=1.0, schedule=schedule)
        f = radial._right_side(params)
        T = schedule.period
        knots = np.array([k * T + x for k in range(3) for x in getattr(schedule, "knot_times", (0.0,))])
        times = np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)])
        times = np.concatenate([times[times >= 0.0], np.linspace(0.0, 3.0 * T, 37)]).tolist()
        radii = [1e-300, math.nextafter(0.3, 0.0), 0.3, 20.0, 3e3, 1e300]
        with np.errstate(over="ignore"):  # r * r overflows to inf at r = 1e300
            p0_arr = {R: float(p0(np.array([R]))[0]) for R in radii}
        for t in times:
            phi = float(schedule(np.array([t]))[0])
            for R in radii:
                want = params.mu * R * (phi * p0_arr[R] - params.sigma_tilde / 3.0)
                got = f(t, R)
                assert type(got) is float
                assert _bits(got) == _bits(want) == _bits(rhs(params, t, R)), (t, R)
            for R in (-0.0, 0.0, -1e-300, -math.inf):
                assert _bits(f(t, R)) == _bits(0.0)
            assert _bits(rhs(params, t, -0.0)) == _bits(rhs(params, t, 0.0)) == _bits(0.0)
        # Phi is kept for the latest t: t1, t2, t1 with R changing at each
        # call misses, misses and misses again; a repeated t hits
        for t1, t2 in zip(times, times[1:]):
            for t, R in zip((t1, t2, t1, t1), radii[1:]):
                phi = float(schedule(np.array([t]))[0])
                want = params.mu * R * (phi * p0_arr[R] - params.sigma_tilde / 3.0)
                assert _bits(f(t, R)) == _bits(want), (t, R)
        for R in (math.nan, math.inf):
            for right_side in (f, lambda t, R: rhs(params, t, R)):
                with pytest.raises(ValueError, match="argument r must be finite and positive"):
                    right_side(0.1, R)


class TestIntegrate:
    def test_solver_calls_match_rhs_bitwise(self, default_params, monkeypatch):
        """The solver's right side runs nfev times on float radii and returns
        rhs's bits at every call."""
        calls = []
        solve = dopri.solve

        def recording_solve(fun, *args):
            def recorded(t, R):
                dR = fun(t, R)
                calls.append((t, R, dR))
                return dR

            return solve(recorded, *args)

        monkeypatch.setattr(dopri, "solve", recording_solve)
        traj = integrate(default_params, 1.0, 1.0)
        assert len(calls) == traj.nfev
        assert all(type(t) is float and type(R) is float for t, R, _ in calls)
        assert all(_bits(dR) == _bits(rhs(default_params, t, R)) for t, R, dR in calls)

    def test_dense_output_matches_nodes(self, default_params):
        traj = integrate(default_params, 1.0, 3.0)
        assert traj.resample(traj.times[5:6]).radii[0] == pytest.approx(traj.radii[5], rel=1e-12)

    def test_t_eval_grid(self, default_params):
        t_eval = np.linspace(0.0, 2.0, 11)
        traj = integrate(default_params, 1.0, 2.0).resample(t_eval)
        assert np.array_equal(traj.times, t_eval)
        assert np.all(traj.radii > 0.0)

    def test_autonomous_equilibrium(self, constant_params):
        # constant supply: R with P0(R) = sigma_tilde/3 is an equilibrium
        from tumordyn import p0_inverse

        r_eq = p0_inverse(constant_params.sigma_tilde / 3.0)
        traj = integrate(constant_params, r_eq, 5.0)
        assert np.max(np.abs(traj.radii - r_eq)) <= 1e-8 * r_eq

    def test_tolerance_controls_accuracy(self, default_params):
        loose = integrate(default_params, 1.0, 5.0, rtol=1e-6, atol=1e-8)
        tight = integrate(default_params, 1.0, 5.0, rtol=1e-12, atol=1e-14)
        assert loose.radii[-1] == pytest.approx(tight.radii[-1], rel=1e-5)
        assert loose.steps < tight.steps

    def test_bad_inputs(self, default_params):
        with pytest.raises(ValueError):
            integrate(default_params, 0.0, 1.0)
        with pytest.raises(ValueError):
            integrate(default_params, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate(default_params, 1.0, 1.0, atol=0.0)

    def test_overflowing_radius_is_solver_error(self, default_params):
        with pytest.raises(SolverError, match="left the floating-point range"):
            integrate(default_params, 1e308, 1.0)

    def test_step_cap_is_solver_error(self, default_params, monkeypatch):
        """A solve may take _MAX_STEPS_PER_PERIOD accepted steps per period
        started, and fails with a SolverError past that."""
        steps = integrate(default_params, 1.0, 2.0).steps
        monkeypatch.setattr(radial, "_MAX_STEPS_PER_PERIOD", steps / 2)
        assert integrate(default_params, 1.0, 2.0).steps == steps
        monkeypatch.setattr(radial, "_MAX_STEPS_PER_PERIOD", steps // 2 - 1)
        with pytest.raises(SolverError, match=f"more than {2 * (steps // 2 - 1)} steps"):
            integrate(default_params, 1.0, 2.0)

    def test_float_read_bit_equal_to_array_read(self, default_params):
        """One time read as a float, an np.float64 or a 0-d array gives the
        bits it has inside an array, through the dense solution: at step
        ends, mid-step, next to the span's ends, just outside it and at NaN."""
        traj = integrate(default_params, 1.0, 3.0)
        ends = traj.times
        inside = np.concatenate([ends, 0.5 * (ends[1:] + ends[:-1]), [1e-13, 3.0 - 1e-13]])
        t = np.concatenate([inside, [-1e-9, 3.0 + 1e-9, math.nan]])
        bulk = traj._interp(t)
        for x, want in zip(t.tolist(), bulk.tolist()):
            for one in (x, np.float64(x), np.array(x)):
                got = traj._interp(one)
                assert type(got) is float and _bits(got) == _bits(want), x
        assert np.array_equal(traj.resample(np.unique(inside)).radii, traj._interp(np.unique(inside)))

    def test_out_of_span_evaluation(self, default_params):
        # resample, a solve's one read, takes exactly [0, t1]: no slack past either end
        traj = integrate(default_params, 1.0, 1.0)
        assert traj.resample([0.0, 1.0]).radii.tolist() == traj._interp(np.array([0.0, 1.0])).tolist()
        for t in ([0.5, 2.0], [0.5, 1.0 + 1e-12], [-1e-300, 0.5], [math.nan], [0.5, math.nan], [[0.5], [0.75]]):
            with pytest.raises(ValueError, match=r"strictly increasing 1-D array of times within \[0, t1\]"):
                traj.resample(t)
        assert not callable(traj)


class TestClassification:
    def test_persistence(self, default_params):
        assert classify_radial(default_params) is Classification.PERSISTENCE

    def test_extinction_above_mean(self, default_params):
        assert (
            classify_radial(replace(default_params, sigma_tilde=1.2))
            is Classification.EXTINCTION
        )

    def test_tie_is_extinction(self, default_params):
        assert (
            classify_radial(replace(default_params, sigma_tilde=1.0))
            is Classification.EXTINCTION
        )


class TestExtinctionDiagnostics:
    def test_strict_extinction(self, default_params):
        params = replace(default_params, sigma_tilde=1.2)
        report = extinction_diagnostics(params, integrate(params, 1.0, 80 * params.period))
        assert report.nonincreasing_ok
        assert report.cap_ok
        assert not report.violations
        assert report.period_radii[-1] < 0.05

    def test_growing_solve_flags_both_violations(self, default_params):
        # a growing sigma_tilde = 0.3 solve judged against sigma_tilde = 1.2
        params = replace(default_params, sigma_tilde=1.2)
        traj = integrate(replace(params, sigma_tilde=0.3), 0.5, 5 * params.period)
        report = extinction_diagnostics(params, traj)
        assert not report.nonincreasing_ok
        assert not report.cap_ok
        assert len(report.violations) == 2
        assert report.violations[0].startswith("R(kT) increased between periods ")
        assert report.violations[1] == "within-period growth cap violated in period 0"

    @pytest.mark.parametrize("k", [2, 3])
    def test_messages_name_the_period_that_breaks_a_check(self, k):
        # at the tie sigma_tilde = Phi of a constant supply the cap is exp(0) = 1;
        # on a stubbed 32-per-period grid of four periods R rises only at the
        # end of period k, to R((k + 1) T), breaking both checks there first
        params = ModelParams(mu=1.0, sigma_tilde=1.0, gamma=1.0, schedule=ConstantSchedule(period=1.0, value=1.0))
        radii = np.ones(4 * 32 + 1)
        radii[(k + 1) * 32] = 1.25
        grid = SimpleNamespace(t1=4.0, resample=lambda t_eval: SimpleNamespace(radii=radii))
        assert extinction_diagnostics(params, grid).violations == [
            f"R(kT) increased between periods {k} and {k + 1} by 2.500e-01",
            f"within-period growth cap violated in period {k}",
        ]

    def test_requires_extinction_regime(self, default_params):
        with pytest.raises(ValueError):
            extinction_diagnostics(default_params, integrate(default_params, 1.0, 5.0))

    def test_requires_solve_over_whole_periods(self, default_params):
        params = replace(default_params, sigma_tilde=1.2)
        for t1 in (2.5, 0.4):
            with pytest.raises(ValueError, match="whole periods"):
                extinction_diagnostics(params, integrate(params, 1.0, t1))

    def test_samples_are_a_fresh_solve(self, default_params):
        # reading never moves a step, so reading one solve on the 32-per-period
        # grid gives the bits of a second solve read on that grid
        params = replace(default_params, sigma_tilde=1.1)
        traj = integrate(params, 1.0, 12.0).resample(np.linspace(0.0, 12.0, 12 * 5 + 1))
        report = extinction_diagnostics(params, traj)
        fresh = integrate(params, 1.0, 12.0).resample(np.linspace(0.0, 12.0, 12 * 32 + 1))
        assert np.array_equal(report.period_radii, fresh.radii[::32])
        assert report.period_radii[-1] == fresh.radii[-1]

    def test_period_marks_shape(self, default_params):
        params = replace(default_params, sigma_tilde=1.1)
        for n in (1, 10):  # one period is a whole number of periods too
            report = extinction_diagnostics(params, integrate(params, 1.0, n * params.period))
            # R(kT) for k = 0..n; the marks' times are k T
            assert len(report.period_radii) == n + 1

    def test_constant_supply_below_sigma(self):
        # Phi_max < sigma_tilde: dR/dt < 0 throughout, so R(kT) itself is the
        # within-period cap and must not be flagged
        params = ModelParams(
            mu=1.0, sigma_tilde=1.1, gamma=1.0, schedule=ConstantSchedule(period=1.0, value=1.0)
        )
        report = extinction_diagnostics(params, integrate(params, 1.0, 30 * params.period))
        assert report.nonincreasing_ok
        assert report.cap_ok
        assert report.violations == []
