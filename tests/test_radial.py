import math
from dataclasses import replace

import numpy as np
import pytest

from tumordyn import (
    Classification,
    ConstantSchedule,
    ModelParams,
    SinusoidSchedule,
    classify_radial,
    extinction_diagnostics,
    integrate,
    p0,
    radial,
    rhs,
)


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


class TestIntegrate:
    def test_right_side_is_module_rhs(self, default_params, monkeypatch):
        calls = []

        def counting_rhs(params, t, R):
            calls.append(R)
            return rhs(params, t, R)

        monkeypatch.setattr(radial, "rhs", counting_rhs)
        traj = integrate(default_params, 1.0, 0.0, 1.0)
        assert len(calls) == traj.nfev
        assert all(type(R) is float for R in calls)

    def test_dense_output_matches_nodes(self, default_params):
        traj = integrate(default_params, 1.0, 0.0, 3.0)
        assert traj(traj.times[5]) == pytest.approx(traj.radii[5], rel=1e-12)

    def test_t_eval_grid(self, default_params):
        t_eval = np.linspace(0.0, 2.0, 11)
        traj = integrate(default_params, 1.0, 0.0, 2.0, t_eval=t_eval)
        assert np.array_equal(traj.times, t_eval)
        assert np.all(traj.radii > 0.0)

    def test_autonomous_equilibrium(self, constant_params):
        # constant supply: R with P0(R) = sigma_tilde/3 is an equilibrium
        from tumordyn import p0_inverse

        r_eq = p0_inverse(constant_params.sigma_tilde / 3.0)
        traj = integrate(constant_params, r_eq, 0.0, 5.0)
        assert np.max(np.abs(traj.radii - r_eq)) <= 1e-8 * r_eq

    def test_tolerance_controls_accuracy(self, default_params):
        loose = integrate(default_params, 1.0, 0.0, 5.0, rtol=1e-6, atol=1e-8)
        tight = integrate(default_params, 1.0, 0.0, 5.0, rtol=1e-12, atol=1e-14)
        assert loose(5.0) == pytest.approx(tight(5.0), rel=1e-5)
        assert loose.steps < tight.steps

    def test_bad_inputs(self, default_params):
        with pytest.raises(ValueError):
            integrate(default_params, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            integrate(default_params, 1.0, 1.0, 1.0)

    def test_out_of_span_evaluation(self, default_params):
        traj = integrate(default_params, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            traj(2.0)


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
        report = extinction_diagnostics(params, integrate(params, 1.0, 0.0, 80 * params.period))
        assert report.nonincreasing_ok
        assert report.cap_ok
        assert not report.violations
        assert report.final_radius < 0.05

    def test_requires_extinction_regime(self, default_params):
        with pytest.raises(ValueError):
            extinction_diagnostics(default_params, integrate(default_params, 1.0, 0.0, 5.0))

    def test_requires_solve_over_whole_periods(self, default_params):
        params = replace(default_params, sigma_tilde=1.2)
        for t0, t1 in ((0.5, 3.0), (0.0, 2.5), (0.0, 0.4)):
            with pytest.raises(ValueError, match="whole periods"):
                extinction_diagnostics(params, integrate(params, 1.0, t0, t1))

    def test_samples_are_a_fresh_solve(self, default_params):
        # t_eval never moves a step, so reading one solve on the 32-per-period
        # grid gives the bits of a second solve that samples that grid
        params = replace(default_params, sigma_tilde=1.1)
        traj = integrate(params, 1.0, 0.0, 12.0, t_eval=np.linspace(0.0, 12.0, 12 * 5 + 1))
        report = extinction_diagnostics(params, traj)
        fresh = integrate(params, 1.0, 0.0, 12.0, t_eval=np.linspace(0.0, 12.0, 12 * 32 + 1))
        assert np.array_equal(report.period_radii, fresh.radii[::32])
        assert report.final_radius == fresh.radii[-1]

    def test_period_marks_shape(self, default_params):
        params = replace(default_params, sigma_tilde=1.1)
        report = extinction_diagnostics(params, integrate(params, 1.0, 0.0, 10 * params.period))
        assert len(report.period_times) == 11
        assert report.period_times[-1] == pytest.approx(10.0)

    def test_constant_supply_below_sigma(self):
        # Phi_max < sigma_tilde: dR/dt < 0 throughout, so R(kT) itself is the
        # within-period cap and must not be flagged
        params = ModelParams(
            mu=1.0, sigma_tilde=1.1, gamma=1.0, schedule=ConstantSchedule(period=1.0, value=1.0)
        )
        report = extinction_diagnostics(params, integrate(params, 1.0, 0.0, 30 * params.period))
        assert report.nonincreasing_ok
        assert report.cap_ok
        assert report.violations == []
