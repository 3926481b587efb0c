"""The scalar Dormand-Prince integrator against scipy's RK45 as an oracle.

``radial.integrate`` ports the RK45 controller and forms its sums with the
same numpy calls, so step counts, evaluation counts and every step end must
be bitwise equal to ``solve_ivp(method="RK45")`` on the same right side.  The
dense output is read elementwise by Horner's rule, so a read is held to a few
ulp of scipy's read and to scipy's own error against a DOP853 reference.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tumordyn import (
    ConstantSchedule,
    FourierSchedule,
    ModelParams,
    PiecewiseLinearSchedule,
    SinusoidSchedule,
    SolverError,
    dopri,
    find_periodic,
    integrate,
    radial,
)

SCHEDULES = {
    "constant": ConstantSchedule(period=1.0, value=1.0),
    "sinusoid": SinusoidSchedule(period=1.0, mean_level=1.0, amplitude=0.5),
    "fourier": FourierSchedule(
        period=2.0, mean_level=1.0, cos_coeffs=(0.3, -0.1), sin_coeffs=(0.2, 0.05, 0.1)
    ),
    "piecewise": PiecewiseLinearSchedule(
        period=1.5, knot_times=(0.0, 0.4, 0.9, 1.5), knot_values=(0.6, 1.5, 0.9, 0.6)
    ),
}

CASES = [
    # (schedule, mu, sigma_tilde, R0, periods, rtol, atol)
    ("constant", 1.0, 0.5, 1.0, 3, 1e-10, 1e-12),
    ("sinusoid", 1.0, 0.5, 1.0, 5, 1e-10, 1e-12),
    ("fourier", 3.0, 0.6, 0.4, 3, 1e-8, 1e-10),
    ("piecewise", 1.0, 0.5, 2.0, 4, 1e-12, 1e-14),
    ("sinusoid", 1.0, 1.2, 1.0, 10, 1e-10, 1e-12),  # extinction
    ("sinusoid", 100.0, 0.9, 0.3, 2, 1e-10, 1e-12),
    ("fourier", 1.0, 0.3, 5.0, 2, 1e-6, 1e-8),
    ("piecewise", 10.0, 0.8, 0.05, 3, 1e-9, 1e-11),
    ("sinusoid", 0.1, 0.001, 3.0, 2, 1e-12, 1e-14),
    # decays through R = 0.3, where P0 switches from its closed form to its series
    ("sinusoid", 10.0, 1.2, 0.5, 3, 1e-10, 1e-12),
    # the period from the bracket's upper end x2 of the mu = 1e3, sigma_tilde = 0.9
    # sinusoid at the Poincare tolerances: R collapses to ~1e-16 within it
    ("sinusoid", 1e3, 0.9, 3.629409935955997, 1, 1e-12, 1e-14),
]


def _oracle(params, R0, t1, rtol, atol, t_eval=None, method="RK45"):
    sol = solve_ivp(
        lambda t, y: [radial.rhs(params, t, max(float(y[0]), 0.0))],
        (0.0, t1),
        [R0],
        method=method,
        rtol=rtol,
        atol=atol,
        dense_output=True,
        t_eval=t_eval,
    )
    assert sol.success
    return sol


def _step_ulps(traj, t, n=4):
    """n ulp of the larger end value of each time's step."""
    i = np.clip(np.searchsorted(traj.times, t) - 1, 0, traj.steps - 1)
    return n * np.spacing(np.maximum(np.abs(traj.radii[i]), np.abs(traj.radii[i + 1])))


@pytest.mark.parametrize("case", CASES, ids=[f"{c[0]}-mu{c[1]}-s{c[2]}-rtol{c[5]}" for c in CASES])
def test_matches_rk45_bitwise(case):
    form, mu, sigma, R0, periods, rtol, atol = case
    params = ModelParams(mu=mu, sigma_tilde=sigma, gamma=1.0, schedule=SCHEDULES[form])
    t1 = periods * params.period
    sol = _oracle(params, R0, t1, rtol, atol)
    traj = integrate(params, R0, t1, rtol=rtol, atol=atol)
    assert traj.nfev == sol.nfev
    assert traj.steps == len(sol.t) - 1
    assert np.array_equal(traj.times, sol.t)
    assert np.array_equal(traj.radii, sol.y[0])
    assert np.array_equal(traj._interp.ts, sol.sol.ts)

    rng = np.random.default_rng(len(sol.t))
    points = np.concatenate([rng.uniform(0.0, t1, 400), sol.t[::7]])
    # unsorted, with duplicates and with exact step ends
    points = rng.permutation(np.concatenate([points, rng.choice(points, 60), sol.t[::3]]))
    got, scipy_read, ulps = traj(points), sol.sol(points)[0], _step_ulps(traj, points)
    assert np.all(np.abs(got - scipy_read) <= ulps)
    # no farther from a DOP853 reference than scipy's own read
    ref = _oracle(params, R0, t1, 1e-13, 1e-16, method="DOP853").sol(points)[0]
    assert np.all(np.abs(got - ref) <= np.abs(scipy_read - ref) + ulps)

    t_eval = np.linspace(0.0, t1, 16 * periods + 1)
    sol_e = _oracle(params, R0, t1, rtol, atol, t_eval=t_eval)
    traj_e = integrate(params, R0, t1, rtol=rtol, atol=atol).resample(t_eval)
    assert traj_e.nfev == sol_e.nfev
    assert np.array_equal(traj_e.times, sol_e.t)
    assert np.all(np.abs(traj_e.radii - sol_e.y[0]) <= _step_ulps(traj, t_eval))


def _assert_batch_free(read, t):
    """read(t_k) as a float has the bits of t_k's element in a batch, in a
    permuted batch and in an nd batch."""
    batch = read(t)
    order = np.random.default_rng(t.size).permutation(t.size)
    permuted = np.empty_like(batch)
    permuted[order] = read(t[order])
    nd = read(t.reshape(2, 4, -1)).ravel()
    singles = np.array([read(x) for x in t.tolist()])
    for other in (permuted, nd, singles):
        assert np.array_equal(other.view(np.int64), batch.view(np.int64))


def test_read_does_not_depend_on_batch(default_params):
    traj = integrate(default_params, 1.0, 3.0)
    t = np.concatenate([np.linspace(0.0, 3.0, 1025)[:-1], traj.times[:8]])
    for read in (traj._interp, traj):
        _assert_batch_free(read, t)


@pytest.mark.parametrize("mu", [0.1, 1.0, 10.0, 100.0])
@pytest.mark.parametrize("sigma", [0.3, 0.6, 0.9])
def test_orbit_read_does_not_depend_on_batch(mu, sigma):
    params = ModelParams(mu=mu, sigma_tilde=sigma, gamma=1.0, schedule=SCHEDULES["sinusoid"])
    orbit = find_periodic(params)
    times = orbit.times[:-1]
    _assert_batch_free(orbit, times)
    assert [orbit(t) for t in times.tolist()] == orbit.radii[:-1].tolist()
    assert orbit.residual == abs(orbit.radii[-1] - orbit.R_star0)


def test_steps_do_not_depend_on_t_eval(default_params):
    free = integrate(default_params, 1.0, 3.0)
    for t_eval in (np.linspace(0.0, 3.0, 4), np.linspace(0.0, 3.0, 301), [0.0, 3.0]):
        sampled = integrate(default_params, 1.0, 3.0).resample(t_eval)
        assert sampled.steps == free.steps == len(free.times) - 1
        assert sampled.nfev == free.nfev


def test_empty_and_nd_times(default_params, default_orbit):
    traj = integrate(default_params, 1.0, 3.0)
    t = np.random.default_rng(3).uniform(0.0, 3.0, (6, 7, 5))
    for f in (traj._interp, traj, default_orbit):
        for empty in ([], np.empty((0, 4))):
            got = f(empty)
            assert got.dtype == np.float64 and got.shape == np.shape(empty)
        got = f(t)
        assert got.shape == t.shape
        assert np.array_equal(got.view(np.int64), f(t.ravel()).reshape(t.shape).view(np.int64))
    sampled = integrate(default_params, 1.0, 3.0).resample([])
    assert sampled.times.size == sampled.radii.size == 0
    assert sampled.steps == traj.steps


def test_bad_t_eval_rejected(default_params):
    traj = integrate(default_params, 1.0, 1.0)
    for t_eval in ([0.0, 2.0], [0.5, 0.5], [[0.0, 1.0]], [-0.1, 0.5], [0.5, 0.25], [math.nan]):
        with pytest.raises(ValueError):
            traj.resample(t_eval)


def test_step_size_underflow_is_a_solver_error():
    # a right side that turns NaN at t = 0.5 rejects every step past it
    def fun(t, y):
        return -y if t < 0.5 else float("nan")

    sol = solve_ivp(lambda t, y: [fun(t, y[0])], (0.0, 1.0), [1.0], method="RK45")
    assert not sol.success and "spacing between numbers" in sol.message
    with pytest.raises(SolverError, match="spacing between numbers"):
        dopri.solve(fun, 0.0, 1.0, 1.0, 1e-3, 1e-6)
