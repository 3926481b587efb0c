import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tumordyn import SolverError, p0, p0_inverse, pn, pn_derivative, specfun
from tumordyn.specfun import _ratios

mp.mp.dps = 40

R_GRID = np.logspace(-4, 3, 200)


def pn_oracle(n, r):
    """High-precision I_{n+3/2}(r) / (r I_{n+1/2}(r))."""
    rm = mp.mpf(float(r))
    return float(mp.besseli(n + mp.mpf(3) / 2, rm) / (rm * mp.besseli(n + mp.mpf(1) / 2, rm)))


class TestP0:
    def test_small_argument_limit(self):
        r = 1e-8
        assert p0(r) == pytest.approx(1.0 / 3.0 - r * r / 45.0, rel=1e-14)

    def test_unit_argument(self):
        # frozen from (e^2+1)/(e^2-1) - 1 at 40 digits
        assert p0(1.0) == pytest.approx(0.31303528549933130364, rel=1e-13)

    def test_large_argument(self):
        # coth(50) is 1.0 in doubles, so the closed form is exact
        assert p0(50.0) == pytest.approx(1.0 / 50.0 - 1.0 / 2500.0, rel=1e-15)

    def test_against_extended_precision_grid(self):
        for r in R_GRID[::5]:
            oracle = float(mp.coth(mp.mpf(float(r))) / mp.mpf(float(r)) - 1 / mp.mpf(float(r)) ** 2)
            assert p0(float(r)) == pytest.approx(oracle, rel=1e-13)

    def test_below_switch_at_most_one_third_and_nonincreasing(self):
        v = p0(np.geomspace(1e-300, 0.3, 200_001))
        assert np.all(v <= 1.0 / 3.0)
        assert np.all(np.diff(v) <= 0.0)

    def test_below_switch_within_two_ulp_of_oracle(self):
        r = np.geomspace(1e-7, 0.3, 4001)[:-1]
        want = [mp.coth(x) / x - 1 / x**2 for x in map(mp.mpf, r.tolist())]
        err = max(abs(mp.mpf(v) / w - 1) for v, w in zip(p0(r).tolist(), want))
        assert err <= 4.5e-16

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            p0(bad)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestP0FloatPath:
    """A float takes its own path through p0; it must match the array path bit for bit."""

    GRID = np.concatenate(
        [
            np.geomspace(1e-300, 1e-6, 2001),
            np.logspace(-6, 4, 4001),
            np.linspace(0.3 - 1e-3, 0.3 + 1e-3, 2001),
            np.nextafter(0.3, [0.0, 1.0]),
            [0.3],
        ]
    )

    def test_bit_equal_to_array_path(self):
        scalar = np.array([p0(float(r)) for r in self.GRID])
        assert np.array_equal(_bits(scalar), _bits(p0(self.GRID)))
        # any batch, small and large r mixed in any order, gives the same bits
        order = np.random.default_rng(24).permutation(self.GRID.size)
        for batch in np.array_split(order, 7):
            assert np.array_equal(_bits(scalar[batch]), _bits(p0(self.GRID[batch])))

    def test_returns_python_float(self):
        for r in (1e-3, 0.29, 0.3, 2.0, np.float64(5.0)):
            assert type(p0(r)) is float

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), np.float64("nan")])
    def test_float_domain_errors(self, bad):
        with pytest.raises(ValueError):
            p0(bad)
        with pytest.raises(ValueError):
            p0(np.array([1.0, bad]))


class TestPnFloatPath:
    """A Python float runs pn's recurrence in float arithmetic; it must match
    the one-element array path bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 64])
    def test_bit_equal_to_one_element_array(self, n):
        grid = np.logspace(-3, math.log10(2e4), 1440)
        scalar = [pn(n, r) for r in grid.tolist()]
        assert all(type(x) is float for x in scalar)
        arrays = [pn(n, np.array([r]))[0] for r in grid]
        assert np.array_equal(_bits(scalar), _bits(arrays))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_float_domain_errors(self, bad):
        with pytest.raises(ValueError):
            pn(2, bad)


class TestRatios:
    """``_ratios`` is the one backward recurrence, for a float and an array alike."""

    @pytest.mark.parametrize("depth", [None, specfun._P0_DEPTH], ids=["own-depth", "p0-depth"])
    def test_float_and_one_element_array_same_bits(self, depth):
        for r in np.logspace(-8, 4, 61).tolist():
            as_float = list(_ratios(64, 0, r, depth))
            assert all(type(x) is float for x in as_float)
            as_array = [row[0] for row in _ratios(64, 0, np.array([r]), depth)]
            assert np.array_equal(_bits(as_float), _bits(as_array)), r

    def test_yielded_row_survives_the_next_order(self):
        rows = _ratios(5, 0, np.logspace(-2, 2, 9))
        first = next(rows)
        kept = first.copy()
        for _ in rows:
            assert np.array_equal(_bits(first), _bits(kept))


class TestPn:
    def test_matches_p0(self):
        for r in (0.1, 1.0, 5.0, 20.0):
            assert pn(0, r) == pytest.approx(p0(r), rel=1e-13)

    def test_small_argument_limits(self):
        for n in range(1, 11):
            assert pn(n, 1e-8) == pytest.approx(1.0 / (2 * n + 3), rel=1e-12)

    @pytest.mark.parametrize("r", [0.5, 2.0, 10.0])
    def test_p0_p1_identity(self, r):
        assert p0(r) == pytest.approx(1.0 / (r * r * pn(1, r) + 3.0), rel=1e-13)

    def test_against_bessel_oracle(self):
        for n in range(0, 21):
            for r in R_GRID[::10]:
                assert pn(n, float(r)) == pytest.approx(pn_oracle(n, r), rel=1e-12)

    def test_bounds_and_monotonicity_grid(self):
        vals = np.array([pn(n, R_GRID) for n in range(0, 21)])
        for n in range(0, 21):
            assert np.all(vals[n] > 0.0)
            assert np.all(vals[n] <= 1.0 / (2 * n + 3) + 1e-15)
            assert np.all(np.diff(vals[n]) < 0.0), f"P_{n} not decreasing in r"
        assert np.all(vals[:-1] > vals[1:]), "P_n not decreasing in n"

    def test_p0_identity_grid(self):
        lhs = p0(R_GRID) * (R_GRID**2 * pn(1, R_GRID) + 3.0)
        assert np.max(np.abs(lhs - 1.0)) <= 1e-11

    def test_ratio_recurrence_consistency(self):
        # rho_nu = 1 / (2(nu+1)/r + rho_{nu+1}) with rho_nu = r * P_n
        for n in range(0, 5):
            nu = n + 0.5
            rho_n = R_GRID * pn(n, R_GRID)
            rho_n1 = R_GRID * pn(n + 1, R_GRID)
            recon = 1.0 / (2.0 * (nu + 1.0) / R_GRID + rho_n1)
            assert np.max(np.abs(recon / rho_n - 1.0)) <= 1e-12

    def test_high_orders_against_bessel_oracle(self):
        # no order cap: orders past the stability report's default range
        for n in (65, 100, 200):
            for r in R_GRID[::10]:
                assert pn(n, float(r)) == pytest.approx(pn_oracle(n, r), rel=1e-12)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            pn(-1, 1.0)

    def test_non_convergence_is_solver_error(self, monkeypatch):
        monkeypatch.setattr(specfun, "_CF_MAX_ITER", 2)
        with pytest.raises(SolverError):
            pn(2, 50.0)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 20, 64, 65, 100, 200])
    def test_oracle_wide_range(self, n):
        for r in np.logspace(-4, math.log10(5e4), 40):
            assert pn(n, float(r)) == pytest.approx(pn_oracle(n, r), rel=1e-14, abs=0.0)

    def test_value_independent_of_batch_and_pass(self):
        r = np.logspace(math.log10(0.5), math.log10(50.0), 200)
        alone = np.array([pn(2, x) for x in r])
        with_large = pn(2, np.append(r, 3000.0))[:-1]
        all_orders = list(_ratios(64, 0, r))[64 - 2]
        assert np.array_equal(_bits(alone), _bits(with_large))
        assert np.array_equal(_bits(alone), _bits(all_orders))

    def test_depth_past_cap_is_solver_error(self):
        with pytest.raises(SolverError):
            pn(2, 1e300)
        with pytest.raises(SolverError):
            pn_derivative(1, np.array([3e9, 6e9]))


def pn_derivative_oracle(n, r):
    def f(x):
        return mp.besseli(n + mp.mpf(3) / 2, x) / (x * mp.besseli(n + mp.mpf(1) / 2, x))

    return float(mp.diff(f, mp.mpf(float(r))))


class TestPnDerivative:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 20])
    def test_oracle(self, n):
        for r in np.logspace(-4, math.log10(3e3), 40):
            assert pn_derivative(n, float(r)) == pytest.approx(pn_derivative_oracle(n, r), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("n", [0, 2, 5])
    def test_large_argument_within_stated_bound(self, n):
        # n >= 1: P_{n+1} - P_n cancels as both tend to 1/r; n = 0 takes the
        # closed form there
        rel = 1e-12 if n == 0 else 4.0e-10
        for r in (1e2, 1e4, 1e5):
            assert pn_derivative(n, r) == pytest.approx(pn_derivative_oracle(n, r), rel=rel, abs=0.0)

    @pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
    def test_negative(self, r):
        assert pn_derivative(0, r) < 0.0

    def test_small_argument_series(self):
        r = 1e-6
        assert abs(pn_derivative(0, r) - (-2.0 * r / 45.0)) <= 1e-7

    def test_finite_difference(self):
        h = 1e-5
        fd = (pn(2, 3.0 + h) - pn(2, 3.0 - h)) / (2 * h)
        assert pn_derivative(2, 3.0) == pytest.approx(fd, rel=1e-6)

    def test_finite_difference_grid(self):
        h = 1e-5
        for n in (0, 1, 5, 20):
            for r in (0.05, 0.7, 3.0, 40.0):
                fd = (pn(n, r + h) - pn(n, r - h)) / (2 * h)
                assert pn_derivative(n, r) == pytest.approx(fd, rel=1e-6)


class TestP0Derivative:
    """pn_derivative(0, .): the closed form from r = 20, the recurrence below."""

    def test_closed_form_against_oracle(self):
        # P0' = -csch(r)^2/r - coth(r)/r^2 + 2/r^3, from the switch to r = 1e12
        for r in np.append(np.logspace(math.log10(20.0), 12, 60), 20.0):
            rm = mp.mpf(float(r))
            want = -1 / (mp.sinh(rm) ** 2 * rm) - mp.coth(rm) / rm**2 + 2 / rm**3
            assert pn_derivative(0, float(r)) == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_below_switch_is_pn_derivative(self):
        # below r = 20 the bits of r P0 (P1 - P0) from one recurrence pass
        r = np.append(np.logspace(-4, math.log10(20.0), 50)[:-1], np.nextafter(20.0, 0.0))
        p1, p0_ = _ratios(1, 0, r)
        assert np.array_equal(_bits(pn_derivative(0, r)), _bits(r * p0_ * (p1 - p0_)))
        # a batch that straddles the switch keeps the small value's bits
        assert pn_derivative(0, np.array([1.3, 6e9]))[0] == pn_derivative(0, 1.3)
        assert pn_derivative(0, np.array([1.3, 6e9]))[1] == pn_derivative(0, 6e9)

    def test_far_past_recurrence_cap(self):
        # a recurrence would need more than the depth cap here
        got = pn_derivative(0, np.array([3e9, 6e9]))
        assert np.all(got < 0.0)
        assert got == pytest.approx(-1.0 / np.array([3e9, 6e9]) ** 2, rel=1e-9)


class TestP0Inverse:
    def test_round_trip(self):
        assert p0_inverse(p0(2.0)) == pytest.approx(2.0, rel=1e-10)

    def test_residual_small_target(self):
        r = p0_inverse(1e-3)
        assert abs(p0(r) - 1e-3) <= 1e-12

    def test_known_root(self):
        # frozen from a 40-digit bisection/newton solve of coth(r)/r - 1/r^2 = 0.3
        assert p0_inverse(0.3) == pytest.approx(1.3219987430997790569, rel=1e-10)

    @pytest.mark.parametrize("y", [1e-9, 1e-12])
    def test_tiny_targets_against_oracle(self, y):
        ym = mp.mpf(y)
        root = mp.findroot(lambda r: mp.coth(r) / r - 1 / r**2 - ym, 1 / ym - 1)
        assert p0_inverse(y) == pytest.approx(float(root), rel=1e-13)

    @pytest.mark.parametrize("bad", [0.0, 1.0 / 3.0, 0.5, -0.1, float("nan")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            p0_inverse(bad)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1.0 / 3.0 - 1e-9))
    def test_inverse_property(self, y):
        r = p0_inverse(y)
        assert r > 0.0
        assert abs(p0(r) - y) <= 1e-12
