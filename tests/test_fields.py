import math

import numpy as np
import pytest

from tumordyn import (
    boundary_derivatives,
    evolve_mode,
    p_star,
    perturbed_surface,
    sigma_star,
    spherical_harmonic,
)

PHASES = np.linspace(0.0, 1.0, 64, endpoint=False)


class TestBoundaryValues:
    def test_sigma_equals_supply_on_boundary(self, default_orbit):
        for t in PHASES:
            R = default_orbit(t)
            assert sigma_star(default_orbit, R, float(t)) == pytest.approx(
                default_orbit.params.schedule(float(t)), rel=1e-14
            )

    def test_pressure_equals_curvature_on_boundary(self, default_orbit):
        gamma = default_orbit.params.gamma
        for t in PHASES:
            R = default_orbit(t)
            assert p_star(default_orbit, R, float(t)) == pytest.approx(
                gamma / R, rel=1e-12
            )

    def test_center_values_finite(self, default_orbit):
        assert math.isfinite(sigma_star(default_orbit, 0.0, 0.3))
        assert math.isfinite(p_star(default_orbit, 0.0, 0.3))

    def test_outside_domain_rejected(self, default_orbit):
        R = default_orbit(0.0)
        with pytest.raises(ValueError):
            sigma_star(default_orbit, 1.5 * R, 0.0)
        with pytest.raises(ValueError):
            p_star(default_orbit, -0.1, 0.0)


def _radial_laplacian(f, r, h=1e-4):
    d1 = (f(r + h) - f(r - h)) / (2.0 * h)
    d2 = (f(r + h) - 2.0 * f(r) + f(r - h)) / (h * h)
    return d2 + 2.0 * d1 / r


class TestInteriorEquations:
    @pytest.mark.parametrize("t", [0.0, 0.2, 0.6, 0.9])
    def test_nutrient_equation(self, default_orbit, t):
        # Laplacian(sigma) = sigma in the interior
        R = default_orbit(t)
        for frac in (0.2, 0.5, 0.8):
            r = frac * R
            lap = _radial_laplacian(lambda x: sigma_star(default_orbit, x, t), r)
            assert abs(lap - sigma_star(default_orbit, r, t)) <= 1e-6

    @pytest.mark.parametrize("t", [0.0, 0.35, 0.75])
    def test_pressure_equation(self, default_orbit, t):
        # -Laplacian(p) = mu * (sigma - sigma_tilde)
        params = default_orbit.params
        R = default_orbit(t)
        for frac in (0.3, 0.6, 0.85):
            r = frac * R
            lap = _radial_laplacian(lambda x: p_star(default_orbit, x, t), r)
            rhs = params.mu * (sigma_star(default_orbit, r, t) - params.sigma_tilde)
            assert abs(-lap - rhs) <= 1e-6


class TestBoundaryDerivatives:
    @staticmethod
    def _one_sided(f, R, h):
        d1 = (3.0 * f(R) - 4.0 * f(R - h) + f(R - 2.0 * h)) / (2.0 * h)
        d2 = (2.0 * f(R) - 5.0 * f(R - h) + 4.0 * f(R - 2.0 * h) - f(R - 3.0 * h)) / (
            h * h
        )
        return d1, d2

    @pytest.mark.parametrize("t", [0.0, 0.15, 0.4, 0.65, 0.9])
    def test_against_finite_differences(self, default_orbit, t):
        R = default_orbit(t)
        bd = boundary_derivatives(default_orbit, t)
        ds1, ds2 = self._one_sided(
            lambda r: sigma_star(default_orbit, r, t), R, 1e-4
        )
        dp1, dp2 = self._one_sided(lambda r: p_star(default_orbit, r, t), R, 1e-4)
        assert bd.dsigma_dr == pytest.approx(ds1, rel=1e-5)
        assert bd.d2sigma_dr2 == pytest.approx(ds2, rel=1e-5)
        assert bd.dp_dr == pytest.approx(dp1, rel=1e-5, abs=1e-8)
        assert bd.d2p_dr2 == pytest.approx(dp2, rel=1e-5, abs=1e-7)


class TestSphericalHarmonics:
    def test_known_low_degrees(self):
        theta, phi = 0.7, 1.3
        assert spherical_harmonic(0, 0, theta, phi) == pytest.approx(
            math.sqrt(0.25 / math.pi)
        )
        assert spherical_harmonic(1, 0, theta, phi) == pytest.approx(
            math.sqrt(0.75 / math.pi) * math.cos(theta)
        )
        expected_11 = (
            -math.sqrt(3.0 / (8.0 * math.pi))
            * math.sin(theta)
            * complex(math.cos(phi), math.sin(phi))
        )
        assert spherical_harmonic(1, 1, theta, phi) == pytest.approx(expected_11)

    def test_negative_m_relation(self):
        theta, phi = 0.9, 2.1
        for n in range(1, 6):
            for m in range(1, n + 1):
                pos = spherical_harmonic(n, m, theta, phi)
                neg = spherical_harmonic(n, -m, theta, phi)
                assert neg == pytest.approx((-1.0) ** m * np.conj(pos))

    def test_orthonormality(self):
        # Gauss-Legendre in cos(theta) x uniform trapezoid in phi is exact
        # for products of harmonics up to the tested degree
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
                expected = 1.0 if a == b else 0.0
                assert abs(inner - expected) <= 1e-10, f"<{a},{b}> = {inner}"

    @pytest.mark.parametrize("m", [0.5, 3, float("nan"), "1"])
    def test_bad_azimuthal_index(self, m):
        with pytest.raises(ValueError, match="m must be a whole number with"):
            spherical_harmonic(2, m, 0.5, 0.5)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            spherical_harmonic(-1, 0, 0.5, 0.5)
        with pytest.raises(ValueError):
            spherical_harmonic(2, 3, 0.5, 0.5)
        with pytest.raises(ValueError):
            spherical_harmonic(2, 1, 4.0, 0.5)


class TestPerturbedSurface:
    def test_zero_perturbation(self, default_orbit):
        thetas = np.linspace(0.0, math.pi, 5)
        phis = np.linspace(0.0, 2.0 * math.pi, 7)
        surf = perturbed_surface(default_orbit, [], 0.1, 0.3, thetas, phis)
        assert surf.shape == (5, 7)
        assert np.allclose(surf, default_orbit(0.3))

    def test_single_mode_shape(self, default_orbit):
        thetas = np.linspace(0.0, math.pi, 9)
        phis = np.array([0.0])
        surf = perturbed_surface(
            default_orbit, [(2, 0, 1.0)], 1e-3, 0.5, thetas, phis
        )
        base = default_orbit(0.5)
        from tumordyn import evolve_mode

        amp = evolve_mode(default_orbit, 2, 0, 1.0, 0.5)
        expected = base + 1e-3 * amp * np.real(
            spherical_harmonic(2, 0, thetas, np.zeros_like(thetas))
        )
        assert np.allclose(surf[:, 0], expected, rtol=1e-12)

    def test_equals_the_meshgrid_sum(self, default_orbit):
        # each harmonic on its own axes (Legendre on theta, e^{im phi} on phi)
        # sums to the bits of the harmonics on the full (theta, phi) grid
        modes = [(2, 0, 1.0), (3, -1, 0.5), (4, -4, 0.25), (3, 3, 0.1), (5, -2, 0.2), (0, 0, 0.3)]
        thetas = np.linspace(0.0, math.pi, 9)
        phis = np.linspace(0.0, 2.0 * math.pi, 13, endpoint=False)
        t = 1.37
        th, ph = np.meshgrid(thetas, phis, indexing="ij")
        total = np.zeros_like(th, dtype=complex)
        for n, m, rho0 in modes:
            total += evolve_mode(default_orbit, n, m, rho0, t) * spherical_harmonic(n, m, th, ph)
        want = default_orbit(t) + 1e-3 * np.real(total)
        assert np.array_equal(perturbed_surface(default_orbit, modes, 1e-3, t, thetas, phis), want)

    def test_fractional_m_rejected(self, default_orbit):
        with pytest.raises(ValueError, match="m must be a whole number with"):
            perturbed_surface(default_orbit, [(2, 0, 1.0), (2, 0.5, 1.0)], 1e-3, 0.5, [1.0], [0.0])

    def test_large_perturbation_warns(self, default_orbit):
        with pytest.warns(UserWarning):
            perturbed_surface(
                default_orbit, [(2, 0, 1.0)], 10.0, 0.0, [1.0], [0.0]
            )
