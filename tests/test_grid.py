"""Spectral grid operators: derivatives, smoothing inverse, products, quadrature."""

import numpy as np
import numpy.testing as npt
import pytest

from abcdsim import Grid, State
from oracles import mult


class TestConstruction:
    def test_nodes_tile_the_half_open_box(self):
        g = Grid(np.pi, 32)
        assert g.N == 32
        npt.assert_allclose(g.dx, 2 * np.pi / 32, rtol=1e-15)
        npt.assert_allclose(g.x[0], -np.pi, rtol=1e-15)
        npt.assert_allclose(g.x[-1], np.pi - g.dx, rtol=1e-14)
        npt.assert_allclose(np.diff(g.x), g.dx, rtol=1e-13)

    def test_half_spectrum_wavenumbers_are_integer_multiples(self):
        # with half length pi the modes are k_m = m, m = 0..N/2
        g = Grid(np.pi, 32)
        npt.assert_allclose(g.k, np.arange(17.0), atol=1e-12)

    @pytest.mark.parametrize("bad", [15, 17, 8, 0, -32])
    def test_rejects_bad_node_counts(self, bad):
        with pytest.raises(ValueError):
            Grid(np.pi, bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_half_lengths(self, bad):
        with pytest.raises(ValueError):
            Grid(bad, 32)

    def test_check_rejects_wrong_shape_and_complex(self):
        g = Grid(np.pi, 32)
        with pytest.raises(ValueError):
            g.check(np.zeros(31))
        with pytest.raises(ValueError):
            g.check(np.zeros(32, dtype=complex))

    def test_compatible(self):
        g = Grid(np.pi, 32)
        assert g.compatible(Grid(np.pi, 32))
        assert not g.compatible(Grid(np.pi, 64))
        assert not g.compatible(Grid(2 * np.pi, 32))


class TestDerivatives:
    def test_first_derivative_of_single_mode(self):
        g = Grid(np.pi, 64)
        u = np.sin(3.0 * g.x)
        npt.assert_allclose(g.deriv(u), 3.0 * np.cos(3.0 * g.x), atol=1e-12)

    def test_second_and_third_derivatives(self):
        g = Grid(np.pi, 64)
        u = np.sin(3.0 * g.x)
        npt.assert_allclose(g.deriv(u, 2), -9.0 * np.sin(3.0 * g.x), atol=1e-11)
        npt.assert_allclose(g.deriv(u, 3), -27.0 * np.cos(3.0 * g.x), atol=1e-10)

    def test_derivative_output_is_real(self):
        g = Grid(np.pi, 64)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(g.N)
        d = g.deriv(u)
        assert d.dtype == np.float64

    def test_derivative_of_constant_is_zero(self):
        g = Grid(np.pi, 32)
        npt.assert_allclose(g.deriv(np.full(g.N, 2.5)), 0.0, atol=1e-14)


class TestHelmholtzInverse:
    def test_inverts_one_minus_laplacian_on_a_mode(self):
        g = Grid(np.pi, 64)
        u = np.sin(3.0 * g.x)
        npt.assert_allclose(g.helmholtz_inverse(10.0 * u), u, atol=1e-13)

    def test_roundtrip_on_random_field(self):
        g = Grid(np.pi, 64)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(g.N)
        v = g.helmholtz_inverse(u)
        npt.assert_allclose(v - g.deriv(v, 2), u, atol=1e-11)

    def test_l2_contraction_bounds(self):
        # symbol 1/(1+k^2) <= 1 and k/(1+k^2) <= 1/2, so both maps contract
        g = Grid(20 * np.pi, 128)
        rng = np.random.default_rng(2)
        for _ in range(100):
            u = rng.standard_normal(g.N)
            nu = g.l2_norm(u)
            assert g.l2_norm(g.helmholtz_inverse(u)) <= nu * (1 + 1e-12)
            assert g.l2_norm(g.helmholtz_inverse(g.deriv(u))) <= nu * (1 + 1e-12)


class TestQuadrature:
    def test_integrates_constants_and_modes_exactly(self):
        g = Grid(np.pi, 32)
        npt.assert_allclose(g.integrate(np.full(g.N, 2.0)), 4.0 * np.pi, rtol=1e-14)
        npt.assert_allclose(g.integrate(np.sin(3.0 * g.x) ** 2), np.pi, rtol=1e-13)

    def test_l2_norm_of_single_mode(self):
        g = Grid(np.pi, 32)
        npt.assert_allclose(g.l2_norm(np.sin(3.0 * g.x)), np.sqrt(np.pi), rtol=1e-13)

    def test_integration_by_parts_is_exact_for_resolved_fields(self):
        g = Grid(np.pi, 64)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(g.N)
        v = rng.standard_normal(g.N)
        # band-limit both so the product of u and dv is resolved
        u = g.from_hat(np.where(g.k <= 10, g.hat(u), 0.0))
        v = g.from_hat(np.where(g.k <= 10, g.hat(v), 0.0))
        lhs = g.integrate(u * g.deriv(v))
        rhs = -g.integrate(g.deriv(u) * v)
        npt.assert_allclose(lhs, rhs, atol=1e-13)


class TestDealiasedProduct:
    def test_matches_pointwise_product_when_fully_resolved(self):
        g = Grid(np.pi, 32)
        u = np.cos(3.0 * g.x)
        v = np.cos(4.0 * g.x)
        npt.assert_allclose(mult(g, u, v), u * v, atol=1e-14)

    def test_projects_unresolvable_sum_mode_instead_of_aliasing(self):
        g = Grid(np.pi, 32)
        u = np.cos(10.0 * g.x)
        v = np.cos(9.0 * g.x)
        # true product is cos(19x)/2 + cos(x)/2; mode 19 cannot live on
        # this grid and must be cut, not folded back
        got = mult(g, u, v)
        npt.assert_allclose(got, 0.5 * np.cos(g.x), atol=1e-13)
        # the raw pointwise product would fold mode 19 onto mode 13
        aliased = u * v
        c13 = 2.0 * g.integrate(aliased * np.cos(13.0 * g.x)) / (2.0 * g.L)
        assert abs(c13) > 0.4

    def test_product_has_no_nyquist_content(self):
        g = Grid(np.pi, 32)
        rng = np.random.default_rng(4)
        u = rng.standard_normal(g.N)
        v = rng.standard_normal(g.N)
        w = mult(g, u, v)
        assert abs(g.hat(w)[-1]) < 1e-13


class TestTransforms:
    def test_hat_roundtrip(self):
        g = Grid(np.pi, 32)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(g.N)
        npt.assert_allclose(g.from_hat(g.hat(u)), u, atol=1e-13)

    def test_nyquist_mode_is_dropped_by_odd_symbols(self):
        g = Grid(np.pi, 32)
        u = np.cos(16.0 * g.x)  # pure Nyquist content
        npt.assert_allclose(g.deriv(u), 0.0, atol=1e-12)


class TestCanonicalPair:
    def test_single_mode_scaling(self):
        g = Grid(np.pi, 64)
        eta = np.cos(2.0 * g.x)
        u = np.cos(5.0 * g.x)
        s = State(g, eta, u, 0.0)
        f, h = g.helmholtz_inverse(s.u), g.helmholtz_inverse(s.eta)
        npt.assert_allclose(f, np.cos(5.0 * g.x) / 26.0, atol=1e-13)
        npt.assert_allclose(h, np.cos(2.0 * g.x) / 5.0, atol=1e-13)
