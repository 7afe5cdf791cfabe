"""Window scale schedule and the tanh/sech weight families."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from abcdsim import Grid, T_MIN, WeightSet, scheduled_weights, weight_set, window_scale, window_scale_rate
from oracles import uniform_psi_weights


def _fd(f, t, tau=1e-5):
    return (f(t + tau) - f(t - tau)) / (2.0 * tau)


class TestSchedule:
    def test_closed_form_value(self):
        t = 40.0
        lt = math.log(t)
        llt = math.log(lt)
        npt.assert_allclose(window_scale(t), t / (lt * llt**2), rtol=1e-15)

    @pytest.mark.parametrize("t", [11.05, 15.0, 40.0, 200.0, 5000.0])
    def test_rate_matches_finite_difference(self, t):
        # stencil points stay above T_MIN for every sampled t
        npt.assert_allclose(window_scale_rate(t), _fd(window_scale, t), rtol=1e-7)

    def test_rate_changes_sign(self):
        # the window first shrinks slightly, then grows for good
        assert window_scale_rate(11.0) < 0
        assert window_scale_rate(30.0) > 0

    def test_scale_grows_without_bound(self):
        assert window_scale(1e4) > window_scale(1e3) > window_scale(100.0)

    @pytest.mark.parametrize("t", [10.99, 5.0, 0.0, -3.0])
    def test_domain_guard(self, t):
        with pytest.raises(ValueError):
            window_scale(t)
        with pytest.raises(ValueError):
            window_scale_rate(t)


class TestSpatialDerivatives:
    def setup_method(self):
        self.g = Grid(40 * np.pi, 512)
        self.lam = 10.0
        self.w = weight_set(self.g, self.lam)

    def _fd_x(self, field_of_x, tau=1e-6):
        x = self.g.x
        return (field_of_x(x + tau) - field_of_x(x - tau)) / (2.0 * tau)

    def test_phi_and_psi_values(self):
        y = self.g.x / self.lam
        npt.assert_allclose(self.w.phi, np.tanh(y), rtol=1e-15)
        npt.assert_allclose(self.w.psi, np.cosh(y) ** -4.0, rtol=1e-13)

    def test_dphi_matches_finite_difference(self):
        want = self._fd_x(lambda x: np.tanh(x / self.lam))
        npt.assert_allclose(self.w.dphi, want, atol=1e-10)

    def test_d2phi_matches_finite_difference_of_dphi(self):
        want = self._fd_x(lambda x: np.cosh(x / self.lam) ** -2.0 / self.lam)
        npt.assert_allclose(self.w.d2phi, want, atol=1e-10)

    def test_d3phi_matches_finite_difference_of_d2phi(self):
        lam = self.lam

        def d2(x):
            y = x / lam
            return -2.0 * np.tanh(y) / (np.cosh(y) ** 2 * lam**2)

        npt.assert_allclose(self.w.d3phi, self._fd_x(d2), atol=1e-10)

    def test_dpsi_matches_finite_difference(self):
        want = self._fd_x(lambda x: np.cosh(x / self.lam) ** -4.0)
        npt.assert_allclose(self.w.dpsi, want, atol=1e-10)

    def test_d2psi_matches_finite_difference_of_dpsi(self):
        lam = self.lam

        def d1(x):
            y = x / lam
            return -4.0 * np.tanh(y) / (np.cosh(y) ** 4 * lam)

        npt.assert_allclose(self.w.d2psi, self._fd_x(d1), atol=1e-10)

    def test_dphi_is_positive_and_even(self):
        assert np.all(self.w.dphi > 0)
        npt.assert_allclose(self.w.dphi[1:], self.w.dphi[1:][::-1], rtol=1e-12)


class TestTimeDerivatives:
    def test_moving_scale_fields_match_finite_difference(self):
        g = Grid(40 * np.pi, 256)
        lam, dlam = 9.0, 0.37
        w = weight_set(g, lam, dlam)
        tau = 1e-6

        wp = weight_set(g, lam + tau * dlam)
        wm = weight_set(g, lam - tau * dlam)
        npt.assert_allclose(w.dt_phi, (wp.phi - wm.phi) / (2 * tau), atol=1e-9)
        npt.assert_allclose(w.dt_dphi, (wp.dphi - wm.dphi) / (2 * tau), atol=1e-9)
        npt.assert_allclose(w.dt_psi, (wp.psi - wm.psi) / (2 * tau), atol=1e-9)

    def test_static_weight_has_zero_time_fields(self):
        g = Grid(40 * np.pi, 256)
        w = weight_set(g, 12.0)
        assert w.dlam == 0.0
        assert not np.any(w.dt_phi)
        assert not np.any(w.dt_dphi)
        assert not np.any(w.dt_psi)


class TestPointwiseBounds:
    @pytest.mark.parametrize("lam", [5.0, 10.0, 50.0])
    def test_psi_gradient_controlled_by_psi(self, lam):
        g = Grid(40 * np.pi, 512)
        w = weight_set(g, lam)
        assert np.all(np.abs(w.dpsi) <= 4.0 * w.psi / lam + 1e-30)

    @pytest.mark.parametrize("lam", [5.0, 10.0, 50.0])
    def test_psi_curvature_controlled_by_psi(self, lam):
        # |psi''| <= 20 psi / lam^2 (the sech^2 - 4 tanh^2 factor is at
        # most 4 in magnitude, with value 1 at the origin)
        g = Grid(40 * np.pi, 512)
        w = weight_set(g, lam)
        assert np.all(np.abs(w.d2psi) <= 20.0 * w.psi / lam**2 + 1e-30)


class TestAssembly:
    def test_scheduled_weights_compose_scale_and_rate(self):
        g = Grid(40 * np.pi, 256)
        t = 37.0
        got = scheduled_weights(g, t)
        want = weight_set(g, window_scale(t), window_scale_rate(t))
        npt.assert_allclose(got.phi, want.phi, rtol=0)
        npt.assert_allclose(got.dt_psi, want.dt_psi, rtol=0)
        assert got.lam == want.lam and got.dlam == want.dlam

    def test_uniform_psi_limit(self):
        g = Grid(40 * np.pi, 256)
        w = uniform_psi_weights(g)
        assert np.all(w.psi == 1.0)
        assert not np.any(w.dpsi) and not np.any(w.phi)
        assert w.lam == math.inf

    def test_nonpositive_scale_rejected(self):
        g = Grid(40 * np.pi, 256)
        with pytest.raises(ValueError):
            weight_set(g, 0.0)
