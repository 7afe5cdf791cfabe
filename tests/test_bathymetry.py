"""Moving-bottom presets, derivative consistency, and the hypothesis audit."""

import json
from dataclasses import fields

import numpy as np
import numpy.testing as npt
import pytest

from abcdsim import (
    BathymetrySamples,
    Grid,
    decaying_bump,
    flat_bottom,
    hypothesis_report,
    smooth_switch_bump,
    static_bump,
    traveling_ripple,
)

SECH2_H1 = np.sqrt(12.0 / 5.0)  # H1 norm of sech^2 with unit width
SECH2_DX_MAX = 4.0 / (3.0 * np.sqrt(3.0))  # max |d/dx sech^2|


@pytest.fixture(scope="module")
def grid():
    return Grid(20 * np.pi, 256)


class TestPresetAlgebra:
    def test_flat_bottom_is_flat(self, grid):
        b = flat_bottom()
        assert b.is_flat
        bs = b.sample(grid, 3.0)
        assert bs.zero
        assert not np.any(bs.h)
        assert not np.any(bs.dt_h)

    def test_decaying_bump_time_structure(self, grid):
        b = decaying_bump(1e-3, width=2.0, center=0.0)
        bs = b.sample(grid, 0.7)
        # exponential clock: each time derivative flips the sign
        npt.assert_allclose(bs.dt_h, -bs.h, rtol=1e-13)
        npt.assert_allclose(bs.dtt_h, bs.h, rtol=1e-13)
        npt.assert_allclose(bs.dt_dx_h, -bs.dx_h, rtol=1e-13)
        npt.assert_allclose(bs.dtt_dx_h, bs.dx_h, rtol=1e-13)
        # peak value at the center node
        j0 = np.argmin(np.abs(grid.x))
        npt.assert_allclose(bs.h[j0], 1e-3 * np.exp(-0.7), rtol=1e-12)
        npt.assert_allclose(bs.dx_h[j0], 0.0, atol=1e-15)

    def test_decaying_bump_clock_offset(self, grid):
        b = decaying_bump(1e-3, width=2.0, t0=11.0)
        bs = b.sample(grid, 11.0)
        j0 = np.argmin(np.abs(grid.x))
        npt.assert_allclose(bs.h[j0], 1e-3, rtol=1e-13)

    def test_static_bump_has_no_time_derivatives(self, grid):
        b = static_bump(5e-3, width=1.5)
        assert not b.is_flat
        bs = b.sample(grid, 2.0)
        assert np.max(np.abs(bs.h)) > 0
        for f in (bs.dt_h, bs.dtt_h, bs.dt_dx_h, bs.dtt_dx_h, bs.dt_dxx_h, bs.dtt_dxx_h):
            assert not np.any(f)

    def test_smooth_switch_plateau_and_shutoff(self, grid):
        b = smooth_switch_bump(2e-3, width=1.0, t_on=1.0, t_off=3.0)
        before = b.sample(grid, 0.5)
        after = b.sample(grid, 3.5)
        j0 = np.argmin(np.abs(grid.x))
        npt.assert_allclose(before.h[j0], 2e-3, rtol=1e-13)
        assert not np.any(before.dt_h)
        assert not np.any(after.h)
        assert not np.any(after.dt_h)
        mid = b.sample(grid, 2.0)
        assert np.any(mid.dt_h)

    def test_traveling_ripple_oscillates_in_x(self, grid):
        b = traveling_ripple(1e-3, width=4.0, k0=2.0)
        bs = b.sample(grid, 0.0)
        npt.assert_allclose(bs.dt_h, -bs.h, rtol=1e-12)
        # the envelope peak carries the oscillation value
        j0 = np.argmin(np.abs(grid.x))
        npt.assert_allclose(bs.h[j0], 1e-3, rtol=1e-12)
        # sign changes under the envelope
        assert np.min(bs.h) < 0 < np.max(bs.h)

    def test_profile_follows_the_grid_after_ids_are_reused(self):
        # each grid is freed at `del` (it holds no reference cycles), so the
        # next one often gets its id; the cached profile must still be the
        # one of the grid being sampled
        b = decaying_bump(1e-3, width=2.0)
        wrong = 0
        for L in range(10, 210):
            g = Grid(float(L), 256)
            fresh = decaying_bump(1e-3, width=2.0).sample(g, 0.0).h
            if not np.array_equal(b.sample(g, 0.0).h, fresh):
                wrong += 1
            del g
        assert wrong == 0


class TestCarriedSpectra:
    """A sample carries the rfft of the fields the forcing reads, scaled
    from the profile's spectra, which are built once per grid."""

    FIELDS = ("h", "dt_h", "dt_dxx_h", "dtt_dx_h", "dtt_dxx_h")

    @pytest.mark.parametrize("make, times", [
        (lambda: decaying_bump(1e-3, width=2.0, center=1.3, t0=11.0), (11.0, 12.7)),
        # plateau, ramp, and past t_off (tau = 0: every row exactly zero)
        (lambda: smooth_switch_bump(2e-3, width=1.0, t_on=1.0, t_off=3.0), (0.5, 2.1, 3.5)),
        (lambda: traveling_ripple(1e-3, width=3.0, k0=1.5), (0.0, 0.8)),
        # tau' = tau'' = 0: rows 1-4 exactly zero
        (lambda: static_bump(5e-3, width=1.5), (2.0,)),
    ], ids=["decaying-bump", "smooth-switch", "traveling-ripple", "static-bump"])
    def test_spectra_are_the_rfft_of_the_fields(self, grid, make, times):
        b = make()
        for t in times:
            bs = b.sample(grid, t)
            want = np.fft.rfft(np.stack([getattr(bs, k) for k in self.FIELDS]))
            assert bs.spectra.shape == want.shape
            assert np.max(np.abs(bs.spectra - want)) <= 1e-14 * np.max(np.abs(want)), t
        assert not b.spectra(grid).flags.writeable  # shared by every run on this grid

    def test_profile_spectra_are_built_once_per_grid(self, grid, transform_calls):
        b = decaying_bump(1e-3, width=2.0)
        b.sample(grid, 0.0)
        transform_calls.clear()
        for t in (0.0, 0.5, 1.0):
            b.sample(grid, t).spectra
        assert b.spectra(grid) is b.spectra(Grid(grid.L, grid.N))
        assert transform_calls == []
        b.sample(Grid(grid.L, 2 * grid.N), 0.0)
        # one stacked transform for a new grid
        assert [(name, a.shape) for name, a in transform_calls] == [("_rfft", (3, 2 * grid.N))]

    def test_a_hand_built_sample_transforms_its_fields(self, grid):
        bs = decaying_bump(1e-3, width=2.0).sample(grid, 0.4)
        hand = BathymetrySamples(**{f.name: getattr(bs, f.name) for f in fields(bs)})
        want = np.fft.rfft(np.stack([getattr(bs, k) for k in self.FIELDS]))
        assert np.array_equal(hand.spectra, want)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("make", [
        lambda: decaying_bump(1e-3, width=2.0, center=1.3),
        lambda: smooth_switch_bump(2e-3, width=1.0, t_on=1.0, t_off=3.0),
        lambda: traveling_ripple(1e-3, width=3.0, k0=1.5),
    ])
    def test_time_derivatives_match_finite_differences(self, grid, make):
        b = make()
        tau = 1e-4
        for t in (0.4, 1.7, 2.5):
            p = b.sample(grid, t + tau)
            m = b.sample(grid, t - tau)
            c = b.sample(grid, t)
            scale = max(np.max(np.abs(c.h)), 1e-12)
            for fd_pair, anal in [
                ((p.h, m.h), c.dt_h),
                ((p.dt_h, m.dt_h), c.dtt_h),
                ((p.dx_h, m.dx_h), c.dt_dx_h),
                ((p.dt_dx_h, m.dt_dx_h), c.dtt_dx_h),
            ]:
                fd = (fd_pair[0] - fd_pair[1]) / (2 * tau)
                assert np.max(np.abs(fd - anal)) < 1e-6 * scale

    def test_space_derivatives_match_spectral_differentiation(self):
        # a well-resolved profile on a fine grid: the closed-form x
        # derivatives must agree with spectral differentiation of h
        fine = Grid(20 * np.pi, 1024)
        b = decaying_bump(1e-3, width=1.5)
        bs = b.sample(fine, 0.3)
        npt.assert_allclose(fine.deriv(bs.h), bs.dx_h, atol=1e-14)
        npt.assert_allclose(fine.deriv(bs.dt_h), bs.dt_dx_h, atol=1e-14)
        npt.assert_allclose(fine.deriv(bs.dt_h, 2), bs.dt_dxx_h, atol=1e-13)
        npt.assert_allclose(fine.deriv(bs.dtt_h, 2), bs.dtt_dxx_h, atol=1e-13)

    def test_second_clock_derivative_by_double_difference(self, grid):
        b = smooth_switch_bump(1e-3, width=1.0, t_on=1.0, t_off=3.0)
        tau = 1e-3
        t = 2.1
        p, c, m = (b.sample(grid, t + s) for s in (tau, 0.0, -tau))
        fd2 = (p.h - 2 * c.h + m.h) / tau**2
        assert np.max(np.abs(fd2 - c.dtt_h)) < 1e-5 * np.max(np.abs(c.h))


class TestHypothesisAudit:
    def test_flat_bottom_passes_trivially(self, grid):
        rep = hypothesis_report(flat_bottom(), grid, t_max=10.0, eps=1e-3)
        assert rep.passed
        assert rep.smallness_value == 0.0
        assert rep.flux_value == 0.0

    def test_flat_bottom_report_is_all_zero_norms(self, grid):
        # the general path, run on h = 0, gives exactly these values and types
        d = hypothesis_report(flat_bottom(), grid, t_max=10.0, eps=1e-3, c_const=8.0).as_dict()
        want = dict(
            t_max=10.0, eps=1e-3, c_const=8.0,
            sup_w2inf_h1=0.0, l1t_h1_dt=0.0, l1t_h1_dtt=0.0, l1t_linf_dx=0.0,
            smallness_value=0.0, smallness_bound=8.0 * 1e-3, smallness_ok=True,
            flux_value=0.0, flux_bound=8.0, flux_ok=True, passed=True,
        )
        assert d == want
        assert [type(v) for v in d.values()] == [type(want[k]) for k in d]
        assert json.dumps(d, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_decaying_bump_against_closed_forms(self, grid):
        eps, T = 1e-3, 50.0
        rep = hypothesis_report(decaying_bump(eps, width=1.0), grid, t_max=T,
                                eps=eps, c_const=8.0)
        decay_mass = 1.0 - np.exp(-T)
        npt.assert_allclose(rep.l1t_h1_dt, eps * SECH2_H1 * decay_mass, rtol=1e-6)
        npt.assert_allclose(rep.l1t_h1_dtt, eps * SECH2_H1 * decay_mass, rtol=1e-6)
        npt.assert_allclose(rep.sup_w2inf_h1, 3.0 * eps * SECH2_H1, rtol=1e-6)
        npt.assert_allclose(rep.l1t_linf_dx, eps * SECH2_DX_MAX * decay_mass, rtol=1e-6)
        npt.assert_allclose(
            rep.smallness_value, eps * SECH2_H1 * (3.0 + 2.0 * decay_mass), rtol=1e-6
        )
        assert rep.smallness_ok and rep.flux_ok and rep.passed

    def test_decaying_bump_fails_with_tight_constant(self, grid):
        rep = hypothesis_report(decaying_bump(1e-3, width=1.0), grid, t_max=50.0,
                                eps=1e-3, c_const=1.0)
        # the smallness sum is about 7.7 eps, well above 1.0 eps
        assert not rep.smallness_ok
        assert not rep.passed

    def test_static_bump_flux_grows_linearly_and_fails(self, grid):
        eps = 1e-3
        r1 = hypothesis_report(static_bump(eps, width=1.0), grid, t_max=2000.0,
                               eps=eps, c_const=1.0)
        r2 = hypothesis_report(static_bump(eps, width=1.0), grid, t_max=4000.0,
                               eps=eps, c_const=1.0)
        npt.assert_allclose(r1.flux_value, 2000.0 * eps * SECH2_DX_MAX, rtol=1e-6)
        npt.assert_allclose(r2.flux_value / r1.flux_value, 2.0, rtol=1e-9)
        assert not r2.flux_ok
        assert not r2.passed

    def test_values_are_monotone_in_the_horizon(self, grid):
        b = decaying_bump(1e-3, width=1.0)
        r1 = hypothesis_report(b, grid, t_max=1.0, eps=1e-3, c_const=8.0)
        r2 = hypothesis_report(b, grid, t_max=3.0, eps=1e-3, c_const=8.0)
        assert r2.l1t_h1_dt > r1.l1t_h1_dt
        assert r2.l1t_linf_dx > r1.l1t_linf_dx
        assert r2.sup_w2inf_h1 == r1.sup_w2inf_h1

    def test_report_serializes_to_plain_dict(self, grid):
        rep = hypothesis_report(decaying_bump(1e-3), grid, t_max=5.0, eps=1e-3)
        d = rep.as_dict()
        assert d["t_max"] == 5.0
        assert set(d) == set(rep.__dataclass_fields__)

    def test_nonpositive_horizon_rejected(self, grid):
        with pytest.raises(ValueError):
            hypothesis_report(flat_bottom(), grid, t_max=0.0, eps=1e-3)
