"""Time integration of the inverted system with bottom forcing."""

import numpy as np
import numpy.testing as npt
import pytest

from abcdsim import (
    AbcdParams,
    BlowUp,
    CflViolation,
    Grid,
    NonFinite,
    SimConfig,
    State,
    decaying_bump,
    flat_bottom,
    gaussian_pair,
    max_group_speed,
    random_bandlimited_pair,
    rhs,
    run,
    smooth_switch_bump,
    state_h1_norm,
    static_bump,
    step_rk4,
    traveling_ripple,
    zero_pair,
)
from abcdsim.diagnostics import hamiltonian_h
from abcdsim.bathymetry import Bathymetry, BathymetrySamples
from oracles import (
    AllocatingKernel,
    allocating_bottom_at,
    allocating_rhs,
    allocating_run_coeffs,
    from_fine,
    to_fine,
)


@pytest.fixture(scope="module")
def grid():
    return Grid(np.pi, 64)


# -- physical-space reference stepper ------------------------------------
# A transform round trip per stage, one bottom sample per stage time and
# one transform per field; run() must agree with it to round-off.

def _reference_rhs(s, bs, p):
    g = s.grid
    uh = g.hat(s.u)
    eh = g.hat(s.eta)
    ik = g._ik
    hel = g._helm
    k2 = g.k2

    uf = to_fine(g, uh)
    if bs.zero:
        sf = to_fine(g, eh)
    else:
        sf = to_fine(g, g.hat(s.eta + bs.h))
    p_us = from_fine(g, uf * sf)  # dealiased u*(eta+h)
    p_uu = from_fine(g, uf * uf)  # dealiased u^2

    deta_hat = ik * hel * ((p.a * k2 - 1.0) * uh - p_us)
    du_hat = ik * hel * ((p.c * k2 - 1.0) * eh - 0.5 * p_uu)
    if not bs.zero:
        deta_hat += hel * g.hat(p.a1 * bs.dt_dxx_h - bs.dt_h)
        du_hat += p.c1 * hel * g.hat(bs.dtt_dx_h)
    return g.from_hat(deta_hat), g.from_hat(du_hat)


def _reference_step(s, dt, b, p):
    g = s.grid
    t = s.t
    k1e, k1u = _reference_rhs(s, b.sample(g, t), p)
    mid = b.sample(g, t + 0.5 * dt)
    s2 = State(g, s.eta + 0.5 * dt * k1e, s.u + 0.5 * dt * k1u, t + 0.5 * dt)
    k2e, k2u = _reference_rhs(s2, mid, p)
    s3 = State(g, s.eta + 0.5 * dt * k2e, s.u + 0.5 * dt * k2u, t + 0.5 * dt)
    k3e, k3u = _reference_rhs(s3, mid, p)
    end = b.sample(g, t + dt)
    s4 = State(g, s.eta + dt * k3e, s.u + dt * k3u, t + dt)
    k4e, k4u = _reference_rhs(s4, end, p)
    eta = s.eta + (dt / 6.0) * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
    u = s.u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    return State(g, eta, u, t + dt)


def _reference_run(cfg):
    s = State(cfg.grid, cfg.eta0, cfg.u0, cfg.t_start)
    snaps = [s]
    n_total = int(round((cfg.t_end - cfg.t_start) / cfg.dt))
    for n in range(1, n_total + 1):
        s = _reference_step(s, cfg.dt, cfg.bathymetry, cfg.params)
        s.t = cfg.t_start + n * cfg.dt
        if n % cfg.snapshot_every == 0 or n == n_total:
            snaps.append(s)
    return snaps


def _flat_samples(g, t=0.0):
    return flat_bottom().sample(g, t)


class TestRhsOracles:
    def test_zero_state_flat_bottom_is_stationary(self, grid):
        s = State(grid, *zero_pair(grid), 0.0)
        de, du = rhs(s, _flat_samples(grid), AbcdParams(a=-1.0, c=-1.0))
        assert not np.any(de) and not np.any(du)

    def test_zero_state_static_bottom_is_stationary(self, grid):
        # a motionless bottom exerts no forcing
        b = static_bump(1e-2, width=1.0)
        s = State(grid, *zero_pair(grid), 0.0)
        de, du = rhs(s, b.sample(grid, 0.0), AbcdParams(a=-1.0, c=-1.0, a1=0.3, c1=0.6))
        assert not np.any(de) and not np.any(du)

    def test_single_cosine_against_hand_computed_rates(self, grid):
        # a = -1 makes the dispersive symbol collapse: surface rate is
        # -dx u; velocity rate reduces to the quadratic transport term
        p = AbcdParams(a=-1.0, c=-1.0)
        u = np.cos(grid.x)
        s = State(grid, np.zeros(grid.N), u, 0.0)
        de, du = rhs(s, _flat_samples(grid), p)
        npt.assert_allclose(de, np.sin(grid.x), atol=1e-13)
        npt.assert_allclose(du, np.sin(2.0 * grid.x) / 10.0, atol=1e-13)

    def test_linear_rates_for_general_parameters(self, grid):
        # tiny amplitude: quadratic terms are below round-off, leaving
        # the symbol k (1 - a k^2)/(1 + k^2) acting mode by mode
        a, c = -0.6, -0.25
        p = AbcdParams(a=a, c=c)
        amp = 1e-9
        k = 3.0
        eta = amp * np.cos(k * grid.x)
        u = amp * np.sin(k * grid.x)
        s = State(grid, eta, u, 0.0)
        de, du = rhs(s, _flat_samples(grid), p)
        sig_a = k * (1.0 - a * k * k) / (1.0 + k * k)
        sig_c = k * (1.0 - c * k * k) / (1.0 + k * k)
        npt.assert_allclose(de, -sig_a * amp * np.cos(k * grid.x), atol=1e-17)
        npt.assert_allclose(du, sig_c * amp * np.sin(k * grid.x), atol=1e-17)

    def test_bottom_forcing_from_quiescent_water(self):
        # zero fields over a decaying bump: the rates are pure forcing,
        # reproducible by direct symbol arithmetic on the transforms
        # the profile tail must sit below round-off at the mode cutoff,
        # since the oracle differentiates spectrally while the rates use
        # the closed-form profile derivatives
        g = Grid(20 * np.pi, 512)
        b = decaying_bump(2e-3, width=2.0)
        p = AbcdParams(a=-1.0, c=-1.0, a1=0.3135, c1=0.5635)
        s = State(g, *zero_pair(g), 0.0)
        bs = b.sample(g, 0.0)
        de, du = rhs(s, bs, p)
        # surface forcing (1 - a1 dxx) applied to -dt h, smoothed
        want_eta = np.fft.irfft(
            (1.0 + p.a1 * g.k2) / (1.0 + g.k2) * np.fft.rfft(-bs.dt_h), g.N
        )
        # velocity forcing c1 dx dtt h, smoothed
        want_u = np.fft.irfft(
            p.c1 * (1j * g.k) / (1.0 + g.k2) * np.fft.rfft(bs.dtt_h), g.N
        )
        npt.assert_allclose(de, want_eta, atol=1e-14)
        npt.assert_allclose(du, want_u, atol=1e-14)

    def test_grid_mismatch_rejected(self, grid):
        other = Grid(np.pi, 128)
        s = State(grid, *zero_pair(grid), 0.0)
        with pytest.raises(ValueError):
            rhs(s, _flat_samples(other), AbcdParams(a=-1.0, c=-1.0))


class TestGroupSpeed:
    def test_nondispersive_corner(self, grid):
        # at a = c = -1 the phase speed is exactly 1 for every mode
        npt.assert_allclose(max_group_speed(AbcdParams(a=-1.0, c=-1.0), grid), 1.0, rtol=1e-9)

    def test_matches_dense_numerical_scan(self, grid):
        a, c = -0.5, -0.2
        p = AbcdParams(a=a, c=c)
        ks = np.linspace(1e-6, grid.k[-1], 20001)
        om = ks * np.sqrt((1.0 - a * ks**2) * (1.0 - c * ks**2)) / (1.0 + ks**2)
        vg = np.gradient(om, ks)
        want = np.max(np.abs(vg))
        got = max_group_speed(p, grid)
        npt.assert_allclose(got, want, rtol=1e-3)


class TestSingleModeEvolution:
    def test_matches_exact_linear_solution(self):
        # small amplitude single mode: the semidiscrete system is a 2x2
        # oscillator per mode with an explicit solution
        g = Grid(np.pi, 64)
        a, c = -0.8, -0.45
        p = AbcdParams(a=a, c=c)
        k = 4.0
        amp = 1e-8
        eta0 = amp * np.cos(k * g.x)
        u0 = np.zeros(g.N)
        sig_a = k * (1.0 - a * k * k) / (1.0 + k * k)
        sig_c = k * (1.0 - c * k * k) / (1.0 + k * k)
        om = np.sqrt(sig_a * sig_c)
        T = 1.0
        cfg = SimConfig(params=p, bathymetry=flat_bottom(), grid=g,
                        eta0=eta0, u0=u0, dt=1e-3, t_end=T)
        res = run(cfg)
        s = res.final_state
        # eta(t) = amp cos(om t) cos(kx); u(t) = amp (sig_c/om) sin(om t) sin(kx)
        npt.assert_allclose(s.eta, amp * np.cos(om * T) * np.cos(k * g.x),
                            atol=amp * 1e-6)
        npt.assert_allclose(s.u, amp * (sig_c / om) * np.sin(om * T) * np.sin(k * g.x),
                            atol=amp * 1e-6)


class TestAccuracy:
    def _final_state(self, g, p, b, dt, t_end=0.5):
        eta0, u0 = gaussian_pair(g, eps=5e-2, width=2.0)
        cfg = SimConfig(params=p, bathymetry=b, grid=g, eta0=eta0, u0=u0,
                        dt=dt, t_end=t_end)
        return run(cfg).final_state

    def test_fourth_order_self_convergence(self):
        g = Grid(10 * np.pi, 128)
        p = AbcdParams(a=-1.0, c=-0.5, a1=0.2, c1=0.4)
        b = decaying_bump(1e-3, width=2.0)
        ref = self._final_state(g, p, b, 6.25e-4)
        errs = []
        for dt in (5e-3, 2.5e-3):
            s = self._final_state(g, p, b, dt)
            errs.append(np.max(np.abs(s.eta - ref.eta)) + np.max(np.abs(s.u - ref.u)))
        ratio = errs[0] / errs[1]
        assert 10.0 < ratio < 22.0, f"halving dt changed the error by {ratio}"

    def test_time_reversal_returns_to_initial_data(self):
        g = Grid(10 * np.pi, 128)
        p = AbcdParams(a=-1.0, c=-1.0)
        eta0, u0 = gaussian_pair(g, eps=1e-2, width=2.0)
        fwd = run(SimConfig(params=p, bathymetry=flat_bottom(), grid=g,
                            eta0=eta0, u0=u0, dt=2e-3, t_end=0.5))
        s = fwd.final_state
        back = run(SimConfig(params=p, bathymetry=flat_bottom(), grid=g,
                             eta0=s.eta, u0=s.u, dt=-2e-3, t_end=0.0, t_start=0.5))
        r = back.final_state
        err = np.max(np.abs(r.eta - eta0)) + np.max(np.abs(r.u - u0))
        assert err < 1e-11

    def test_flat_bottom_energy_drift_is_tiny(self):
        g = Grid(10 * np.pi, 128)
        p = AbcdParams(a=-1.0, c=-1.0)
        eta0, u0 = random_bandlimited_pair(g, seed=2, eps=1e-2)
        cfg = SimConfig(params=p, bathymetry=flat_bottom(), grid=g,
                        eta0=eta0, u0=u0, dt=1e-3, t_end=2.0)
        res = run(cfg)
        bs = _flat_samples(g)
        h0 = hamiltonian_h(State(g, eta0, u0, 0.0), bs, p)
        h1 = hamiltonian_h(res.final_state, bs, p)
        assert abs(h1 - h0) / abs(h0) < 1e-12


class TestRunPlumbing:
    def test_exact_snapshot_times_and_counts(self, grid):
        p = AbcdParams(a=-1.0, c=-1.0)
        eta0, u0 = gaussian_pair(grid, eps=1e-3, width=0.5)
        cfg = SimConfig(params=p, bathymetry=flat_bottom(), grid=grid,
                        eta0=eta0, u0=u0, dt=1e-2, t_end=0.1, snapshot_every=2)
        res = run(cfg)
        ts = [s.t for s in res.snapshots]
        npt.assert_allclose(ts, [0.0, 0.02, 0.04, 0.06, 0.08, 0.1], rtol=0, atol=1e-15)
        assert res.n_steps == 10
        assert res.final_state.t == 0.1

    def test_observer_replaces_snapshot_collection(self, grid):
        p = AbcdParams(a=-1.0, c=-1.0)
        eta0, u0 = gaussian_pair(grid, eps=1e-3, width=0.5)
        seen = []
        cfg = SimConfig(params=p, bathymetry=flat_bottom(), grid=grid,
                        eta0=eta0, u0=u0, dt=1e-2, t_end=0.05)
        res = run(cfg, observer=lambda s: seen.append(s.t))
        assert res.snapshots == []
        npt.assert_allclose(seen, [0.0, 0.01, 0.02, 0.03, 0.04, 0.05], atol=1e-15)

    def test_cfl_violation_raised_before_stepping(self, grid):
        p = AbcdParams(a=-1.0, c=-1.0)
        eta0, u0 = gaussian_pair(grid, eps=1e-3, width=0.5)
        cfg = SimConfig(params=p, bathymetry=flat_bottom(), grid=grid,
                        eta0=eta0, u0=u0, dt=1.0, t_end=10.0, cfl_factor=0.5)
        with pytest.raises(CflViolation):
            run(cfg)

    @pytest.mark.parametrize("a, c", [(0.5, -1.0), (-1.0, 0.5)])
    def test_cfl_guard_fails_closed_without_a_real_group_speed(self, grid, a, c):
        # 1 - a k^2 < 0 on part of the band: omega(k) is not real there, the
        # group speed is NaN, and a NaN limit must stop the run, not pass any dt
        eta0, u0 = gaussian_pair(grid, eps=1e-3, width=0.5)
        cfg = SimConfig(params=AbcdParams(a=a, c=c), bathymetry=flat_bottom(), grid=grid,
                        eta0=eta0, u0=u0, dt=1e-3, t_end=0.05)
        with pytest.raises(CflViolation, match="no finite CFL limit .* not real"):
            run(cfg)

    def test_blowup_guard_trips_on_norm_growth(self, grid):
        # a conserved run trips immediately once the allowed growth
        # factor is below 1
        p = AbcdParams(a=-1.0, c=-1.0)
        eta0, u0 = gaussian_pair(grid, eps=1e-3, width=0.5)
        cfg = SimConfig(params=p, bathymetry=flat_bottom(), grid=grid,
                        eta0=eta0, u0=u0, dt=1e-2, t_end=0.5, blowup_factor=0.99)
        with pytest.raises(BlowUp):
            run(cfg)

    def test_nonfinite_fields_detected(self, grid):
        p = AbcdParams(a=-1.0, c=-1.0)
        eta0, u0 = gaussian_pair(grid, eps=1e-3, width=0.5)
        eta0 = eta0.copy()
        eta0[3] = np.nan
        cfg = SimConfig(params=p, bathymetry=flat_bottom(), grid=grid,
                        eta0=eta0, u0=u0, dt=1e-2, t_end=0.5)
        with pytest.raises(NonFinite):
            run(cfg)

    def test_abort_reasons_are_subclasses_of_the_common_base(self):
        from abcdsim import SimulationAbort
        assert issubclass(CflViolation, SimulationAbort)
        assert issubclass(BlowUp, SimulationAbort)
        assert issubclass(NonFinite, SimulationAbort)

    @pytest.mark.parametrize("kw", [
        dict(dt=0.0), dict(dt=np.nan), dict(cfl_factor=0.0), dict(cfl_factor=1.5),
        dict(snapshot_every=0), dict(dt=0.4, t_end=1.0),
        dict(t_end=np.inf), dict(t_end=np.nan), dict(t_start=np.nan),
        dict(blowup_factor=np.nan), dict(blowup_factor=np.inf), dict(blowup_factor=0.0),
    ])
    def test_config_validation(self, grid, kw):
        p = AbcdParams(a=-1.0, c=-1.0)
        eta0, u0 = zero_pair(grid)
        base = dict(params=p, bathymetry=flat_bottom(), grid=grid,
                    eta0=eta0, u0=u0, dt=1e-2, t_end=1.0)
        base.update(kw)
        with pytest.raises(ValueError):
            SimConfig(**base)

    def test_backward_run_needs_negative_dt(self, grid):
        p = AbcdParams(a=-1.0, c=-1.0)
        eta0, u0 = zero_pair(grid)
        with pytest.raises(ValueError):
            SimConfig(params=p, bathymetry=flat_bottom(), grid=grid,
                      eta0=eta0, u0=u0, dt=1e-2, t_end=0.0, t_start=1.0)

    def test_single_step_matches_run_of_one_step(self, grid):
        p = AbcdParams(a=-1.0, c=-0.5)
        b = decaying_bump(1e-3, width=1.0)
        eta0, u0 = gaussian_pair(grid, eps=1e-3, width=0.5)
        s0 = State(grid, eta0, u0, 0.0)
        s1 = step_rk4(s0, 1e-2, b, p)
        res = run(SimConfig(params=p, bathymetry=b, grid=grid,
                            eta0=eta0, u0=u0, dt=1e-2, t_end=1e-2))
        npt.assert_allclose(s1.eta, res.final_state.eta, atol=1e-17)
        npt.assert_allclose(s1.u, res.final_state.u, atol=1e-17)


class TestStateNorm:
    def test_h1_norm_of_single_modes(self, grid):
        # eta = sin(3x): integral of eta^2 + (deta)^2 = pi + 9 pi
        eta = np.sin(3.0 * grid.x)
        s = State(grid, eta, np.zeros(grid.N), 0.0)
        npt.assert_allclose(state_h1_norm(s), np.sqrt(10.0 * np.pi), rtol=1e-12)


class TestAgainstReference:
    # 1000 steps of run() against the physical-space reference stepper
    @pytest.mark.parametrize("bottom, params", [
        (flat_bottom(), AbcdParams(a=-1.0, c=-1.0)),
        (decaying_bump(2e-3, width=2.0, center=1.0), AbcdParams(a=-1.0, c=-0.5, a1=0.3, c1=0.56)),
        (traveling_ripple(2e-3, width=2.0, k0=1.5), AbcdParams(a=-0.6, c=-0.4, a1=0.2, c1=0.4)),
        # the ramp, t in [1, 2.5], lies inside the run: tau, tau' and tau'' independent
        (smooth_switch_bump(2e-3, width=2.0, center=1.0, t_on=1.0, t_off=2.5),
         AbcdParams(a=-0.8, c=-0.5, a1=0.25, c1=0.5)),
    ], ids=["flat", "decaying-bump", "traveling-ripple", "smooth-switch"])
    def test_run_matches_reference_after_1000_steps(self, bottom, params):
        g = Grid(10 * np.pi, 128)
        eta0, u0 = gaussian_pair(g, eps=5e-2, width=2.0)
        cfg = SimConfig(params=params, bathymetry=bottom, grid=g, eta0=eta0, u0=u0,
                        dt=1e-2, t_start=0.5, t_end=10.5, snapshot_every=100)
        got = run(cfg).snapshots
        want = _reference_run(cfg)
        assert [s.t for s in got] == [s.t for s in want]
        assert len(got) == 11
        for a, b in zip(got, want):
            for name in ("eta", "u"):
                x, ref = getattr(a, name), getattr(b, name)
                assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref)), (a.t, name)


class TestStepCost:
    @pytest.mark.parametrize("bottom", [flat_bottom(), decaying_bump(1e-3, width=1.0)],
                             ids=["flat", "decaying-bump"])
    def test_eight_transforms_and_no_bottom_sample_per_step(self, grid, bottom, monkeypatch,
                                                           transform_calls):
        calls = {"sample": 0}

        def counting(fn, key):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(Bathymetry, "sample", counting(Bathymetry.sample, "sample"))
        p = AbcdParams(a=-1.0, c=-0.5, a1=0.3, c1=0.6)
        eta0, u0 = gaussian_pair(grid, eps=1e-3, width=0.5)
        totals = []
        # the first run builds the bottom's spectra for this grid once (one
        # stacked transform); the two counted runs after it differ by steps alone
        for n_steps in (10, 10, 30):
            calls.update(sample=0)
            transform_calls.clear()
            # snapshots only at the two ends
            run(SimConfig(params=p, bathymetry=bottom, grid=grid, eta0=eta0, u0=u0,
                          dt=1e-2, t_end=n_steps * 1e-2, snapshot_every=1000))
            assert calls["sample"] == 0
            totals.append(len(transform_calls))
        assert totals[2] - totals[1] == 8 * 20

    def test_rhs_over_a_bump_transforms_only_the_state_products(self, grid, transform_calls):
        # the sample carries its spectra: a fine-grid pass and one inverse
        # transform of the tendencies, as over a flat bottom
        p = AbcdParams(a=-1.0, c=-0.5, a1=0.3, c1=0.6)
        eta0, u0 = gaussian_pair(grid, eps=1e-3, width=0.5)
        s = State(grid, eta0, u0, 0.0)
        s.coeffs
        counts = []
        for bottom in (flat_bottom(), decaying_bump(1e-3, width=1.0)):
            bs = bottom.sample(grid, 0.3)
            transform_calls.clear()
            rhs(s, bs, p)
            counts.append(len(transform_calls))
        assert counts == [3, 3]


BOTTOMS = [
    (flat_bottom(), AbcdParams(a=-1.0, c=-1.0)),
    (decaying_bump(2e-3, width=2.0, center=1.0), AbcdParams(a=-1.0, c=-0.5, a1=0.3, c1=0.56)),
    (traveling_ripple(2e-3, width=2.0, k0=1.5), AbcdParams(a=-0.6, c=-0.4, a1=0.2, c1=0.4)),
    # the two bottoms above run on a clock with tau'' = tau = -tau'; this
    # ramp, inside the oracle runs' t in [0.5, 2.9], keeps the three apart
    (smooth_switch_bump(2e-3, width=2.0, center=1.0, t_on=1.0, t_off=2.5),
     AbcdParams(a=-0.8, c=-0.5, a1=0.25, c1=0.5)),
]
BOTTOM_IDS = ["flat", "decaying-bump", "traveling-ripple", "smooth-switch"]


def _oracle_config(bottom, params, n=128):
    # 240 steps, a snapshot every 40 and the last one
    g = Grid(10 * np.pi, n)
    eta0, u0 = gaussian_pair(g, eps=5e-2, width=2.0)
    return SimConfig(params=params, bathymetry=bottom, grid=g, eta0=eta0, u0=u0,
                     dt=1e-2, t_start=0.5, t_end=2.9, snapshot_every=40)


class TestAgainstAllocatingKernel:
    # the in-place kernel runs the operations of the allocating one in the
    # same order, so every value is the same float, not merely close
    @pytest.mark.parametrize("bottom, params", BOTTOMS, ids=BOTTOM_IDS)
    def test_run_step_and_rhs_are_bit_identical(self, bottom, params):
        cfg = _oracle_config(bottom, params)
        g = cfg.grid
        got = run(cfg).snapshots
        want = allocating_run_coeffs(cfg)
        assert len(got) == len(want) == 7
        for s, y in zip(got, want):
            assert np.array_equal(s.coeffs, y), s.t
        oracle = AllocatingKernel(g, params)
        at = allocating_bottom_at(bottom, g, params)
        for s in got:
            for dt in (cfg.dt, -cfg.dt):
                assert np.array_equal(step_rk4(s, dt, bottom, params).coeffs,
                                      oracle.step(s.coeffs, s.t, dt, at)), (s.t, dt)
            bs = bottom.sample(g, s.t)
            for x, y in zip(rhs(s, bs, params), allocating_rhs(s, bs, params)):
                assert np.array_equal(x, y), s.t


class TestStepAllocations:
    @pytest.mark.parametrize("bottom, params", BOTTOMS, ids=BOTTOM_IDS)
    def test_a_step_allocates_only_the_array_it_returns(self, bottom, params):
        # numpy reports its array buffers to tracemalloc. While steps run,
        # the traced memory may hold the returned array and the one it
        # replaces, plus Python scalars, but no temporaries of the stages
        # (about 16 arrays of y's size at once in an allocating step)
        import tracemalloc
        from abcdsim.solver import _bottom_at, _Kernel

        cfg = _oracle_config(bottom, params, n=512)
        unit, clock = _bottom_at(bottom, cfg.grid, params)
        kernel = _Kernel(cfg.grid, params, unit)
        y = kernel.step(State(cfg.grid, cfg.eta0, cfg.u0, 0.5).coeffs, 0.5, cfg.dt, clock)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for n in range(1, 11):
                y = kernel.step(y, 0.5 + n * cfg.dt, cfg.dt, clock)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 2 * y.nbytes + 4096


def _workspace(kernel) -> list:
    """Every array a kernel holds, the buffers of its tuples included."""
    arrays = []
    for value in vars(kernel).values():
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, np.ndarray):
                arrays.append(v)
    return arrays


class TestWorkspaceAliasing:
    @pytest.mark.parametrize("bottom, params", BOTTOMS[:2], ids=BOTTOM_IDS[:2])
    def test_snapshots_and_steps_own_their_arrays(self, bottom, params, monkeypatch):
        import abcdsim.solver as solver

        cfg = _oracle_config(bottom, params)
        kernels, steps = [], []
        step = solver._Kernel.step

        def recording(kernel, y, *args):
            out = step(kernel, y, *args)
            kernels.append(kernel)
            steps.append(out)
            return out

        monkeypatch.setattr(solver._Kernel, "step", recording)
        seen = []

        def observer(s):
            # a second kernel on the same grid, between steps of the run
            rhs(s, bottom.sample(s.grid, s.t), params)
            seen.append((s, s.coeffs.copy(), s.eta.copy(), s.u.copy()))

        run(cfg, observer=observer)
        assert len(steps) == 240 and all(k is kernels[0] for k in kernels)
        work = _workspace(kernels[0])
        assert len(work) >= 6
        for y in steps:
            assert not any(np.shares_memory(y, w) for w in work)
        for s, y, eta, u in seen:
            assert np.array_equal(s.coeffs, y) and np.array_equal(s.eta, eta)
            assert np.array_equal(s.u, u)
        # the rhs calls left the run as it is without them
        want = allocating_run_coeffs(cfg)
        assert all(np.array_equal(s.coeffs, y) for (s, *_), y in zip(seen, want))


class TestStateCoefficients:
    def _snapshots(self, grid, bottom=None):
        p = AbcdParams(a=-1.0, c=-0.5, a1=0.3, c1=0.6)
        eta0, u0 = gaussian_pair(grid, eps=1e-3, width=0.5)
        seen = []
        res = run(SimConfig(params=p, bathymetry=bottom or decaying_bump(1e-3, width=1.0), grid=grid,
                            eta0=eta0, u0=u0, dt=1e-2, t_end=0.1, snapshot_every=2),
                  observer=seen.append)
        return seen, res

    def test_run_hands_over_states_carrying_their_coefficients(self, grid, transform_calls):
        seen, res = self._snapshots(grid)
        assert transform_calls  # the counter sees run's transforms
        transform_calls.clear()
        carried = [s.coeffs for s in seen + [res.final_state]]
        assert transform_calls == []  # carried, not transformed again
        for s, y in zip(seen, carried):
            want = np.fft.rfft(np.stack((s.u, s.eta)))
            assert np.max(np.abs(y - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("bottom", [flat_bottom(), decaying_bump(1e-3, width=1.0)],
                             ids=["flat", "bump"])
    def test_stepped_fields_are_the_inverse_transform_of_the_coefficients(self, grid, bottom):
        # what the CLI's diagnostics worker relies on: it receives only the
        # coefficients of a stepped snapshot and rebuilds the same fields
        seen, res = self._snapshots(grid, bottom)
        assert res.final_state is seen[-1] and len(seen) == 6
        for s in seen[1:]:  # the first holds the caller's fields, not irfft(rfft(u0))
            u, eta = grid.from_hat(s.coeffs)
            assert np.array_equal(s.u, u) and np.array_equal(s.eta, eta)
        for s in seen:
            assert not (s.eta.flags.writeable or s.u.flags.writeable or s.coeffs.flags.writeable)
        self._check_copy(seen[-1])
        self._check_rebinding(seen[-1])

    def test_writing_into_a_state_raises(self, grid):
        eta, u = gaussian_pair(grid, eps=1e-3, width=0.5)
        seen, _ = self._snapshots(grid)
        for s in (seen[-1], State(grid, eta, u, 0.0)):
            y = s.coeffs
            with pytest.raises(ValueError):
                s.eta[0] = 1.0
            with pytest.raises(ValueError):
                s.u += 1.0
            with pytest.raises(ValueError):
                y[0, 1] = 0.0
        # the caller's arrays are copied, so writing into them is fine and unseen
        s = State(grid, eta, u, 0.0)
        before = s.coeffs.copy()
        eta[:] = 0.0
        npt.assert_array_equal(s.coeffs, before)
        assert np.any(s.eta != 0.0)

    @staticmethod
    def _check_rebinding(s):
        s.eta = 2.0 * s.eta
        assert s.eta.flags.writeable is False
        want = np.stack((np.fft.rfft(s.u), np.fft.rfft(s.eta)))
        npt.assert_allclose(s.coeffs, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))

    def test_rebinding_a_field_drops_the_coefficients(self, grid):
        seen, _ = self._snapshots(grid)
        self._check_rebinding(seen[-1])

    @staticmethod
    def _check_copy(s):
        c = s.copy()
        assert c.coeffs is s.coeffs
        assert c.eta is not s.eta and c.u is not s.u
        npt.assert_array_equal(c.eta, s.eta)
        npt.assert_array_equal(c.u, s.u)
        assert c.t == s.t

    def test_copy_carries_the_coefficients(self, grid):
        seen, _ = self._snapshots(grid)
        self._check_copy(seen[-1])
