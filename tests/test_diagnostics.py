"""Conserved functionals, rate laws, and the regrouped virial identities."""

import numpy as np
import numpy.testing as npt
import pytest

from abcdsim import (
    AbcdParams,
    DiagnosticsEngine,
    Grid,
    SimConfig,
    State,
    decaying_bump,
    flat_bottom,
    gaussian_pair,
    quadratic_coeffs,
    random_bandlimited_pair,
    run,
    scheduled_weights,
    weight_set,
    window_scale,
    zero_pair,
)
from abcdsim.bathymetry import Bathymetry
from abcdsim.diagnostics import (
    canonical_identity_residuals,
    decay_metrics,
    fd5_derivative,
    hamiltonian_h,
    hamiltonian_rate_rhs,
    hamiltonian_rate_terms,
    interval_h1,
    local_energy,
    local_energy_rate_rhs,
    momentum,
    moving_weight_I,
    moving_weight_J,
    quadratic_form_fg,
    quadratic_form_scale,
    virial_I,
    virial_J,
    virial_rate_I_rhs,
    virial_rate_I_terms,
    virial_rate_J_rhs,
    virial_rate_J_terms,
    virial_rate_decomposition,
    windowed_h1,
)
from abcdsim.solver import state_h1_norm
from oracles import hamiltonian_rate_rhs_alt, uniform_psi_weights

CORNER = AbcdParams(a=-1.0, c=-1.0)


def _state(grid, seed, eps=1e-2, t=0.0):
    eta, u = random_bandlimited_pair(grid, seed=seed, eps=eps)
    return State(grid, eta, u, t)


def _flat(grid, t=0.0):
    return flat_bottom().sample(grid, t)


@pytest.fixture(scope="module")
def grid40():
    return Grid(40 * np.pi, 256)


class TestPointFunctionals:
    def test_hamiltonian_single_mode_value(self):
        # u = 0, eta = sin x, c = -1 on [-pi, pi):
        # H = 1/2 int (cos^2 + sin^2) = pi
        g = Grid(np.pi, 128)
        s = State(g, np.sin(g.x), np.zeros(g.N), 0.0)
        p = AbcdParams(a=-0.7, c=-1.0)
        npt.assert_allclose(hamiltonian_h(s, _flat(g), p), np.pi, rtol=1e-14)

    def test_hamiltonian_cubic_term(self):
        # u = eta = sin x at a = c = -1:
        # 1/2 int (2 sin^2 + 2 cos^2 + sin^3) = 2 pi
        g = Grid(np.pi, 128)
        s = State(g, np.sin(g.x), np.sin(g.x), 0.0)
        npt.assert_allclose(hamiltonian_h(s, _flat(g), CORNER), 2 * np.pi, rtol=1e-14)

    def test_hamiltonian_depth_uses_bottom(self, grid40):
        # adding h under u^2 shifts H by 1/2 int u^2 h
        b = decaying_bump(1e-2, width=2.0)
        bs = b.sample(grid40, 0.0)
        s = _state(grid40, seed=0)
        flat_val = hamiltonian_h(s, _flat(grid40), CORNER)
        bump_val = hamiltonian_h(s, bs, CORNER)
        want = 0.5 * grid40.integrate(s.u**2 * bs.h)
        npt.assert_allclose(bump_val - flat_val, want, rtol=1e-10)

    def test_momentum_value(self):
        # u = eta = sin x: P = int (sin^2 + cos^2) = 2 pi
        g = Grid(np.pi, 128)
        s = State(g, np.sin(g.x), np.sin(g.x), 0.0)
        npt.assert_allclose(momentum(s), 2 * np.pi, rtol=1e-14)

    def test_windowed_h1_constant_density(self):
        # eta = sin x has u^2 + eta^2 + |grad|^2 density exactly 1, so the
        # windowed norm integrates the window itself: 2 lam tanh(L/lam)
        g = Grid(40 * np.pi, 512)
        s = State(g, np.sin(g.x), np.zeros(g.N), 0.0)
        lam = 5.0
        npt.assert_allclose(windowed_h1(s, lam), 2 * lam, rtol=1e-12)

    def test_interval_h1_constant_density(self):
        g = Grid(40 * np.pi, 512)
        s = State(g, np.sin(g.x), np.zeros(g.N), 0.0)
        lam = 5.0
        assert abs(interval_h1(s, lam) - 2 * lam) < 2 * g.dx

    def test_local_energy_uniform_window_is_hamiltonian(self, grid40):
        # psi == 1 multiplies the same integrand, bit for bit
        b = decaying_bump(1e-2, width=2.0)
        bs = b.sample(grid40, 0.3)
        s = _state(grid40, seed=4)
        w = uniform_psi_weights(grid40)
        assert local_energy(s, bs, CORNER, w) == hamiltonian_h(s, bs, CORNER)


class TestHamiltonianRate:
    def test_flat_rate_is_zero(self, grid40):
        s = _state(grid40, seed=1)
        assert hamiltonian_rate_rhs(s, _flat(grid40), CORNER) == 0.0
        terms = hamiltonian_rate_terms(s, _flat(grid40), CORNER)
        assert set(terms) == {
            "u_qdxh", "u_T_qdxh", "eta_dth", "deta_dtdxh",
            "mix_T_dth", "mix_dth", "u2_dth",
        }
        assert all(v == 0.0 for v in terms.values())

    def test_groupings_agree_for_localized_bottom(self):
        # the two groupings differ by a perfect-derivative quadrature
        # residue, which drops to round-off once the bump profile is
        # fully resolved
        g = Grid(40 * np.pi, 512)
        p = AbcdParams(a=-2.0 / 3.0, c=-0.5, a1=0.3135, c1=0.5635)
        b = decaying_bump(1e-2, width=2.0)
        for seed in range(3):
            s = _state(g, seed=seed, t=0.2)
            bs = b.sample(g, 0.2)
            r1 = hamiltonian_rate_rhs(s, bs, p)
            r2 = hamiltonian_rate_rhs_alt(s, bs, p)
            assert abs(r1 - r2) < 1e-12 * max(1.0, abs(r1))


class TestCanonicalIdentities:
    def test_residuals_small_on_random_states(self, grid40):
        w = weight_set(grid40, 10.0)
        for seed in range(20):
            s = _state(grid40, seed=seed, eps=0.05)
            r_l2, r_nl = canonical_identity_residuals(s, w)
            assert r_l2 < 1e-10
            assert r_nl < 1e-10

    def test_residuals_detect_wrong_weight(self, grid40):
        # sanity: the identity is weight specific, a mismatched phi'
        # cannot satisfy it
        w = weight_set(grid40, 10.0)
        bad = weight_set(grid40, 3.0)
        s = _state(grid40, seed=7, eps=0.05)
        gi = grid40.integrate
        from abcdsim.diagnostics import _Snap, _zero_samples

        sp = _Snap(s, _zero_samples(grid40), None)
        lhs = gi(bad.dphi * s.u**2)
        rhs_w = gi(w.dphi * (sp.cf**2 + 2 * sp.cf1**2 + sp.cf2**2)) - gi(w.d3phi * sp.cf**2)
        assert abs(lhs - rhs_w) > 1e-6


class TestVirialDecomposition:
    TRIPLES = [
        (-1.0, -1.0, 0.0),
        (-1.0, -1.0, 0.5),
        (-2.0 / 3.0, -0.5, 0.25),
        (-0.5, -0.2, -0.3),
    ]

    def test_regrouping_matches_direct_rates(self, grid40):
        # Q + SQ + NQ + NH reproduces d/dt(I + alpha J) without the
        # moving-window corrections, flat and bumped alike
        b = decaying_bump(1e-2, width=2.0)
        w = weight_set(grid40, 10.0)
        for a, c, alpha in self.TRIPLES:
            p = AbcdParams(a=a, c=c, a1=0.3, c1=0.56)
            for seed in range(4):
                s = _state(grid40, seed=seed, eps=0.05)
                for bs in (_flat(grid40), b.sample(grid40, 0.1)):
                    dec = virial_rate_decomposition(s, bs, p, alpha, w)
                    grouped = dec["Q"] + dec["SQ"] + dec["NQ"] + dec["NH"]
                    direct = virial_rate_I_rhs(s, bs, p, w) + alpha * virial_rate_J_rhs(s, bs, p, w)
                    assert abs(grouped - direct) < 1e-12 * max(1.0, abs(direct))

    def test_sq_vanishes_at_zero_alpha(self, grid40):
        s = _state(grid40, seed=2)
        dec = virial_rate_decomposition(s, _flat(grid40), CORNER, 0.0, weight_set(grid40, 10.0))
        assert dec["SQ"] == 0.0

    def test_nh_vanishes_flat(self, grid40):
        s = _state(grid40, seed=2)
        dec = virial_rate_decomposition(s, _flat(grid40), CORNER, 0.4, weight_set(grid40, 10.0))
        assert dec["NH"] == 0.0
        assert dec["movingI"] == 0.0  # static weight
        assert dec["movingJ"] == 0.0

    def test_quadratic_form_matches_q(self, grid40):
        # change of variables: Q in (eta, u) equals the canonical form in
        # (f, g) up to quadrature round-off
        w = weight_set(grid40, 10.0)
        for a, c, alpha in self.TRIPLES:
            p = AbcdParams(a=a, c=c)
            qc = quadratic_coeffs(a, c, alpha)
            for seed in range(4):
                s = _state(grid40, seed=seed, eps=0.05)
                dec = virial_rate_decomposition(s, _flat(grid40), p, alpha, w)
                qf = quadratic_form_fg(s, qc, w)
                scale = quadratic_form_scale(s, qc, w)
                assert scale > 0.0
                assert abs(dec["Q"] - qf) / scale < 1e-10

    def test_quadratic_form_scale_is_the_sum_of_absolute_pieces(self, grid40):
        # |coefficient| times each phi' weighted square of the canonical fields,
        # then each |phi'''| weighted one, integrated one by one
        from abcdsim.diagnostics import _Snap, _zero_samples

        w = weight_set(grid40, 10.0)
        main = (("A1", "cf"), ("A2", "cf1"), ("A3", "cf2"), ("A4", "cf3"),
                ("B1", "cg"), ("B2", "cg1"), ("B3", "cg2"), ("B4", "cg3"))
        corr = (("D11", "cf"), ("D12", "cf1"), ("D21", "cg"), ("D22", "cg1"))
        for a, c, alpha in self.TRIPLES:
            qc = quadratic_coeffs(a, c, alpha)
            s = _state(grid40, seed=5, eps=0.05)
            sp = _Snap(s, _zero_samples(grid40), None)
            pieces = [abs(getattr(qc, k)) * grid40.integrate(w.dphi * getattr(sp, f) * getattr(sp, f))
                      for k, f in main]
            pieces += [abs(getattr(qc, k)) * grid40.integrate(np.abs(w.d3phi) * getattr(sp, f) ** 2)
                       for k, f in corr]
            assert quadratic_form_scale(s, qc, w) == sum(abs(x) for x in pieces)

    def test_quadratic_form_positive_at_corner(self, grid40):
        # all eight leading coefficients are positive at (-1, -1, 0); the
        # third-derivative correction is O(lam^-2) relative and cannot
        # flip the sign at this window scale
        w = weight_set(grid40, 10.0)
        qc = quadratic_coeffs(-1.0, -1.0, 0.0)
        vals = []
        for seed in range(30):
            s = _state(grid40, seed=seed, eps=0.05)
            vals.append(quadratic_form_fg(s, qc, w))
        assert min(vals) > 0.0


class TestFdStencil:
    def test_exact_on_quartic(self):
        dt = 0.01
        t = np.arange(40) * dt
        f = t**4 - 2 * t**2 + 3 * t
        d = fd5_derivative(f, dt)
        want = 4 * t**3 - 4 * t + 3
        assert np.isnan(d[:2]).all() and np.isnan(d[-2:]).all()
        npt.assert_allclose(d[2:-2], want[2:-2], rtol=1e-11, atol=1e-11)

    def test_short_series_all_nan(self):
        assert np.isnan(fd5_derivative(np.ones(4), 0.1)).all()


class TestDecayMetrics:
    def _trajectory(self, grid):
        states = []
        for t in np.linspace(12.0, 14.0, 5):
            eta, u = gaussian_pair(grid, eps=1e-2, width=5.0)
            states.append(State(grid, eta * np.exp(-0.1 * (t - 12.0)), u, t))
        return states

    def test_series_fields(self, grid40):
        states = self._trajectory(grid40)
        ds = decay_metrics(states, alpha=0.3)
        npt.assert_allclose(ds.t, [s.t for s in states])
        npt.assert_allclose(ds.lam, [window_scale(s.t) for s in states], rtol=1e-14)
        assert ds.running_integral[0] == 0.0
        assert np.all(np.diff(ds.running_integral) > 0.0)
        assert np.all(ds.windowed > 0.0)
        assert np.all(ds.interval > 0.0)
        # spot check one windowed value and the hcal series definition
        s0 = states[0]
        npt.assert_allclose(ds.windowed[0], windowed_h1(s0, window_scale(s0.t)), rtol=1e-14)
        w0 = scheduled_weights(grid40, s0.t)
        npt.assert_allclose(
            ds.hcal[0], virial_I(s0, w0) + 0.3 * virial_J(s0, w0), rtol=1e-13
        )

    def test_builds_only_the_first_derivatives(self, grid40, transform_calls):
        # one stacked irfft of u, eta, dx u and dx eta per block (the
        # coefficients were made when the States were built); the rest of the
        # ladder is never built, and the values are those of the engine's
        # whole ladder over the same States
        fresh = [State(grid40, s.eta, s.u, s.t) for s in self._trajectory(grid40)]
        eng = DiagnosticsEngine(AbcdParams(a=-1.0, c=-1.0), flat_bottom(), alpha=0.3,
                                weight_mode="schedule")
        for s in fresh:
            eng.observe(s)
        transform_calls.clear()
        got = decay_metrics(fresh, alpha=0.3)
        assert 0 < len(transform_calls) <= 2 * len(fresh)
        for field, name in (("windowed", "windowed_h1"), ("interval", "interval_h1"),
                            ("running_integral", "running_decay_integral"), ("hcal", "virial_mix")):
            assert list(getattr(got, field)) == list(eng.series(name)), field

    def test_rejects_bad_trajectories(self, grid40):
        states = self._trajectory(grid40)
        with pytest.raises(ValueError):
            decay_metrics(states[:1])
        early = [State(grid40, states[0].eta, states[0].u, 5.0)] + states
        with pytest.raises(ValueError):
            decay_metrics(early)


def _short_run(weight_mode, fixed_lambda=None, t_start=0.0, alpha=0.5,
               n_steps=80, snapshot_every=5, bump_t0=None):
    g = Grid(40 * np.pi, 256)
    p = AbcdParams(a=-1.0, c=-1.0, a1=0.3, c1=0.56)
    b = decaying_bump(1e-3, width=2.0, t0=bump_t0 if bump_t0 is not None else t_start)
    eta, u = gaussian_pair(g, eps=1e-2, width=5.0)
    dt = 1e-3
    eng = DiagnosticsEngine(p, b, alpha=alpha, weight_mode=weight_mode,
                            fixed_lambda=fixed_lambda)
    cfg = SimConfig(
        params=p, bathymetry=b, grid=g, eta0=eta, u0=u,
        dt=dt, t_start=t_start, t_end=t_start + n_steps * dt,
        snapshot_every=snapshot_every,
    )
    run(cfg, observer=eng)
    return eng


class TestEngine:
    def test_rate_laws_close_along_trajectory(self):
        # the central consistency check: five-point FD of H, I, J and the
        # localized energy against their analytic rates on a forced run
        eng = _short_run("fixed", fixed_lambda=10.0)
        rr = eng.rate_residuals()
        assert set(rr) == {"hamiltonian", "virial_i", "virial_j", "local_energy"}
        for name, (_, rel) in rr.items():
            assert np.nanmax(rel) < 1e-8, name

    def test_rate_laws_close_with_moving_window(self):
        # same check in schedule mode, where the window scale moves and
        # the rates carry the lambda'(t) corrections
        eng = _short_run("schedule", t_start=11.0, bump_t0=11.0)
        rr = eng.rate_residuals()
        for name, (_, rel) in rr.items():
            assert np.nanmax(rel) < 1e-7, name

    def test_identity_columns_small(self):
        eng = _short_run("fixed", fixed_lambda=10.0)
        assert np.max(eng.series("decomposition_residual")) < 1e-12
        assert np.max(eng.series("change_var_residual")) < 1e-10
        assert np.max(eng.series("canon_l2_residual")) < 1e-10
        assert np.max(eng.series("canon_nonlocal_residual")) < 1e-10

    def test_window_fields_nan_before_schedule_start(self, grid40):
        eng = DiagnosticsEngine(CORNER, flat_bottom(), weight_mode="schedule")
        row = eng.observe(State(grid40, *gaussian_pair(grid40), 5.0))
        assert list(row) == list(DiagnosticsEngine.COLUMNS)
        assert np.isfinite(row["hamiltonian"])
        assert np.isfinite(row["momentum"])
        assert np.isnan(row["virial_i"])
        assert np.isnan(row["local_energy"])

    def test_running_integral_accumulates(self):
        eng = _short_run("fixed", fixed_lambda=10.0)
        ri = eng.series("running_decay_integral")
        assert ri[0] == 0.0
        assert np.all(np.diff(ri) > 0.0)

    def test_table_shape_and_residual_alignment(self):
        eng = _short_run("fixed", fixed_lambda=10.0)
        cols = eng.table()
        assert list(cols) == list(DiagnosticsEngine.COLUMNS + DiagnosticsEngine.RESIDUAL_COLUMNS)
        assert all(c.shape == (len(eng.series("t")),) for c in cols.values())
        ham_res = cols["hamiltonian_residual"]
        # stencil edges are NaN, the interior is filled
        assert np.isnan(ham_res[0]) and np.isnan(ham_res[1])
        assert np.isnan(ham_res[-1]) and np.isnan(ham_res[-2])
        assert np.all(np.isfinite(ham_res[2:-2]))

    def test_engine_validation(self):
        with pytest.raises(ValueError):
            DiagnosticsEngine(CORNER, flat_bottom(), weight_mode="bogus")
        with pytest.raises(ValueError):
            DiagnosticsEngine(CORNER, flat_bottom(), weight_mode="fixed")
        with pytest.raises(ValueError):
            DiagnosticsEngine(CORNER, flat_bottom(), weight_mode="fixed", fixed_lambda=0.0)

    def test_rate_residuals_need_uniform_cadence(self, grid40):
        eng = DiagnosticsEngine(CORNER, flat_bottom(), weight_mode="fixed", fixed_lambda=10.0)
        eta, u = gaussian_pair(grid40)
        for t in (0.0, 0.1, 0.25, 0.5, 0.9):
            eng.observe(State(grid40, eta, u, t))
        with pytest.raises(ValueError):
            eng.rate_residuals()

    def test_residuals_run_one_per_snapshot_with_a_short_last_interval(self):
        # snapshots at steps 0, 5, ..., 80 and 83: the last one is off the
        # cadence, so the stencil reaches rows 2 to n - 4 only
        eng = _short_run("fixed", fixed_lambda=10.0, n_steps=83)
        n = eng.series("t").size
        assert n == 18
        rr, cols = eng.rate_residuals(), eng.table()
        assert set(rr) == {"hamiltonian", "virial_i", "virial_j", "local_energy"}
        edges = [0, 1, n - 3, n - 2, n - 1]
        columns = [a for pair in rr.values() for a in pair] + [cols[k] for k in eng.RESIDUAL_COLUMNS]
        for column in columns:
            assert column.shape == (n,)
            assert np.all(np.isnan(column[edges]))
            assert np.all(np.isfinite(column[2:n - 3]))
        for fname, (_, rel) in rr.items():
            assert np.array_equal(rel, cols[fname + "_residual"], equal_nan=True)


class TestObserveCost:
    """Transforms, grid checks and bottom samples of one `observe` on the
    States `run` hands over."""

    P = AbcdParams(a=-1.0, c=-1.0, a1=0.3, c1=0.56)

    @pytest.mark.parametrize("bottom, mode, t_start, transforms", [
        (flat_bottom(), dict(weight_mode="fixed", fixed_lambda=10.0), 0.0, 3),
        (decaying_bump(1e-3, width=2.0, t0=11.0), dict(weight_mode="schedule"), 11.0, 3),
    ], ids=["flat-fixed", "bump-schedule"])
    def test_counts_per_observe(self, bottom, mode, t_start, transforms, monkeypatch,
                                transform_calls):
        g = Grid(40 * np.pi, 256)
        eta, u = gaussian_pair(g, eps=1e-2, width=5.0)
        states = []
        run(SimConfig(params=self.P, bathymetry=bottom, grid=g, eta0=eta, u0=u, dt=1e-3,
                      t_start=t_start, t_end=t_start + 0.02, snapshot_every=5),
            observer=states.append)
        eng = DiagnosticsEngine(self.P, bottom, alpha=0.5, **mode)

        calls = {}

        def counting(fn, key):
            def wrapped(*args, **kwargs):
                calls[key] = calls.get(key, 0) + 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(Grid, "check", counting(Grid.check, "check"))
        monkeypatch.setattr(Bathymetry, "sample", counting(Bathymetry.sample, "sample"))
        for s in states:
            calls.clear()
            transform_calls.clear()
            eng.observe(s)
            assert len(transform_calls) == transforms, s.t
            assert calls.get("check", 0) <= 1
            assert calls["sample"] == 1
            # no forward transform of u or eta: run handed over their coefficients
            rows = [r for name, a in transform_calls if name == "_rfft" for r in a.reshape(-1, a.shape[-1])]
            assert not any(np.array_equal(r, s.u) or np.array_equal(r, s.eta) for r in rows)

    @pytest.mark.parametrize("bottom, mode, t_start", [
        (flat_bottom(), dict(weight_mode="fixed", fixed_lambda=10.0), 0.0),
        (decaying_bump(1e-3, width=2.0, t0=11.0), dict(weight_mode="schedule"), 11.0),
    ], ids=["flat-fixed", "bump-schedule"])
    def test_counts_per_block(self, bottom, mode, t_start, monkeypatch, transform_calls):
        # as run's observer the engine evaluates blocks of B = 2048 // 512 = 4
        # snapshots: 3 transforms and B bottom samples per block
        g = Grid(40 * np.pi, 512)
        eta, u = gaussian_pair(g, eps=1e-2, width=5.0)
        states = []
        run(SimConfig(params=self.P, bathymetry=bottom, grid=g, eta0=eta, u0=u, dt=1e-3,
                      t_start=t_start, t_end=t_start + 0.035, snapshot_every=5),
            observer=states.append)
        assert len(states) == 8  # two blocks
        eng = DiagnosticsEngine(self.P, bottom, alpha=0.5, **mode)

        calls = {}

        def counting(fn, key):
            def wrapped(*args, **kwargs):
                calls[key] = calls.get(key, 0) + 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(Grid, "check", counting(Grid.check, "check"))
        monkeypatch.setattr(Bathymetry, "sample", counting(Bathymetry.sample, "sample"))
        for block in (states[:4], states[4:]):
            calls.clear()
            transform_calls.clear()
            for s in block[:3]:
                eng(s)
            # buffered: nothing is evaluated before the block is full
            assert calls == {} and transform_calls == []
            eng(block[3])
            assert len(transform_calls) == 3
            assert calls.get("check", 0) <= 4
            assert calls["sample"] == 4
            rows = [r for name, a in transform_calls if name == "_rfft" for r in a.reshape(-1, a.shape[-1])]
            assert not any(np.array_equal(r, s.u) or np.array_equal(r, s.eta) for s in block for r in rows)
        assert eng.series("t").size == 8


class TestBlocks:
    """Columns from `run(cfg, observer=eng)`, which evaluates snapshots in
    blocks, equal field by field those of one `observe` per snapshot."""

    P = AbcdParams(a=-1.0, c=-1.0, a1=0.3, c1=0.56)

    def _engines(self, bottom, mode, t_start, n_steps, n=256):
        g = Grid(40 * np.pi, n)
        eta, u = gaussian_pair(g, eps=1e-2, width=5.0)
        cfg = SimConfig(params=self.P, bathymetry=bottom, grid=g, eta0=eta, u0=u, dt=1e-3,
                        t_start=t_start, t_end=t_start + n_steps * 1e-3, snapshot_every=5)
        buffered = DiagnosticsEngine(self.P, bottom, alpha=0.5, **mode)
        run(cfg, observer=buffered)
        states = run(cfg).snapshots
        eager = DiagnosticsEngine(self.P, bottom, alpha=0.5, **mode)
        for s in states:
            eager.observe(s)
        return buffered, eager, states

    @staticmethod
    def _same(got, want):
        assert got.series("t").size == want.series("t").size
        for name in DiagnosticsEngine.COLUMNS:
            assert np.array_equal(got.series(name), want.series(name), equal_nan=True), name

    def test_flat_with_fixed_window(self):
        # N = 256: blocks of 8, and 21 snapshots leave a partial block
        buffered, eager, states = self._engines(flat_bottom(), dict(weight_mode="fixed", fixed_lambda=10.0),
                                                0.0, 100)
        assert len(states) % 8 != 0
        self._same(buffered, eager)

    def test_decaying_bump_with_scheduled_window(self):
        buffered, eager, states = self._engines(decaying_bump(1e-2, width=2.0, t0=11.0),
                                                dict(weight_mode="schedule"), 11.0, 100)
        assert eager.series("moving_i")[0] != 0.0 and eager.series("nh_part")[0] != 0.0
        self._same(buffered, eager)

    def test_a_schedule_run_that_crosses_t_min(self):
        # snapshots before t = 11 carry no weights and form their own blocks
        buffered, eager, states = self._engines(decaying_bump(1e-3, width=2.0, t0=10.9),
                                                dict(weight_mode="schedule"), 10.97, 75)
        early = [s.t < 11.0 for s in states]
        assert any(early) and not all(early)
        virial_i = eager.series("virial_i")
        assert np.isnan(virial_i[0]) and np.isfinite(virial_i[-1])
        self._same(buffered, eager)

    def test_blocks_of_four_at_n512(self):
        buffered, eager, states = self._engines(decaying_bump(1e-2, width=2.0, t0=11.0),
                                                dict(weight_mode="schedule"), 11.0, 50, n=512)
        assert len(states) % 4 != 0
        self._same(buffered, eager)

    def test_reads_and_eager_calls_keep_every_snapshot_in_time_order(self):
        _, eager, states = self._engines(flat_bottom(), dict(weight_mode="fixed", fixed_lambda=10.0),
                                         0.0, 100)
        eng = DiagnosticsEngine(self.P, flat_bottom(), alpha=0.5, weight_mode="fixed", fixed_lambda=10.0)
        for s in states[:10]:
            eng(s)
        assert eng.series("t").size == 10  # a read evaluates the pending snapshots
        for s in states[10:13]:
            eng(s)
        assert eng.observe(states[13])["t"] == states[13].t  # after the three pending ones
        for s in states[14:]:
            eng(s)
        assert eng.series("t").tolist() == [s.t for s in states]
        self._same(eng, eager)

    @pytest.mark.parametrize("bottom", [flat_bottom(), decaying_bump(1e-2, width=2.0, t0=0.0)])
    def test_a_second_grid_of_the_same_n_gets_its_own_symbols(self, bottom):
        # the ladder's arrays are kept per shape; its symbols depend on L as well
        mode = dict(alpha=0.5, weight_mode="fixed", fixed_lambda=5.0)
        first, second = Grid(40 * np.pi, 256), Grid(20 * np.pi, 256)
        both = DiagnosticsEngine(self.P, bottom, **mode)
        for i in range(8):
            both(_state(first, seed=i, t=0.1 * i))
        later = [_state(second, seed=10 + i, t=0.1 * i) for i in range(8)]
        fresh = DiagnosticsEngine(self.P, bottom, **mode)
        for s in later:
            both(s)
            fresh(s)
        for name in DiagnosticsEngine.COLUMNS:
            if name != "running_decay_integral":  # it runs on from the first grid's snapshots
                assert np.array_equal(both.series(name)[8:], fresh.series(name), equal_nan=True), name


class TestEngineMatchesPublicFunctions:
    """Every engine field equals, bit for bit, the value rebuilt from the
    public functions, each called without shared scratch."""

    P = AbcdParams(a=-1.0, c=-1.0, a1=0.3, c1=0.56)
    ALPHA = 0.5

    def _trajectory(self, b, t_start):
        g = Grid(40 * np.pi, 256)
        eta, u = gaussian_pair(g, eps=1e-2, width=5.0)
        cfg = SimConfig(params=self.P, bathymetry=b, grid=g, eta0=eta, u0=u, dt=1e-3,
                        t_start=t_start, t_end=t_start + 0.04, snapshot_every=5)
        return run(cfg).snapshots

    def _expected(self, s, b, w):
        p, alpha = self.P, self.ALPHA
        bs = b.sample(s.grid, s.t)
        qc = quadratic_coeffs(p.a, p.c, alpha)
        dec = virial_rate_decomposition(s, bs, p, alpha, w)
        grouped = dec["Q"] + dec["SQ"] + dec["NQ"] + dec["NH"]
        direct = virial_rate_I_rhs(s, bs, p, w) + alpha * virial_rate_J_rhs(s, bs, p, w)
        term_scale = sum(abs(v) for v in virial_rate_I_terms(s, bs, p, w).values()) + sum(
            abs(alpha * v) for v in virial_rate_J_terms(s, bs, p, w).values()
        )
        q_canonical = quadratic_form_fg(s, qc, w)
        canon_l2, canon_nonlocal = canonical_identity_residuals(s, w)
        assert dec["movingI"] == moving_weight_I(s, w)
        assert dec["movingJ"] == alpha * moving_weight_J(s, w)
        return {
            "t": s.t,
            "h1_norm": state_h1_norm(s),
            "hamiltonian": hamiltonian_h(s, bs, p),
            "hamiltonian_rate": hamiltonian_rate_rhs(s, bs, p),
            "momentum": momentum(s),
            "virial_i": virial_I(s, w),
            "virial_j": virial_J(s, w),
            "virial_mix": virial_I(s, w) + alpha * virial_J(s, w),
            "virial_i_rate": virial_rate_I_rhs(s, bs, p, w) + moving_weight_I(s, w),
            "virial_j_rate": virial_rate_J_rhs(s, bs, p, w) + moving_weight_J(s, w),
            "moving_i": moving_weight_I(s, w),
            "moving_j": moving_weight_J(s, w),
            "q_part": dec["Q"],
            "sq_part": dec["SQ"],
            "nq_part": dec["NQ"],
            "nh_part": dec["NH"],
            "decomposition_residual": abs(grouped - direct) / max(term_scale, 1e-30),
            "q_canonical": q_canonical,
            "change_var_residual": abs(dec["Q"] - q_canonical) / max(quadratic_form_scale(s, qc, w), 1e-30),
            "canon_l2_residual": canon_l2,
            "canon_nonlocal_residual": canon_nonlocal,
            "local_energy": local_energy(s, bs, p, w),
            "local_energy_rate": local_energy_rate_rhs(s, bs, p, w),
            "windowed_h1": windowed_h1(s, w.lam),
            "interval_h1": interval_h1(s, w.lam),
        }

    def _check(self, eng, states, weights_at):
        cols = eng.table()
        assert cols["t"].size == len(states)
        for i, s in enumerate(states):
            want = self._expected(s, eng.bathymetry, weights_at(s))
            got = {name: float(cols[name][i]) for name in want}
            assert got == want, s.t
        # only the running decay integral is left, checked by the callers
        assert set(DiagnosticsEngine.COLUMNS) - set(want) == {"running_decay_integral"}

    def test_bump_with_scheduled_window(self):
        b = decaying_bump(1e-2, width=2.0, t0=11.0)
        states = self._trajectory(b, 11.0)
        eng = DiagnosticsEngine(self.P, b, alpha=self.ALPHA, weight_mode="schedule")
        for s in states:
            eng.observe(s)
        self._check(eng, states, lambda s: scheduled_weights(s.grid, s.t))
        assert eng.series("moving_i")[0] != 0.0  # the window does move
        assert eng.series("nh_part")[0] != 0.0   # and the bottom does force
        running = decay_metrics(states).running_integral
        assert list(running) == list(eng.series("running_decay_integral"))

    def test_flat_with_fixed_window(self):
        b = flat_bottom()
        states = self._trajectory(b, 0.0)
        eng = DiagnosticsEngine(self.P, b, alpha=self.ALPHA, weight_mode="fixed", fixed_lambda=10.0)
        for s in states:
            eng.observe(s)
        self._check(eng, states, lambda s: weight_set(s.grid, 10.0))
        assert np.all(eng.series("moving_i") == 0.0) and np.all(eng.series("nh_part") == 0.0)
        dens = eng.series("windowed_h1") / 10.0
        t = eng.series("t")
        running = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(t))])
        assert list(running) == list(eng.series("running_decay_integral"))


class TestCoefficientStates:
    """The engine builds u and eta of a State that holds its coefficients
    alone as two rows of its ladder: the same table, bit for bit, as from
    States whose fields were built first, at the same 3 transforms a block."""

    P = AbcdParams(a=-1.0, c=-1.0, a1=0.3, c1=0.56)

    @pytest.mark.parametrize("bottom, mode, t_start", [
        (flat_bottom(), dict(weight_mode="fixed", fixed_lambda=10.0), 0.0),
        (decaying_bump(1e-2, width=2.0, t0=11.0), dict(weight_mode="schedule"), 11.0),
    ], ids=["flat-fixed", "bump-schedule"])
    def test_the_table_is_that_of_materialized_states(self, bottom, mode, t_start, transform_calls):
        g = Grid(40 * np.pi, 256)
        eta, u = gaussian_pair(g, eps=1e-2, width=5.0)
        cfg = SimConfig(params=self.P, bathymetry=bottom, grid=g, eta0=eta, u0=u, dt=1e-3,
                        t_start=t_start, t_end=t_start + 0.1, snapshot_every=5)
        lazy, built = run(cfg).snapshots, run(cfg).snapshots
        for s in built:
            s.u  # builds both fields
        assert all(s._fields is not None for s in built)
        tables = []
        for states in (lazy, built):
            eng = DiagnosticsEngine(self.P, bottom, alpha=0.5, **mode)
            transform_calls.clear()
            for s in states:
                eng(s)
            tables.append(eng.table())
            assert len(transform_calls) == 3 * 3  # 21 snapshots: blocks of 8, 8 and 5
        assert all(s._fields is None for s in lazy)  # the engine left them as they were
        assert tables[0].keys() == tables[1].keys()
        for name in tables[0]:
            assert np.array_equal(tables[0][name], tables[1][name], equal_nan=True), name

    def test_first_derivatives_alone_build_the_fields_too(self, grid40, transform_calls):
        # decay_metrics reads u and eta from the one stacked irfft of its block
        g = grid40
        eta, u = gaussian_pair(g, eps=1e-2, width=5.0)
        cfg = SimConfig(params=self.P, bathymetry=flat_bottom(), grid=g, eta0=eta, u0=u, dt=1e-3,
                        t_start=12.0, t_end=12.02, snapshot_every=5)
        lazy, built = run(cfg).snapshots[1:], run(cfg).snapshots[1:]
        for s in built:
            s.eta
        transform_calls.clear()
        got = decay_metrics(lazy)
        assert [name for name, _ in transform_calls] == ["_irfft"]
        want = decay_metrics(built)
        for field in ("windowed", "interval", "running_integral", "hcal"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
