"""Acceptance gate: nine checks every release must clear.

Each check is one test; the terminal summary lists a verdict line per
criterion.  Grids, seeds, and steps are frozen so the measured numbers
are reproducible; the heavier runs take a few minutes combined.
"""

import json
import math
import time

import numpy as np
import pytest

from abcdsim import (
    AbcdParams,
    DiagnosticsEngine,
    Grid,
    SimConfig,
    decaying_bump,
    find_admissible_alpha,
    flat_bottom,
    gaussian_pair,
    params_from_physical,
    quadratic_coeffs,
    random_bandlimited_pair,
    refined_margin,
    run,
    satisfies_refined_dispersion,
    decay_metrics,
    weight_set,
)
from abcdsim.cli import main as cli_main
from abcdsim.diagnostics import (
    canonical_identity_residuals,
    quadratic_form_fg,
    quadratic_form_scale,
    virial_rate_I_rhs,
    virial_rate_I_terms,
    virial_rate_J_rhs,
    virial_rate_J_terms,
    virial_rate_decomposition,
)
from abcdsim.solver import State, state_h1_norm

RATE_BOUND = 1e-6       # |FD rate - analytic rate| <= bound * max(1, |rate|)
SCALING_RATIO = 0.35    # per dt halving; second-order decay would give 0.25
SCALING_FLOOR = 1e-11   # residuals below this are round-off, ratios meaningless

PHYSICAL = params_from_physical(math.sqrt(0.6), -2.0, -1.0, 0.4)


def _assert_upper_second_order(values, label):
    # each halving must shrink the residual at least to SCALING_RATIO of
    # the previous one, unless it has already reached round-off
    for hi, lo in zip(values[:-1], values[1:]):
        if lo <= SCALING_FLOOR:
            continue
        assert lo <= SCALING_RATIO * hi, (label, values)


def _rate_sweep(weight_mode, t_start, t_end, bump_t0, fixed_lambda=None):
    """Run the bump-bottom trajectory at dt in {2e-3, 1e-3, 5e-4} with the
    snapshot cadence tied to dt, returning max relative FD-vs-rate
    residuals keyed by functional name."""
    g = Grid(40 * np.pi, 512)
    b = decaying_bump(1e-2, width=2.0, t0=bump_t0)
    eta, u = gaussian_pair(g, eps=1e-2, width=5.0)
    out = {}
    for dt in (2e-3, 1e-3, 5e-4):
        eng = DiagnosticsEngine(PHYSICAL, b, alpha=0.5, weight_mode=weight_mode,
                                fixed_lambda=fixed_lambda)
        cfg = SimConfig(params=PHYSICAL, bathymetry=b, grid=g, eta0=eta, u0=u,
                        dt=dt, t_start=t_start, t_end=t_end,
                        snapshot_every=20)
        run(cfg, observer=eng)
        for name, (_, rel) in eng.rate_residuals().items():
            out.setdefault(name, []).append(float(np.nanmax(rel)))
    return out


def test_criterion_1_canonical_identities():
    # weighted change-of-variable identities on 100 random states
    g = Grid(400 * np.pi, 512)
    w = weight_set(g, 100.0)
    start = time.perf_counter()
    worst_l2 = worst_nl = 0.0
    for seed in range(100):
        eta, u = random_bandlimited_pair(g, seed=seed, eps=0.05)
        r_l2, r_nl = canonical_identity_residuals(State(g, eta, u, 0.0), w)
        worst_l2 = max(worst_l2, r_l2)
        worst_nl = max(worst_nl, r_nl)
    elapsed = time.perf_counter() - start
    print(f"criterion 1: l2 residual {worst_l2:.3e}, nonlocal residual "
          f"{worst_nl:.3e}, {elapsed:.2f}s")
    assert worst_l2 < 1e-8
    assert worst_nl < 1e-8
    assert elapsed < 10.0


def test_criterion_2_operator_bounds():
    # smoothing never amplifies: ||T f|| <= ||f|| and ||T dx f|| <= ||f||
    g = Grid(40 * np.pi, 512)
    slack = 1.0 + 1e-12
    worst_t = worst_tdx = 0.0
    for seed in range(100):
        f = np.random.default_rng(seed).standard_normal(g.N)
        nf = g.l2_norm(f)
        worst_t = max(worst_t, g.l2_norm(g.helmholtz_inverse(f)) / nf)
        worst_tdx = max(worst_tdx, g.l2_norm(g.helmholtz_inverse(g.deriv(f))) / nf)
    print(f"criterion 2: worst ||Tf||/||f|| {worst_t:.6f}, "
          f"worst ||T dx f||/||f|| {worst_tdx:.6f}")
    assert worst_t <= slack
    assert worst_tdx <= 0.5 * slack


def test_criterion_3_flat_bottom_conservation():
    # energy and momentum drift over 100k steps of a flat-bottom run
    g = Grid(100 * np.pi, 1024)
    p = AbcdParams(a=-1.0, c=-1.0)
    eta, u = gaussian_pair(g, eps=1e-2, width=5.0)
    eng = DiagnosticsEngine(p, flat_bottom(), weight_mode="fixed", fixed_lambda=10.0)

    def observer(state):
        # only the conserved pair is needed; skip the windowed machinery
        from abcdsim.diagnostics import _Snap, _zero_samples, hamiltonian_h, momentum
        sp = _Snap(state, _zero_samples(state.grid), p)
        bs = flat_bottom().sample(state.grid, state.t)
        observer.h.append(hamiltonian_h(state, bs, p, sp))
        observer.p.append(momentum(state, sp))

    observer.h, observer.p = [], []
    cfg = SimConfig(params=p, bathymetry=flat_bottom(), grid=g, eta0=eta, u0=u,
                    dt=1e-3, t_end=100.0, snapshot_every=100)
    start = time.perf_counter()
    run(cfg, observer=observer)
    elapsed = time.perf_counter() - start
    hs = np.array(observer.h)
    ps = np.array(observer.p)
    h_drift = float(np.max(np.abs(hs - hs[0])) / abs(hs[0]))
    p_drift = float(np.max(np.abs(ps - ps[0])) / abs(ps[0]))
    print(f"criterion 3: H drift {h_drift:.3e}, P drift {p_drift:.3e}, {elapsed:.0f}s")
    assert h_drift < 1e-8
    assert p_drift < 1e-8
    assert elapsed < 300.0


def test_criterion_4_energy_rate_law():
    # finite differences of H_h along a bump-forced run against the
    # analytic rate, with the residual shrinking at least second order
    res = _rate_sweep("fixed", t_start=0.0, t_end=2.0, bump_t0=0.0, fixed_lambda=10.0)
    ham = res["hamiltonian"]
    print("criterion 4: hamiltonian residuals "
          + " ".join(f"{v:.3e}" for v in ham))
    assert all(v <= RATE_BOUND for v in ham)
    _assert_upper_second_order(ham, "hamiltonian")


def test_criterion_5_virial_rate_laws():
    # the same check for both weighted virial functionals with the
    # moving window scale on t in [11, 61]
    res = _rate_sweep("schedule", t_start=11.0, t_end=61.0, bump_t0=11.0)
    print("criterion 5: virial_i residuals "
          + " ".join(f"{v:.3e}" for v in res["virial_i"])
          + "; virial_j residuals "
          + " ".join(f"{v:.3e}" for v in res["virial_j"]))
    for name in ("virial_i", "virial_j"):
        vals = res[name]
        assert all(v <= RATE_BOUND for v in vals), name
        _assert_upper_second_order(vals, name)


def test_criterion_6_decomposition_identities():
    # regrouped rate of I + alpha J and its canonical-variable rewrite,
    # over 50 random states and 5 parameter triples
    g = Grid(40 * np.pi, 256)
    w = weight_set(g, 10.0)
    bump = decaying_bump(1e-2, width=2.0)
    flat_bs = flat_bottom().sample(g, 0.0)
    bump_bs = bump.sample(g, 0.1)
    triples = [
        (-1.0, -1.0, 0.0),
        (-1.0, -1.0, 0.5),
        (-2.0 / 3.0, -0.5, 0.25),
        (-0.5, -0.2, -0.3),
        (-0.9, -0.7, 0.1),
    ]
    worst_group = worst_chvar = 0.0
    for a, c, alpha in triples:
        p = AbcdParams(a=a, c=c, a1=0.3, c1=0.56)
        qc = quadratic_coeffs(a, c, alpha)
        for seed in range(50):
            s = State(g, *random_bandlimited_pair(g, seed=seed, eps=0.05), 0.0)
            bs = bump_bs if seed % 2 else flat_bs
            dec = virial_rate_decomposition(s, bs, p, alpha, w)
            grouped = dec["Q"] + dec["SQ"] + dec["NQ"] + dec["NH"]
            direct = virial_rate_I_rhs(s, bs, p, w) + alpha * virial_rate_J_rhs(s, bs, p, w)
            scale = sum(abs(v) for v in virial_rate_I_terms(s, bs, p, w).values()) + sum(
                abs(alpha * v) for v in virial_rate_J_terms(s, bs, p, w).values()
            )
            worst_group = max(worst_group, abs(grouped - direct) / max(scale, 1e-30))
            chvar = abs(dec["Q"] - quadratic_form_fg(s, qc, w))
            worst_chvar = max(worst_chvar, chvar / max(quadratic_form_scale(s, qc, w), 1e-30))
    print(f"criterion 6: regrouping residual {worst_group:.3e}, "
          f"change-of-variables residual {worst_chvar:.3e}")
    assert worst_group <= 1e-10
    assert worst_chvar <= 1e-8


def test_criterion_7_classifier_truth_table():
    # fixed verdicts, with margins recomputed from the raw inequalities
    v = satisfies_refined_dispersion(-1.0, -1.0)
    assert v.accepted and v.branch == "main-inequality"
    assert v.margin == pytest.approx(8.0 * 1.0 - 3.0 * (-2.0) - 2.0)  # 12

    v = satisfies_refined_dispersion(-1.0 / 8.0, -1.0 / 2.0)
    assert v.accepted and v.branch == "main-inequality"
    assert v.margin == pytest.approx(8.0 / 16.0 - 3.0 * (-5.0 / 8.0) - 2.0)  # 0.375

    v = satisfies_refined_dispersion(-1.0 / 48.0, -1.0 / 48.0)
    assert not v.accepted and v.branch == "rejected"
    assert find_admissible_alpha(-1.0 / 48.0, -1.0 / 48.0) is None

    # (-0.5, -0.2): past the main inequality, and independently inside
    # the first row of the mirrored refined family
    a, c = -0.5, -0.2
    v = satisfies_refined_dispersion(a, c)
    assert v.accepted
    assert v.margin == pytest.approx(8.0 * a * c - 3.0 * (a + c) - 2.0)  # 0.9
    case, margin = refined_margin(a, c)
    assert case == "refined-case-2"
    hand_margin = 45.0 * a * c - (1.0 - c)
    assert margin == pytest.approx(hand_margin)
    assert hand_margin == pytest.approx(3.3)
    assert margin > 0.0
    print("criterion 7: verdicts and margins match the raw inequalities")


def _decay_protocol(bathymetry):
    g = Grid(200 * np.pi, 4096)
    p = AbcdParams(a=-1.0, c=-1.0)
    eta, u = gaussian_pair(g, eps=1e-2, width=5.0)
    cfg = SimConfig(params=p, bathymetry=bathymetry, grid=g, eta0=eta, u0=u,
                    dt=0.05, t_start=11.0, t_end=211.0, snapshot_every=5)
    result = run(cfg)
    states = result.snapshots
    norms = np.array([state_h1_norm(s) for s in states])
    ds = decay_metrics(states, alpha=0.0)
    sup_ratio = float(norms.max() / norms[0])
    final_over_max = float(ds.windowed[-1] / ds.windowed.max())
    R = ds.running_integral
    i_cut = int(np.searchsorted(ds.t, ds.t[0] + 0.8 * (ds.t[-1] - ds.t[0])))
    growth = float((R[-1] - R[i_cut]) / R[-1])
    return sup_ratio, final_over_max, growth


def test_criterion_8_decay_phenomenology():
    # long window runs: bounded norms, decayed window, converged integral;
    # once flat and once over the fading bump
    start = time.perf_counter()
    for label, b in (("flat", flat_bottom()),
                     ("bump", decaying_bump(1e-3, width=2.0, t0=11.0))):
        sup_ratio, final_over_max, growth = _decay_protocol(b)
        print(f"criterion 8 [{label}]: sup ratio {sup_ratio:.6f}, "
              f"window final/max {final_over_max:.3e}, "
              f"integral growth {growth:.3e}")
        assert sup_ratio <= 2.0, label
        assert final_over_max <= 0.5, label
        assert growth < 0.05, label
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0


OUT_OF_REGION_TEXT = """
[experiment]
kind = decay-run
output_dir = {out}
seed = 0

[params]
a = -0.020833333333333332
c = -0.020833333333333332

[grid]
half_length = 200*pi
n = 4096

[initial]
kind = gaussian
eps = 0.01
width = 5.0

[time]
dt = 0.05
t_start = 11.0
t_end = 211.0
snapshot_every = 40
"""


def test_criterion_9_out_of_region_contrast(tmp_path):
    # same protocol at a = c = -1/48: artifacts are emitted and flagged,
    # and no decay conclusion is asserted either way
    out = tmp_path / "contrast"
    cfg_path = tmp_path / "contrast.ini"
    cfg_path.write_text(OUT_OF_REGION_TEXT.format(out=out))
    code = cli_main(["run", str(cfg_path)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["out_of_region"] is True
    assert summary["flags"] == {"out_of_region": True}
    assert summary["region"]["accepted"] is False
    assert "observed" in summary  # metrics reported, not asserted
    for name in ("diagnostics.csv", "initial_state.csv", "final_state.csv"):
        assert (out / name).exists(), name
    print("criterion 9: out-of-region run emitted and flagged, "
          f"observed metrics {summary['observed']}")
