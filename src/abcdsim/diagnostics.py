"""Conserved functionals, virial functionals, and their analytic rate laws.

Each rate law is evaluated term by term, grouped exactly as its
derivation groups it, and the named terms are exposed through the
*_terms functions so a transcription slip shows up in one number instead
of a sum.  Two independent routes exist for the key quantities (the
grouped decomposition versus the raw rate laws, and the quadratic form
in physical versus canonical variables); the engine records the
disagreement of each pair.

A static window (dlam = 0) has no dt rows (see `_weight_rows`), so its
moving-window integrals are 0, as the bottom integrals are over a flat bottom.

Conventions used throughout: T is the Helmholtz inverse (1 - dxx)^-1,
f = T u and g = T eta are the canonical variables, and w1 denotes the
bottom forcing (-1 + a1 dxx) dt h = a1 * dt_dxx_h - dt_h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .bathymetry import Bathymetry, BathymetrySamples, flat_bottom
from .classifier import QuadCoeffs, quadratic_coeffs
from .grid import Grid
from .params import AbcdParams
from .solver import State, _bottom_forcing, _h1_norm
from .weights import T_MIN, WeightSet, scheduled_weights, weight_set

__all__ = [
    "hamiltonian_h",
    "hamiltonian_rate_terms",
    "hamiltonian_rate_rhs",
    "momentum",
    "virial_I",
    "virial_J",
    "moving_weight_I",
    "moving_weight_J",
    "virial_rate_I_terms",
    "virial_rate_I_rhs",
    "virial_rate_J_terms",
    "virial_rate_J_rhs",
    "virial_rate_decomposition",
    "quadratic_form_fg",
    "quadratic_form_scale",
    "canonical_identity_residuals",
    "local_energy",
    "local_energy_rate_terms",
    "local_energy_rate_rhs",
    "windowed_h1",
    "interval_h1",
    "DecaySeries",
    "decay_metrics",
    "fd5_derivative",
    "DiagnosticsEngine",
]


_BLOCK_POINTS = 2048  # grid points per block of snapshots: B = max(1, 2048 // N)


class _Snap:
    """Every field the functionals read at one snapshot or at a block of
    snapshots, the rows of one weight set, and the integrals of their products.

    The fields are built eagerly from the states' rfft coefficients
    (zero-padded products as in Boyd 2001, ch. 11): one stacked pass to
    the 3/2 fine grid and back for the dealiased products u^2 and u eta
    (and u h), and one stacked irfft of the whole ladder of derivatives
    and T images, the bottom forcing rows included.  The bottom enters
    through the spectra its sample carries, so it costs no transform of
    its own.  Over a flat bottom every bottom field is None.  With
    ladder=False only u, eta, their first derivatives (one stacked irfft)
    and the densities momentum, h1 and energy are built.

    `state` is one State, or a block: a list of B States on one grid, with
    `bs` the list of their samples.  A block costs the same 3 transforms,
    each over the rows of all B, and its fields are contiguous (B, N)
    arrays, so every integral is a row reduce that gives each snapshot
    the float it gets alone; a block of one is a snapshot, with (N,)
    fields.  `rows` holds the weight rows (see `_weight_rows`), and
    `buffers` the ladder's arrays that an engine reuses from block to block.
    """

    _UV = ("du", "d2u", "cf", "cf1", "cf2", "cf3", "deta", "d2eta", "cg", "cg1", "cg2", "cg3")
    _PRODUCTS = ("T_uu", "Tdx_uu", "T_ue", "Tdx_ue", "T_uh", "Tdx_uh")
    _BOTTOM = ("T_w1", "Tdx_w1", "w1", "T_dth", "T_q", "T_q2", "big_f", "big_g")
    _SAMPLED = ("h", "dx_h", "dt_h", "dt_dx_h", "dtt_dx_h")

    def __init__(self, state, bs, p: AbcdParams | None, ladder=True, rows: dict | None = None,
                 buffers: dict | None = None):
        states, samples = ([state], [bs]) if isinstance(state, State) else (state, bs)
        g = self.g = states[0].grid
        if not all(g.compatible(s.grid) and g.compatible(b.grid) for s, b in zip(states, samples)):
            raise ValueError("state and bathymetry samples live on different grids")
        self._integrals: dict = {}  # name tuple -> integral, see `fill`
        y = self.coeffs = np.stack([s.coeffs for s in states], axis=1)  # (2, B, N/2 + 1)
        f = {"u": np.array([s.u for s in states]), "eta": np.array([s.eta for s in states])}
        if ladder:
            f.update(self._ladder(g, y, samples, p, {} if buffers is None else buffers))
        else:
            f["du"], f["deta"] = g.from_hat(y * g._ik)
        u, eta, du, deta = f["u"], f["eta"], f["du"], f["deta"]
        uu, ee, dudu, dede = u**2, eta**2, du**2, deta**2
        f["momentum"] = u * eta + du * deta
        f["h1"] = uu + ee + dudu + dede
        if p is not None:
            h = np.array([b.h for b in samples])
            f["energy"] = -p.a * dudu - p.c * dede + uu + ee + uu * (eta + h)
        if len(states) == 1:
            f = {k: None if v is None else v[0] for k, v in f.items()}
        self.__dict__.update(f, **(rows or {}))
        self._shape = f["u"].shape

    @classmethod
    def _ladder(cls, g: Grid, y, samples, p, buffers) -> dict:
        ik, d2, helm = g._ik, -g.k2, g._helm
        zero = samples[0].zero
        if not zero:
            spectra = np.stack([b.spectra for b in samples], axis=1)
            h_hat, (T_q, T_w1) = _bottom_forcing(g, p, spectra)
            y = np.concatenate((y, h_hat[None]))
        split = 12 + 2 * len(y)  # the rows of u, eta and the products come first
        names = cls._UV + cls._PRODUCTS[: split - 12] + (() if zero else cls._BOTTOM)
        shape = (len(names),) + y.shape[1:]
        if shape not in buffers:  # the ladder's spectra and fields, and the products' work arrays
            buffers[shape] = (np.empty(shape, complex), np.empty(shape[:-1] + (g.N,)),
                              g._product_buffers(y.shape))
        rows, fields, work = buffers[shape]
        prods = g._dealiased_products(y, work)  # u^2, u eta [, u h]
        # d, d2, T, T d, T d2, T d3 of u and eta; T and T d of each product
        tower = np.stack((ik, d2, helm, ik * helm, d2 * helm, ik * d2 * helm))[:, None]
        images = np.stack((helm, ik * helm))[:, None]
        np.multiply(y[0], tower, out=rows[:6])
        np.multiply(y[1], tower, out=rows[6:12])
        np.multiply(prods[:, None], images, out=rows[12:split].reshape((-1, 2) + y.shape[1:]))
        if not zero:
            np.stack((
                T_w1, ik * T_w1, (1.0 + g.k2) * T_w1,  # T w1, T dx w1, w1 = (1 - dxx) T w1
                helm * spectra[1], T_q, helm * spectra[4],
                helm * ((1.0 - p.a * g.k2) * y[0] + prods[1] + prods[2]),  # F = T(a dxx u + u + u(eta+h))
                helm * ((1.0 - p.c * g.k2) * y[1] + 0.5 * prods[0]),      # G = T(c dxx eta + eta + u^2/2)
            ), out=rows[split:])
        f = dict(zip(names, g._irfft(rows, out=fields)))
        if zero:
            f.update(dict.fromkeys(cls._SAMPLED + cls._PRODUCTS[4:] + cls._BOTTOM))
            f["T_ueh"], f["Tdx_ueh"] = f["T_ue"], f["Tdx_ue"]
        else:
            f.update({k: np.array([getattr(b, k) for b in samples]) for k in cls._SAMPLED})
            f["T_ueh"], f["Tdx_ueh"] = f["T_ue"] + f["T_uh"], f["Tdx_ue"] + f["Tdx_uh"]
        return f

    def __call__(self, *names):
        """The integral of the product of the named fields and weight rows (see `fill`)."""
        if names not in self._integrals:
            self.fill((names,))
        return self._integrals[names]

    def fill(self, plan) -> None:
        """Evaluate each integral named in plan (tuples of names) not held yet, 0 if a
        factor is None: products, left to right, into one stack, one row reduce."""
        fields, known = self.__dict__, self._integrals
        todo = [names for names in dict.fromkeys(plan) if names not in known]
        dead = {name for name, f in fields.items() if f is None}
        live = [names for names in todo if dead.isdisjoint(names)]
        known.update(dict.fromkeys(todo, 0.0))
        stack = np.empty((len(live),) + self._shape)
        for row, names in zip(stack, live):
            product = fields[names[0]]
            for name in names[1:]:
                product = np.multiply(product, fields[name], out=row)
            if product is not row:
                row[...] = product
        sums = self.g.dx * np.add.reduce(stack, axis=-1)
        known.update(zip(live, sums if sums.ndim > 1 else sums.tolist()))


def _window(g: Grid, lam) -> dict:
    """sech^2(x/lam) and the indicator of |x| <= lam."""
    return {"sech2": 1.0 / np.cosh(g.x / lam) ** 2, "inside": (np.abs(g.x) <= lam).astype(float)}


def _weight_rows(g: Grid, w) -> dict:
    """The rows the integrals read from a WeightSet: its fields, `_window` and
    |d3phi|.  Of a list of sets, each row stacked over the list.  A static
    window (dlam = 0 in every set) has no dt rows: they are None."""
    each = []
    for v in w if isinstance(w, list) else [w]:
        g.check(v.phi)
        each.append({**{f.name: getattr(v, f.name) for f in dataclass_fields(v)},
                     **_window(g, v.lam), "abs_d3phi": np.abs(v.d3phi)})
    rows = each[0] if len(each) == 1 else {k: np.array([r[k] for r in each]) for k in each[0]}
    if not np.any(rows["dlam"]):
        rows.update(dict.fromkeys(("dt_phi", "dt_dphi", "dt_psi")))
    return rows


def _zero_samples(g: Grid) -> BathymetrySamples:
    return flat_bottom().sample(g, 0.0)


def _snapof(s: State, snap: _Snap | None, bs=None, p=None, ladder=True, w=None) -> _Snap:
    """The caller's scratch (which may hold a block and carries its weight rows,
    so s, bs and w are then not read), or a fresh one for s (over a flat bottom
    if bs is not given) with the rows of the WeightSet w; ladder=False for a
    caller that reads only u, eta, their first derivatives and the densities."""
    if snap is None:
        rows = None if w is None else _weight_rows(s.grid, w)
        snap = _Snap(s, _zero_samples(s.grid) if bs is None else bs, p, ladder, rows)
    return snap


# -- global functionals --------------------------------------------------

def hamiltonian_h(s: State, bs: BathymetrySamples, p: AbcdParams, snap: _Snap | None = None) -> float:
    """H_h = 1/2 int(-a (dx u)^2 - c (dx eta)^2 + u^2 + eta^2 + u^2 (eta + h))."""
    return 0.5 * _snapof(s, snap, bs, p, ladder=False)("energy")


def hamiltonian_rate_terms(s: State, bs: BathymetrySamples, p: AbcdParams,
                           snap: _Snap | None = None) -> dict:
    """The six displayed lines of the forced energy law, term by term."""
    gi = _snapof(s, snap, bs, p)

    def mix(q):  # int ((1 + c) eta + u^2/2) q
        return (1.0 + p.c) * gi("eta", q) + 0.5 * gi("u", "u", q)

    return {
        "u_qdxh": -p.a * p.c1 * gi("u", "dtt_dx_h"),
        "u_T_qdxh": p.c1 * ((1.0 + p.a) * gi("u", "T_q") + gi("eta", "u", "T_q") + gi("h", "u", "T_q")),
        "eta_dth": p.c * gi("eta", "dt_h"),
        "deta_dtdxh": p.c * p.a1 * gi("deta", "dt_dx_h"),
        "mix_T_dth": (p.a1 - 1.0) * mix("T_dth"),
        "mix_dth": -p.a1 * mix("dt_h"),
        "u2_dth": 0.5 * gi("u", "u", "dt_h"),
    }


def hamiltonian_rate_rhs(s, bs, p, snap=None) -> float:
    return sum(hamiltonian_rate_terms(s, bs, p, snap).values())


def momentum(s: State, snap: _Snap | None = None) -> float:
    """P = int(u eta + dx u dx eta), conserved over a flat bottom."""
    return _snapof(s, snap, ladder=False)("momentum")


# -- virial functionals --------------------------------------------------

def virial_I(s: State, w: WeightSet, snap: _Snap | None = None) -> float:
    """I = int phi (u eta + dx u dx eta)."""
    return _snapof(s, snap, ladder=False, w=w)("phi", "momentum")


def virial_J(s: State, w: WeightSet, snap: _Snap | None = None) -> float:
    """J = int phi' eta dx u."""
    return _snapof(s, snap, ladder=False, w=w)("dphi", "eta", "du")


def moving_weight_I(s: State, w: WeightSet, snap: _Snap | None = None) -> float:
    """Correction from the moving window: int (dt phi)(u eta + dx u dx eta)."""
    return _snapof(s, snap, ladder=False, w=w)("dt_phi", "momentum")


def moving_weight_J(s: State, w: WeightSet, snap: _Snap | None = None) -> float:
    """Correction from the moving window: int (dt phi') eta dx u."""
    return _snapof(s, snap, ladder=False, w=w)("dt_dphi", "eta", "du")


def virial_rate_I_terms(s: State, bs: BathymetrySamples, p: AbcdParams, w: WeightSet,
                        snap: _Snap | None = None) -> dict:
    """All integral groups of the I rate law (static-weight part)."""
    gi = _snapof(s, snap, bs, p, w=w)
    return {
        "du_sq": -0.5 * p.a * gi("dphi", "du", "du"),
        "deta_sq": -0.5 * p.c * gi("dphi", "deta", "deta"),
        "u_sq": -(p.a + 0.5) * gi("dphi", "u", "u"),
        "eta_sq": -(p.c + 0.5) * gi("dphi", "eta", "eta"),
        "u_Tu": (1.0 + p.a) * gi("dphi", "u", "cf"),
        "eta_Teta": (1.0 + p.c) * gi("dphi", "eta", "cg"),
        "u2_eta": -0.5 * gi("dphi", "u", "u", "eta"),
        "u_Tue": gi("dphi", "u", "T_ue"),
        "eta_Tuu": 0.5 * gi("dphi", "eta", "T_uu"),
        "h_flux": -0.5 * (gi("dphi", "u", "u", "h") + gi("phi", "dx_h", "u", "u")),
        "u_Tuh": gi("dphi", "u", "T_uh"),
        "eta_Tq2": -p.c1 * gi("dphi", "eta", "T_q2"),
        "u_Tdxw1": -gi("dphi", "u", "Tdx_w1"),
        "eta_q": p.c1 * gi("phi", "eta", "dtt_dx_h"),
        "u_w1": gi("phi", "u", "w1"),
    }


def virial_rate_I_rhs(s, bs, p, w, snap=None) -> float:
    return sum(virial_rate_I_terms(s, bs, p, w, snap).values())


def virial_rate_J_terms(s: State, bs: BathymetrySamples, p: AbcdParams, w: WeightSet,
                        snap: _Snap | None = None) -> dict:
    """All integral groups of the J rate law (static-weight part)."""
    gi = _snapof(s, snap, bs, p, w=w)
    return {
        "eta_sq": (1.0 + p.c) * gi("dphi", "eta", "eta"),
        "deta_sq": -p.c * gi("dphi", "deta", "deta"),
        "u_sq": -(1.0 + p.a) * gi("dphi", "u", "u"),
        "du_sq": p.a * gi("dphi", "du", "du"),
        "eta_Teta": -(1.0 + p.c) * gi("dphi", "eta", "cg"),
        "u_Tu": (1.0 + p.a) * gi("dphi", "u", "cf"),
        "u_Tdxu": (1.0 + p.a) * gi("d2phi", "u", "cf1"),
        "eta_sq_w3": 0.5 * p.c * gi("d3phi", "eta", "eta"),
        "u2_eta": -0.5 * gi("dphi", "u", "u", "eta"),
        "eta_Tuu": -0.5 * gi("dphi", "eta", "T_uu"),
        "u_Tue": gi("dphi", "u", "T_ue"),
        "u_Tdxue": gi("d2phi", "u", "Tdx_ue"),
        "u2_h": -gi("dphi", "u", "u", "h"),
        "u_Tuh": gi("dphi", "u", "T_uh"),
        "u_Tdxuh": gi("d2phi", "u", "Tdx_uh"),
        "du_Tw1": gi("dphi", "du", "T_w1"),
        "eta_Tq2": p.c1 * gi("dphi", "eta", "T_q2"),
    }


def virial_rate_J_rhs(s, bs, p, w, snap=None) -> float:
    return sum(virial_rate_J_terms(s, bs, p, w, snap).values())


# -- decomposition of the mixed virial rate ------------------------------

def virial_rate_decomposition(s: State, bs: BathymetrySamples, p: AbcdParams,
                              alpha: float, w: WeightSet,
                              snap: _Snap | None = None) -> dict:
    """Regrouped rate of I + alpha J: leading quadratic part Q, small
    linear part SQ, nonlinear part NQ, bottom part NH, plus the moving
    window corrections.  Q + SQ + NQ + NH equals the I rate plus alpha
    times the J rate identically."""
    gi = _snapof(s, snap, bs, p, w=w)
    a, c = p.a, p.c

    q = (
        ((1.0 + c) * (alpha - 1.0) + 0.5) * gi("dphi", "eta", "eta")
        - c * (alpha + 0.5) * gi("dphi", "deta", "deta")
        + ((1.0 + a) * (-alpha - 1.0) + 0.5) * gi("dphi", "u", "u")
        + a * (alpha - 0.5) * gi("dphi", "du", "du")
        + (1.0 + c) * (1.0 - alpha) * gi("dphi", "eta", "cg")
        + (1.0 + a) * (1.0 + alpha) * gi("dphi", "u", "cf")
    )
    sq = alpha * (1.0 + a) * gi("d2phi", "u", "cf1") + 0.5 * alpha * c * gi("d3phi", "eta", "eta")
    nq = (
        -0.5 * (alpha + 1.0) * gi("dphi", "u", "u", "eta")
        + 0.5 * (1.0 - alpha) * gi("dphi", "eta", "T_uu")
        + (alpha + 1.0) * gi("dphi", "u", "T_ue")
        + alpha * gi("d2phi", "u", "Tdx_ue")
    )
    nh = (
        -0.5 * (gi("dphi", "u", "u", "h") + gi("phi", "dx_h", "u", "u"))
        + (1.0 + alpha) * gi("dphi", "u", "T_uh")
        - alpha * gi("dphi", "u", "u", "h")
        + alpha * gi("d2phi", "u", "Tdx_uh")
        + (alpha - 1.0) * p.c1 * gi("dphi", "eta", "T_q2")
        - gi("dphi", "u", "Tdx_w1")
        + alpha * gi("dphi", "du", "T_w1")
        + p.c1 * gi("phi", "eta", "dtt_dx_h")
        + gi("phi", "u", "w1")
    )
    return {"Q": q, "SQ": sq, "NQ": nq, "NH": nh,
            "movingI": moving_weight_I(s, w, gi), "movingJ": alpha * moving_weight_J(s, w, gi)}


# (coefficient, field) pairs of the canonical quadratic form: the phi' weighted
# main part and the phi''' weighted correction
_CANON_MAIN = (("A1", "cf"), ("A2", "cf1"), ("A3", "cf2"), ("A4", "cf3"),
               ("B1", "cg"), ("B2", "cg1"), ("B3", "cg2"), ("B4", "cg3"))
_CANON_CORR = (("D11", "cf"), ("D12", "cf1"), ("D21", "cg"), ("D22", "cg1"))


def quadratic_form_fg(s: State, qc: QuadCoeffs, w: WeightSet,
                      snap: _Snap | None = None) -> float:
    """The leading quadratic part rewritten in canonical variables."""
    gi = _snapof(s, snap, w=w)
    main = sum(getattr(qc, k) * gi("dphi", f, f) for k, f in _CANON_MAIN)
    corr = sum(getattr(qc, k) * gi("d3phi", f, f) for k, f in _CANON_CORR)
    return main + corr


def quadratic_form_scale(s: State, qc: QuadCoeffs, w: WeightSet,
                         snap: _Snap | None = None) -> float:
    """Sum of absolute contributions, a robust relative-error scale."""
    sp = _snapof(s, snap, w=w)
    pieces = [abs(getattr(qc, k)) * sp("dphi", f, f) for k, f in _CANON_MAIN] + [
        abs(getattr(qc, k)) * sp(f, f, "abs_d3phi") for k, f in _CANON_CORR
    ]
    return sum(abs(x) for x in pieces)


def canonical_identity_residuals(s: State, w: WeightSet, snap: _Snap | None = None) -> tuple:
    """Relative residuals of the two weighted change-of-variable identities.

    First: int phi' u^2 = int phi' (f^2 + 2 f'^2 + f''^2) - int phi''' f^2.
    Second: int phi' u T u = int phi' (f^2 + f'^2) - 1/2 int phi''' f^2.
    """
    gi = _snapof(s, snap, w=w)
    f0, f1, w3 = gi("dphi", "cf", "cf"), gi("dphi", "cf1", "cf1"), gi("d3phi", "cf", "cf")
    lhs1 = gi("dphi", "u", "u")
    rhs1 = f0 + 2.0 * f1 + gi("dphi", "cf2", "cf2") - w3
    lhs2 = gi("dphi", "u", "cf")
    rhs2 = f0 + f1 - 0.5 * w3
    return abs(lhs1 - rhs1) / np.maximum(1.0, abs(lhs1)), abs(lhs2 - rhs2) / np.maximum(1.0, abs(lhs2))


# -- localized energy ----------------------------------------------------

def local_energy(s: State, bs: BathymetrySamples, p: AbcdParams, w: WeightSet,
                 snap: _Snap | None = None) -> float:
    """E_loc = 1/2 int psi (-a (dx u)^2 - c (dx eta)^2 + u^2 + eta^2 + u^2(eta+h))."""
    return 0.5 * _snapof(s, snap, bs, p, ladder=False, w=w)("psi", "energy")


def local_energy_rate_terms(s: State, bs: BathymetrySamples, p: AbcdParams, w: WeightSet,
                            snap: _Snap | None = None) -> dict:
    """Rate of the localized energy: main line, moving-window part SNL0,
    commutator part SNL1, bottom part SNLh (0 over a flat bottom)."""
    gi = _snapof(s, snap, bs, p, w=w)
    a, c = p.a, p.c

    main = (
        gi("dpsi", "cf", "cg")
        - (1.0 + 2.0 * (a + c)) * gi("dpsi", "cf1", "cg1")
        + 3.0 * a * c * gi("dpsi", "cf2", "cg2")
        + a * c * gi("dpsi", "cf3", "cg3")
    )

    snl0 = 0.5 * gi("dt_psi", "energy")

    # T_ueh = T(u (eta + h)); the last two lines hold dx(psi' dx u) and dx(psi' dx eta)
    snl1 = (
        a * (c - 1.0) * gi("d2psi", "cf2", "cg1")
        + c * (a - 1.0) * gi("d2psi", "cf1", "cg2")
        - a * gi("d2psi", "cf1", "cg")
        - c * gi("d2psi", "cf", "cg1")
        + a * gi("d2psi", "cf2", "cg1")
        + c * gi("d2psi", "cf1", "cg2")
        + 0.5 * a * gi("dpsi", "cf2", "T_uu")
        + 0.5 * gi("dpsi", "cf", "T_uu")
        + c * gi("dpsi", "cg2", "T_ueh")
        + gi("dpsi", "cg", "T_ueh")
        + 0.5 * gi("dpsi", "T_ueh", "T_uu")
        - 0.5 * a * gi("dpsi", "cf3", "Tdx_uu")
        - 0.5 * gi("dpsi", "cf1", "Tdx_uu")
        - c * gi("dpsi", "cg3", "Tdx_ueh")
        - gi("dpsi", "cg1", "Tdx_ueh")
        - 0.5 * gi("dpsi", "Tdx_ueh", "Tdx_uu")
        + 0.5 * a * (gi("d2psi", "du", "T_uu") + gi("dpsi", "d2u", "T_uu"))
        + c * (gi("d2psi", "deta", "T_ueh") + gi("dpsi", "d2eta", "T_ueh"))
    )
    snl1 += a * p.c1 * gi("dpsi", "du", "T_q") + c * gi("dpsi", "deta", "T_w1")

    snlh = (
        0.5 * gi("psi", "u", "u", "dt_h")
        + p.c1 * gi("psi", "big_f", "dtt_dx_h")
        + gi("psi", "big_g", "w1")
        - p.c1 * gi("d2psi", "big_f", "T_q")
        - 2.0 * p.c1 * gi("dpsi", "big_f", "T_q2")
        - gi("d2psi", "big_g", "T_w1")
        - 2.0 * gi("dpsi", "big_g", "Tdx_w1")
    )
    return {"main": main, "snl0": snl0, "snl1": snl1, "snlh": snlh}


def local_energy_rate_rhs(s, bs, p, w, snap=None) -> float:
    return sum(local_energy_rate_terms(s, bs, p, w, snap).values())


# -- decay metrics -------------------------------------------------------

def windowed_h1(s: State, lam: float) -> float:
    """int sech^2(x/lam) (u^2 + eta^2 + (dx u)^2 + (dx eta)^2)."""
    return _Snap(s, _zero_samples(s.grid), None, ladder=False, rows=_window(s.grid, lam))("sech2", "h1")


def interval_h1(s: State, lam: float) -> float:
    """Same local H1 density integrated over the plain interval |x| <= lam."""
    return _Snap(s, _zero_samples(s.grid), None, ladder=False, rows=_window(s.grid, lam))("inside", "h1")


class _RunningTrapezoid:
    """Cumulative trapezoid of a series fed in time order, a block of samples at a time."""

    def __init__(self):
        self._last = None  # (t, value, integral) of the last sample fed

    def add(self, t, values) -> np.ndarray:
        """The integral at each of the times t (after those fed before), from 0 at the first."""
        t, v = np.broadcast_arrays(t, values)
        t0, v0, total = self._last or (t[0], v[0], 0.0)
        steps = 0.5 * (v + np.append(v0, v[:-1])) * np.diff(t, prepend=t0)
        out = np.add.accumulate(np.append(total, steps))[1:]  # one sum after another, as a loop adds
        self._last = t[-1], v[-1], out[-1]
        return out


def _decay_columns(states: list, sp: _Snap, alpha: float, running: _RunningTrapezoid) -> tuple:
    """(windowed H1, interval H1, running integral of windowed/lambda, I + alpha J)
    of a block of states whose snapshot sp has its weight rows set; feed the
    blocks in time order, since `running` carries the integral across them."""
    windowed = sp("sech2", "h1")
    return (windowed, sp("inside", "h1"), running.add([s.t for s in states], windowed / sp.lam),
            virial_I(states, None, sp) + alpha * virial_J(states, None, sp))


@dataclass
class DecaySeries:
    t: np.ndarray
    lam: np.ndarray
    windowed: np.ndarray
    interval: np.ndarray
    running_integral: np.ndarray
    hcal: np.ndarray


def decay_metrics(states: list, alpha: float = 0.0) -> DecaySeries:
    """Windowed-decay series along a trajectory on one grid with t >= T_MIN throughout.

    running_integral is the cumulative trapezoid of windowed/lambda; hcal
    is I + alpha J with the scheduled moving weight.  The snapshots are
    evaluated in blocks, as the engine does.
    """
    if len(states) < 2:
        raise ValueError("trajectory too short for decay metrics (need at least 2 snapshots)")
    if states[0].t < T_MIN:
        raise ValueError(f"decay metrics need t >= {T_MIN}, trajectory starts at {states[0].t}")
    g, running, blocks = states[0].grid, _RunningTrapezoid(), []
    size = max(1, _BLOCK_POINTS // g.N)
    for block in (states[i:i + size] for i in range(0, len(states), size)):
        w = [scheduled_weights(g, s.t) for s in block]
        sp = _Snap(block, [_zero_samples(g)] * len(block), None, ladder=False, rows=_weight_rows(g, w))
        blocks.append(([s.t for s in block], [v.lam for v in w], *_decay_columns(block, sp, alpha, running)))
    return DecaySeries(*map(np.hstack, zip(*blocks)))


# -- finite differences along snapshot series ----------------------------

def fd5_derivative(series, dt: float) -> np.ndarray:
    """Five-point centered first derivative; NaN at the two edge pairs."""
    f = np.asarray(series, dtype=float)
    d = np.full(f.shape, np.nan)
    if f.size >= 5:
        d[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * dt)
    return d


# -- the engine ----------------------------------------------------------

class DiagnosticsEngine:
    """Snapshot observer that keeps the diagnostics table, one column per
    name in COLUMNS.

    weight_mode is "schedule" (window scale lambda(t), moving) or
    "fixed" with fixed_lambda (static weight).  The engine accumulates
    the running decay integral, so feed snapshots in time order.

    It evaluates blocks of B = max(1, 2048 // N) snapshots (see `_Snap`):
    one ladder, one table of integrals and one pass of each rate law on
    arrays of B values per block, which it appends to its columns.  As
    `run`'s observer (`__call__`) it buffers a block until it is full or
    the grid or the presence of weights (t = T_MIN, schedule mode)
    changes.  `observe` (a block of one) and `series`, `table` and
    `rate_residuals` evaluate the pending snapshots first.
    """

    # the columns of diagnostics.csv a block computes; the window-scale columns
    # are NaN while the scheduled window is undefined (t < T_MIN in schedule mode)
    COLUMNS = (
        "t", "h1_norm", "hamiltonian", "hamiltonian_rate", "momentum",
        "virial_i", "virial_j", "virial_mix", "virial_i_rate", "virial_j_rate",
        "moving_i", "moving_j", "q_part", "sq_part", "nq_part", "nh_part",
        "decomposition_residual", "q_canonical", "change_var_residual",
        "canon_l2_residual", "canon_nonlocal_residual", "local_energy", "local_energy_rate",
        "windowed_h1", "interval_h1", "running_decay_integral",
    )
    # functionals whose analytic rate is checked against the FD derivative
    _FD_CHECKED = ("hamiltonian", "virial_i", "virial_j", "local_energy")
    RESIDUAL_COLUMNS = tuple(name + "_residual" for name in _FD_CHECKED)

    def __init__(self, params: AbcdParams, bathymetry: Bathymetry, alpha: float = 0.0,
                 weight_mode: str = "schedule", fixed_lambda: float | None = None):
        if weight_mode not in ("schedule", "fixed"):
            raise ValueError(f"unknown weight_mode {weight_mode!r}")
        if weight_mode == "fixed" and (fixed_lambda is None or not 0.0 < fixed_lambda < math.inf):
            raise ValueError("fixed weight_mode needs a positive, finite fixed_lambda")
        self.params = params
        self.bathymetry = bathymetry
        self.alpha = alpha
        self.weight_mode = weight_mode
        self.fixed_lambda = fixed_lambda
        self.qc = quadratic_coeffs(params.a, params.c, alpha)
        self._columns: dict[str, list] = {name: [] for name in self.COLUMNS}  # one array per block
        self._pending: list[State] = []
        self._decay = _RunningTrapezoid()
        self._fixed_weights: dict[tuple, dict] = {}  # rows of the static window per grid (L, N)
        self._plans: dict[bool, tuple] = {}  # integrals of the last block with/without weights
        self._buffers: dict = {}  # the ladder arrays, reused: new ones fault their pages in anew

    def _weights(self, grid: Grid, ts: list):
        if self.weight_mode == "fixed":
            key = (grid.L, grid.N)
            if key not in self._fixed_weights:
                self._fixed_weights[key] = _weight_rows(grid, weight_set(grid, self.fixed_lambda))
            return self._fixed_weights[key]
        return _weight_rows(grid, [scheduled_weights(grid, t) for t in ts]) if ts[0] >= T_MIN else None

    def __call__(self, state: State) -> None:
        """Observer protocol for solver.run: buffer the snapshot."""
        head = self._pending[:1]
        if head and not (head[0].grid.compatible(state.grid) and (
                self.weight_mode == "fixed" or (head[0].t >= T_MIN) == (state.t >= T_MIN))):
            self._flush()
        self._pending.append(state)
        if len(self._pending) >= max(1, _BLOCK_POINTS // state.grid.N):
            self._flush()

    def observe(self, state: State) -> dict:
        """Evaluate state after the pending snapshots; its row, name -> float."""
        self._flush()
        self._observe_block([state])
        return {name: float(blocks[-1][0]) for name, blocks in self._columns.items()}

    def _flush(self) -> None:
        states, self._pending = self._pending, []
        if states:
            self._observe_block(states)

    def _observe_block(self, states: list) -> None:
        """Append a block's values to the columns (see the class docstring)."""
        p, alpha, g = self.params, self.alpha, states[0].grid
        bs = [self.bathymetry.sample(g, s.t) for s in states]
        w = self._weights(g, [s.t for s in states])
        sp = _Snap(states, bs, p, rows=w, buffers=self._buffers)
        sp.fill(self._plans.get(w is None, ()))
        col = {"t": np.array([s.t for s in states]), "h1_norm": _h1_norm(g, sp.coeffs),
               "hamiltonian": hamiltonian_h(states, bs, p, sp), "momentum": momentum(states, sp),
               "hamiltonian_rate": hamiltonian_rate_rhs(states, bs, p, sp)}
        if w is not None:
            terms_i = virial_rate_I_terms(states, bs, p, w, sp)
            terms_j = virial_rate_J_terms(states, bs, p, w, sp)
            rate_i, rate_j = sum(terms_i.values()), sum(terms_j.values())
            dec = virial_rate_decomposition(states, bs, p, alpha, w, sp)
            grouped, direct = dec["Q"] + dec["SQ"] + dec["NQ"] + dec["NH"], rate_i + alpha * rate_j
            term_scale = sum(abs(v) for v in terms_i.values()) + sum(
                abs(alpha * v) for v in terms_j.values())
            col.update(virial_i=virial_I(states, w, sp), virial_j=virial_J(states, w, sp),
                       moving_i=moving_weight_I(states, w, sp), moving_j=moving_weight_J(states, w, sp),
                       q_part=dec["Q"], sq_part=dec["SQ"], nq_part=dec["NQ"], nh_part=dec["NH"],
                       decomposition_residual=abs(grouped - direct) / np.maximum(term_scale, 1e-30),
                       q_canonical=quadratic_form_fg(states, self.qc, w, sp),
                       local_energy=local_energy(states, bs, p, w, sp),
                       local_energy_rate=local_energy_rate_rhs(states, bs, p, w, sp))
            col["virial_i_rate"], col["virial_j_rate"] = rate_i + col["moving_i"], rate_j + col["moving_j"]
            qscale = quadratic_form_scale(states, self.qc, w, sp)
            col["change_var_residual"] = abs(dec["Q"] - col["q_canonical"]) / np.maximum(qscale, 1e-30)
            canon = canonical_identity_residuals(states, w, sp)
            col["canon_l2_residual"], col["canon_nonlocal_residual"] = canon
            col.update(zip(("windowed_h1", "interval_h1", "running_decay_integral", "virial_mix"),
                           _decay_columns(states, sp, alpha, self._decay)))
        for name, blocks in self._columns.items():  # a value the block shares, or NaN, is repeated
            blocks.append(np.full(len(states), col.get(name, math.nan), dtype=float))
        self._plans[w is None] = tuple(sp._integrals)

    def series(self, name: str) -> np.ndarray:
        """A fresh array of the named column, one value per snapshot."""
        self._flush()
        return np.concatenate(self._columns[name] or [np.empty(0)])

    def table(self) -> dict:
        """The columns of diagnostics.csv, name -> one value per snapshot.

        COLUMNS, then the four FD rate residuals of `rate_residuals`
        (relative to max(1, |rate|)); those are all NaN when the cadence
        does not support FD.
        """
        cols = {name: self.series(name) for name in self.COLUMNS}
        try:
            rr = self.rate_residuals()
        except ValueError:
            rr = {}
        for fname, name in zip(self._FD_CHECKED, self.RESIDUAL_COLUMNS):
            cols[name] = rr[fname][1] if fname in rr else np.full(cols["t"].size, np.nan)
        return cols

    def rate_residuals(self) -> dict:
        """Five-point FD of each tracked functional against its analytic
        rate, as (residual, relative-to-scale) arrays with one value per
        snapshot, NaN where the stencil does not reach or touches a NaN
        value (t < T_MIN in schedule mode), so the finite tail is checked.

        Needs a uniform snapshot cadence; a trailing snapshot that breaks
        it is off the cadence, so the stencil does not reach it either.
        """
        t = self.series("t")
        if t.size < 5:
            raise ValueError("need at least 5 snapshots for rate residuals")
        dt = t[1] - t[0]
        n = t.size
        gaps = np.diff(t)
        if not np.allclose(gaps[:-1], dt, rtol=1e-9, atol=1e-12):
            raise ValueError("snapshot cadence is not uniform")
        if not np.isclose(gaps[-1], dt, rtol=1e-9, atol=1e-12):
            n -= 1  # trailing partial interval
        out = {}
        for fname in self._FD_CHECKED:
            f, r = self.series(fname), self.series(fname + "_rate")
            f[n:] = np.nan
            res = np.abs(fd5_derivative(f, dt) - r)
            out[fname] = res, res / np.maximum(1.0, np.abs(r))
        return out
