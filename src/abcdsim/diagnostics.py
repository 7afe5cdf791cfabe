"""Conserved functionals, virial functionals, and their analytic rate laws.

Each rate law is evaluated term by term, grouped exactly as its
derivation groups it, and the named terms are exposed through the
*_terms functions so a transcription slip shows up in one number instead
of a sum.  Two independent routes exist for the key quantities (the
grouped decomposition versus the raw rate laws, and the quadratic form
in physical versus canonical variables); the engine records the
disagreement of each pair.

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
from .solver import State, _bottom_forcing, state_h1_norm
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
    "nh_bound_parts",
    "local_energy",
    "local_energy_rate_terms",
    "local_energy_rate_rhs",
    "windowed_h1",
    "interval_h1",
    "DecaySeries",
    "decay_metrics",
    "fd5_derivative",
    "DiagnosticsRecord",
    "DiagnosticsEngine",
]


class _Snap:
    """Every field the functionals read at one snapshot, and their integrals.

    The fields are built eagerly from the state's rfft coefficients
    (zero-padded products as in Boyd 2001, ch. 11): one stacked pass to
    the 3/2 fine grid and back for the dealiased products u^2 and u eta
    (and u h), and one stacked irfft of the whole ladder of derivatives
    and T images, the bottom forcing rows included.  The bottom enters
    through the spectra its sample carries, so it costs no transform of
    its own.  Over a flat bottom every bottom field is None.  With
    ladder=False only u, eta, their first derivatives (one stacked irfft)
    and the densities momentum, h1 and energy are built.
    """

    _UV = ("du", "d2u", "cf", "cf1", "cf2", "cf3", "deta", "d2eta", "cg", "cg1", "cg2", "cg3")
    _PRODUCTS = ("T_uu", "Tdx_uu", "T_ue", "Tdx_ue", "T_uh", "Tdx_uh")
    _BOTTOM = ("T_w1", "Tdx_w1", "w1", "T_dth", "T_q", "T_q2", "big_f", "big_g")
    _SAMPLED = ("h", "dx_h", "dt_h", "dt_dx_h", "dtt_dx_h")

    def __init__(self, state: State, bs: BathymetrySamples, p: AbcdParams | None, ladder=True):
        g = state.grid
        if not g.compatible(bs.grid):
            raise ValueError("state and bathymetry samples live on different grids")
        self.g = g
        self._table: dict = {}
        self._bound: dict = {}
        self.u, self.eta = u, eta = state.u, state.eta
        if ladder:
            self._build_ladder(state, bs, p)
        else:
            self.du, self.deta = g.from_hat(state.coeffs * g._ik)
        du, deta = self.du, self.deta
        self.momentum = u * eta + du * deta
        self.h1 = u**2 + eta**2 + du**2 + deta**2
        if p is not None:
            self.energy = -p.a * du**2 - p.c * deta**2 + u**2 + eta**2 + u**2 * (eta + bs.h)

    def _build_ladder(self, state: State, bs: BathymetrySamples, p: AbcdParams | None):
        g = self.g
        ik, d2, helm = g._ik, -g.k2, g._helm
        y = state.coeffs
        if not bs.zero:
            h_hat, (T_q, T_w1) = _bottom_forcing(g, p, bs.spectra)
            y = np.concatenate((y, h_hat[None]))
        fine = g._to_fine(y)
        prods = g._from_fine(fine * fine[0])  # u^2, u eta [, u h]
        # d, d2, T, T d, T d2, T d3 of u and eta; T and T d of each product
        tower = np.stack((ik, d2, helm, ik * helm, d2 * helm, ik * d2 * helm))
        images = np.stack((helm, ik * helm))
        rows = [y[0] * tower, y[1] * tower, (prods[:, None] * images).reshape(-1, helm.size)]
        names = self._UV + self._PRODUCTS[: 2 * len(prods)]
        if not bs.zero:
            rows.append(np.stack((
                T_w1, ik * T_w1, (1.0 + g.k2) * T_w1,  # T w1, T dx w1, w1 = (1 - dxx) T w1
                helm * bs.spectra[1], T_q, helm * bs.spectra[4],
                helm * ((1.0 - p.a * g.k2) * y[0] + prods[1] + prods[2]),  # F = T(a dxx u + u + u(eta+h))
                helm * ((1.0 - p.c * g.k2) * y[1] + 0.5 * prods[0]),      # G = T(c dxx eta + eta + u^2/2)
            )))
            names += self._BOTTOM
        self.__dict__.update(zip(names, g.from_hat(np.concatenate(rows))))
        if bs.zero:
            self.__dict__.update(dict.fromkeys(self._SAMPLED + self._PRODUCTS[4:] + self._BOTTOM))
            self.T_ueh, self.Tdx_ueh = self.T_ue, self.Tdx_ue
        else:
            self.__dict__.update({k: getattr(bs, k) for k in self._SAMPLED})
            self.T_ueh, self.Tdx_ueh = self.T_ue + self.T_uh, self.Tdx_ue + self.Tdx_uh

    def integrate(self, values) -> float:
        """Rectangle rule of a field of this snapshot's grid."""
        return self.g.dx * float(np.add.reduce(values))

    def over(self, w: WeightSet | None):
        """gi(*names): the integral of the product of the named fields and
        weights of w, evaluated once per snapshot; 0 if a factor is None."""
        if w is not None and id(w) not in self._bound:
            self.g.check(w.phi)
            self._bound[id(w)] = w  # keeps id(w) unique while the table lives
        fields, table, key0, integrate = self.__dict__, self._table, id(w), self.integrate

        def gi(*names):
            key = (key0, names)
            value = table.get(key)
            if value is None:
                value, product = 0.0, None
                for name in names:
                    f = fields[name] if name in fields else getattr(w, name)
                    if f is None:
                        break
                    product = f if product is None else product * f
                else:
                    value = integrate(product)
                table[key] = value
            return value

        return gi


def _zero_samples(g: Grid) -> BathymetrySamples:
    return flat_bottom().sample(g, 0.0)


def _snapof(s: State, snap: _Snap | None, bs=None, p=None, ladder=True) -> _Snap:
    """The caller's scratch, or a fresh one (over a flat bottom if bs is not given);
    ladder=False for a caller that reads only u, eta, their first derivatives
    and the densities built from them."""
    if snap is not None:
        return snap
    return _Snap(s, _zero_samples(s.grid) if bs is None else bs, p, ladder)


# -- global functionals --------------------------------------------------

def hamiltonian_h(s: State, bs: BathymetrySamples, p: AbcdParams, snap: _Snap | None = None) -> float:
    """H_h = 1/2 int(-a (dx u)^2 - c (dx eta)^2 + u^2 + eta^2 + u^2 (eta + h))."""
    return 0.5 * _snapof(s, snap, bs, p, ladder=False).over(None)("energy")


def hamiltonian_rate_terms(s: State, bs: BathymetrySamples, p: AbcdParams,
                           snap: _Snap | None = None) -> dict:
    """The six displayed lines of the forced energy law, term by term."""
    gi = _snapof(s, snap, bs, p).over(None)

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
    return float(sum(hamiltonian_rate_terms(s, bs, p, snap).values()))


def momentum(s: State, snap: _Snap | None = None) -> float:
    """P = int(u eta + dx u dx eta), conserved over a flat bottom."""
    return _snapof(s, snap, ladder=False).over(None)("momentum")


# -- virial functionals --------------------------------------------------

def virial_I(s: State, w: WeightSet, snap: _Snap | None = None) -> float:
    """I = int phi (u eta + dx u dx eta)."""
    return _snapof(s, snap, ladder=False).over(w)("phi", "momentum")


def virial_J(s: State, w: WeightSet, snap: _Snap | None = None) -> float:
    """J = int phi' eta dx u."""
    return _snapof(s, snap, ladder=False).over(w)("dphi", "eta", "du")


def moving_weight_I(s: State, w: WeightSet, snap: _Snap | None = None) -> float:
    """Correction from the moving window: int (dt phi)(u eta + dx u dx eta)."""
    if w.dlam == 0.0:
        return 0.0
    return _snapof(s, snap, ladder=False).over(w)("dt_phi", "momentum")


def moving_weight_J(s: State, w: WeightSet, snap: _Snap | None = None) -> float:
    """Correction from the moving window: int (dt phi') eta dx u."""
    if w.dlam == 0.0:
        return 0.0
    return _snapof(s, snap, ladder=False).over(w)("dt_dphi", "eta", "du")


def virial_rate_I_terms(s: State, bs: BathymetrySamples, p: AbcdParams, w: WeightSet,
                        snap: _Snap | None = None) -> dict:
    """All integral groups of the I rate law (static-weight part)."""
    gi = _snapof(s, snap, bs, p).over(w)
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
    return float(sum(virial_rate_I_terms(s, bs, p, w, snap).values()))


def virial_rate_J_terms(s: State, bs: BathymetrySamples, p: AbcdParams, w: WeightSet,
                        snap: _Snap | None = None) -> dict:
    """All integral groups of the J rate law (static-weight part)."""
    gi = _snapof(s, snap, bs, p).over(w)
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
    return float(sum(virial_rate_J_terms(s, bs, p, w, snap).values()))


# -- decomposition of the mixed virial rate ------------------------------

def _grouped_virial_rate(p, alpha, w, sp: _Snap) -> dict:
    """Q, SQ, NQ and NH of virial_rate_decomposition, without the moving-window parts."""
    gi = sp.over(w)
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
    return {"Q": float(q), "SQ": float(sq), "NQ": float(nq), "NH": float(nh)}


def virial_rate_decomposition(s: State, bs: BathymetrySamples, p: AbcdParams,
                              alpha: float, w: WeightSet,
                              snap: _Snap | None = None) -> dict:
    """Regrouped rate of I + alpha J: leading quadratic part Q, small
    linear part SQ, nonlinear part NQ, bottom part NH, plus the moving
    window corrections.  Q + SQ + NQ + NH equals the I rate plus alpha
    times the J rate identically."""
    sp = _snapof(s, snap, bs, p)
    return {
        **_grouped_virial_rate(p, alpha, w, sp),
        "movingI": moving_weight_I(s, w, sp),
        "movingJ": alpha * moving_weight_J(s, w, sp),
    }


# (coefficient, field) pairs of the canonical quadratic form: the phi' weighted
# main part and the phi''' weighted correction
_CANON_MAIN = (("A1", "cf"), ("A2", "cf1"), ("A3", "cf2"), ("A4", "cf3"),
               ("B1", "cg"), ("B2", "cg1"), ("B3", "cg2"), ("B4", "cg3"))
_CANON_CORR = (("D11", "cf"), ("D12", "cf1"), ("D21", "cg"), ("D22", "cg1"))


def quadratic_form_fg(s: State, qc: QuadCoeffs, w: WeightSet,
                      snap: _Snap | None = None) -> float:
    """The leading quadratic part rewritten in canonical variables."""
    gi = _snapof(s, snap).over(w)
    main = sum(getattr(qc, k) * gi("dphi", f, f) for k, f in _CANON_MAIN)
    corr = sum(getattr(qc, k) * gi("d3phi", f, f) for k, f in _CANON_CORR)
    return float(main + corr)


def quadratic_form_scale(s: State, qc: QuadCoeffs, w: WeightSet,
                         snap: _Snap | None = None) -> float:
    """Sum of absolute contributions, a robust relative-error scale."""
    sp = _snapof(s, snap)
    gi = sp.over(w)
    abs_d3phi = np.abs(w.d3phi)
    pieces = [abs(getattr(qc, k)) * gi("dphi", f, f) for k, f in _CANON_MAIN] + [
        abs(getattr(qc, k)) * sp.integrate(abs_d3phi * getattr(sp, f) ** 2) for k, f in _CANON_CORR
    ]
    return float(sum(abs(x) for x in pieces))


def canonical_identity_residuals(s: State, w: WeightSet, snap: _Snap | None = None) -> tuple:
    """Relative residuals of the two weighted change-of-variable identities.

    First: int phi' u^2 = int phi' (f^2 + 2 f'^2 + f''^2) - int phi''' f^2.
    Second: int phi' u T u = int phi' (f^2 + f'^2) - 1/2 int phi''' f^2.
    """
    gi = _snapof(s, snap).over(w)
    f0, f1, w3 = gi("dphi", "cf", "cf"), gi("dphi", "cf1", "cf1"), gi("d3phi", "cf", "cf")
    lhs1 = gi("dphi", "u", "u")
    rhs1 = f0 + 2.0 * f1 + gi("dphi", "cf2", "cf2") - w3
    lhs2 = gi("dphi", "u", "cf")
    rhs2 = f0 + f1 - 0.5 * w3
    return abs(lhs1 - rhs1) / max(1.0, abs(lhs1)), abs(lhs2 - rhs2) / max(1.0, abs(lhs2))


def nh_bound_parts(s: State, bs: BathymetrySamples, w: WeightSet, t: float,
                   delta: float = 0.1, snap: _Snap | None = None) -> tuple:
    """Pieces of the computable NH upper bound.

    Returns (quad_delta, u2_weight, h_units):
        quad_delta = 4 delta int phi'(u^2 + (dx u)^2 + eta^2 + (dx eta)^2)
        u2_weight  = int phi' u^2            (multiplies C * eps)
        h_units    = the bottom-norm and t^{-3/2} unit terms (multiply C)
    so that bound(C, eps) = quad_delta + C * (eps * u2_weight + h_units).
    """
    gi = _snapof(s, snap).over(w)
    g = s.grid
    x0 = gi("dphi", "u", "u")
    quad = 4.0 * delta * (
        x0 + gi("dphi", "du", "du") + gi("dphi", "eta", "eta") + gi("dphi", "deta", "deta")
    )
    n_dth = g.l2_norm(bs.dt_h)
    n_dtdxh = g.l2_norm(bs.dt_dx_h)
    n_dtth = g.l2_norm(bs.dtt_h)
    h_units = (
        n_dth**2 + n_dtdxh**2 + n_dtth**2
        + float(np.max(np.abs(bs.dx_h)))
        + n_dtth + n_dtdxh
        + t ** (-1.5)
    )
    return float(quad), float(x0), float(h_units)


# -- localized energy ----------------------------------------------------

def local_energy(s: State, bs: BathymetrySamples, p: AbcdParams, w: WeightSet,
                 snap: _Snap | None = None) -> float:
    """E_loc = 1/2 int psi (-a (dx u)^2 - c (dx eta)^2 + u^2 + eta^2 + u^2(eta+h))."""
    return 0.5 * _snapof(s, snap, bs, p, ladder=False).over(w)("psi", "energy")


def local_energy_rate_terms(s: State, bs: BathymetrySamples, p: AbcdParams, w: WeightSet,
                            snap: _Snap | None = None) -> dict:
    """Rate of the localized energy: main line, moving-window part SNL0,
    commutator part SNL1, bottom part SNLh (0 over a flat bottom)."""
    gi = _snapof(s, snap, bs, p).over(w)
    a, c = p.a, p.c

    main = (
        gi("dpsi", "cf", "cg")
        - (1.0 + 2.0 * (a + c)) * gi("dpsi", "cf1", "cg1")
        + 3.0 * a * c * gi("dpsi", "cf2", "cg2")
        + a * c * gi("dpsi", "cf3", "cg3")
    )

    snl0 = 0.0 if w.dlam == 0.0 else 0.5 * gi("dt_psi", "energy")

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
    return {"main": float(main), "snl0": float(snl0), "snl1": float(snl1), "snlh": float(snlh)}


def local_energy_rate_rhs(s, bs, p, w, snap=None) -> float:
    return float(sum(local_energy_rate_terms(s, bs, p, w, snap).values()))


# -- decay metrics -------------------------------------------------------

def windowed_h1(s: State, lam: float, snap: _Snap | None = None) -> float:
    """int sech^2(x/lam) (u^2 + eta^2 + (dx u)^2 + (dx eta)^2)."""
    sp = _snapof(s, snap, ladder=False)
    return sp.integrate(1.0 / np.cosh(s.grid.x / lam) ** 2 * sp.h1)


def interval_h1(s: State, lam: float, snap: _Snap | None = None) -> float:
    """Same local H1 density integrated over the plain interval |x| <= lam."""
    sp = _snapof(s, snap, ladder=False)
    return sp.integrate((np.abs(s.grid.x) <= lam).astype(float) * sp.h1)


class _RunningTrapezoid:
    """Cumulative trapezoid of a series fed one sample at a time, in time order."""

    def __init__(self):
        self.total, self._prev = 0.0, None

    def add(self, t: float, value: float) -> float:
        if self._prev is not None:
            t0, v0 = self._prev
            self.total += 0.5 * (value + v0) * (t - t0)
        self._prev = (t, value)
        return self.total


@dataclass
class DecaySeries:
    t: np.ndarray
    lam: np.ndarray
    windowed: np.ndarray
    interval: np.ndarray
    running_integral: np.ndarray
    hcal: np.ndarray


def decay_metrics(states: list, alpha: float = 0.0) -> DecaySeries:
    """Windowed-decay series along a trajectory with t >= T_MIN throughout.

    running_integral is the cumulative trapezoid of windowed/lambda; hcal
    is I + alpha J with the scheduled moving weight.
    """
    if len(states) < 2:
        raise ValueError("trajectory too short for decay metrics (need at least 2 snapshots)")
    if states[0].t < T_MIN:
        raise ValueError(f"decay metrics need t >= {T_MIN}, trajectory starts at {states[0].t}")
    ts, lams, wins, ints, runs, hcals = [], [], [], [], [], []
    running = _RunningTrapezoid()
    for st in states:
        sp = _snapof(st, None, ladder=False)
        w = scheduled_weights(st.grid, st.t)
        ts.append(st.t)
        lams.append(w.lam)
        wins.append(windowed_h1(st, w.lam, sp))
        ints.append(interval_h1(st, w.lam, sp))
        runs.append(running.add(st.t, wins[-1] / w.lam))
        hcals.append(virial_I(st, w, sp) + alpha * virial_J(st, w, sp))
    return DecaySeries(t=np.array(ts), lam=np.array(lams), windowed=np.array(wins),
                       interval=np.array(ints), running_integral=np.array(runs),
                       hcal=np.array(hcals))


# -- finite differences along snapshot series ----------------------------

def fd5_derivative(series, dt: float) -> np.ndarray:
    """Five-point centered first derivative; NaN at the two edge pairs."""
    f = np.asarray(series, dtype=float)
    d = np.full(f.shape, np.nan)
    if f.size >= 5:
        d[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * dt)
    return d


# -- per-snapshot record and the engine ----------------------------------

@dataclass
class DiagnosticsRecord:
    """One row of diagnostics.  Window-scale fields are NaN while the
    scheduled window is undefined (t < T_MIN in schedule mode)."""

    t: float
    h1_norm: float
    hamiltonian: float
    hamiltonian_rate: float
    momentum: float
    virial_i: float = math.nan
    virial_j: float = math.nan
    virial_mix: float = math.nan
    virial_i_rate: float = math.nan
    virial_j_rate: float = math.nan
    moving_i: float = math.nan
    moving_j: float = math.nan
    q_part: float = math.nan
    sq_part: float = math.nan
    nq_part: float = math.nan
    nh_part: float = math.nan
    decomposition_residual: float = math.nan
    q_canonical: float = math.nan
    change_var_residual: float = math.nan
    canon_l2_residual: float = math.nan
    canon_nonlocal_residual: float = math.nan
    local_energy: float = math.nan
    local_energy_rate: float = math.nan
    windowed_h1: float = math.nan
    interval_h1: float = math.nan
    running_decay_integral: float = math.nan

    @classmethod
    def field_names(cls) -> list:
        return [f.name for f in dataclass_fields(cls)]

    def row(self) -> list:
        return [getattr(self, name) for name in self.field_names()]


class DiagnosticsEngine:
    """Snapshot observer computing the full record set.

    weight_mode is "schedule" (window scale lambda(t), moving) or
    "fixed" with fixed_lambda (static weight).  The engine accumulates
    the running decay integral, so feed snapshots in time order.
    """

    def __init__(self, params: AbcdParams, bathymetry: Bathymetry, alpha: float = 0.0,
                 weight_mode: str = "schedule", fixed_lambda: float | None = None):
        if weight_mode not in ("schedule", "fixed"):
            raise ValueError(f"unknown weight_mode {weight_mode!r}")
        if weight_mode == "fixed" and (fixed_lambda is None or fixed_lambda <= 0.0):
            raise ValueError("fixed weight_mode needs a positive fixed_lambda")
        self.params = params
        self.bathymetry = bathymetry
        self.alpha = alpha
        self.weight_mode = weight_mode
        self.fixed_lambda = fixed_lambda
        self.qc = quadratic_coeffs(params.a, params.c, alpha)
        self.records: list[DiagnosticsRecord] = []
        self._decay = _RunningTrapezoid()
        self._fixed_weights: dict[tuple, WeightSet] = {}  # static window per grid (L, N)

    def _weights(self, grid: Grid, t: float):
        if self.weight_mode == "fixed":
            key = (grid.L, grid.N)
            if key not in self._fixed_weights:
                self._fixed_weights[key] = weight_set(grid, self.fixed_lambda)
            return self._fixed_weights[key]
        if t < T_MIN:
            return None
        return scheduled_weights(grid, t)

    def observe(self, state: State) -> DiagnosticsRecord:
        p = self.params
        bs = self.bathymetry.sample(state.grid, state.t)
        sp = _Snap(state, bs, p)
        rec = DiagnosticsRecord(
            t=state.t,
            h1_norm=state_h1_norm(state),
            hamiltonian=hamiltonian_h(state, bs, p, sp),
            hamiltonian_rate=hamiltonian_rate_rhs(state, bs, p, sp),
            momentum=momentum(state, sp),
        )
        w = self._weights(state.grid, state.t)
        if w is not None:
            alpha = self.alpha
            rec.virial_i = virial_I(state, w, sp)
            rec.virial_j = virial_J(state, w, sp)
            rec.virial_mix = rec.virial_i + alpha * rec.virial_j
            terms_i = virial_rate_I_terms(state, bs, p, w, sp)
            terms_j = virial_rate_J_terms(state, bs, p, w, sp)
            rate_i, rate_j = float(sum(terms_i.values())), float(sum(terms_j.values()))
            rec.moving_i = moving_weight_I(state, w, sp)
            rec.moving_j = moving_weight_J(state, w, sp)
            rec.virial_i_rate = rate_i + rec.moving_i
            rec.virial_j_rate = rate_j + rec.moving_j
            dec = _grouped_virial_rate(p, alpha, w, sp)
            rec.q_part, rec.sq_part = dec["Q"], dec["SQ"]
            rec.nq_part, rec.nh_part = dec["NQ"], dec["NH"]
            grouped = dec["Q"] + dec["SQ"] + dec["NQ"] + dec["NH"]
            direct = rate_i + alpha * rate_j
            term_scale = sum(abs(v) for v in terms_i.values()) + sum(
                abs(alpha * v) for v in terms_j.values()
            )
            rec.decomposition_residual = abs(grouped - direct) / max(term_scale, 1e-30)
            rec.q_canonical = quadratic_form_fg(state, self.qc, w, sp)
            qscale = quadratic_form_scale(state, self.qc, w, sp)
            rec.change_var_residual = abs(dec["Q"] - rec.q_canonical) / max(qscale, 1e-30)
            rec.canon_l2_residual, rec.canon_nonlocal_residual = canonical_identity_residuals(state, w, sp)
            rec.local_energy = local_energy(state, bs, p, w, sp)
            rec.local_energy_rate = local_energy_rate_rhs(state, bs, p, w, sp)
            if math.isfinite(w.lam):
                rec.windowed_h1 = windowed_h1(state, w.lam, sp)
                rec.interval_h1 = interval_h1(state, w.lam, sp)
                rec.running_decay_integral = self._decay.add(state.t, rec.windowed_h1 / w.lam)
        self.records.append(rec)
        return rec

    # observer protocol for solver.run
    __call__ = observe

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    # functionals whose analytic rate is checked against the FD derivative
    _FD_CHECKED = ("hamiltonian", "virial_i", "virial_j", "local_energy")
    RESIDUAL_COLUMNS = tuple(name + "_residual" for name in _FD_CHECKED)

    def table(self) -> tuple:
        """(column names, rows) for the diagnostics CSV.

        Columns are the record fields in declaration order followed by
        the four FD rate residuals (relative to max(1, |rate|); NaN at
        stencil edges or when the cadence does not support FD).
        """
        names = DiagnosticsRecord.field_names() + list(self.RESIDUAL_COLUMNS)
        extra = {k: np.full(len(self.records), np.nan) for k in self.RESIDUAL_COLUMNS}
        try:
            rr = self.rate_residuals()
        except ValueError:
            rr = {}
        for fname, (_, rel) in rr.items():
            # trimmed arrays start at snapshot index 2, keep rows aligned
            col = extra[fname + "_residual"]
            col[2 : 2 + rel.size] = rel
        rows = []
        for i, rec in enumerate(self.records):
            rows.append(rec.row() + [float(extra[k][i]) for k in self.RESIDUAL_COLUMNS])
        return names, rows

    def rate_residuals(self) -> dict:
        """Five-point FD of each tracked functional against its analytic
        rate, as (residual array, relative-to-scale array) pairs.

        Needs a uniform snapshot cadence; the trailing snapshot is
        dropped if it breaks uniformity.
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
            f = self.series(fname)[:n]
            r = self.series(fname + "_rate")[:n]
            if np.isnan(f).any():
                continue
            fd = fd5_derivative(f, dt)[2:-2]
            res = np.abs(fd - r[2:-2])
            rel = res / np.maximum(1.0, np.abs(r[2:-2]))
            out[fname] = (res, rel)
        return out
