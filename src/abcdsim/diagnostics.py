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
sampled bottom forcing (-1 + a1 dxx) dt h = a1 * dt_dxx_h - dt_h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from functools import cached_property

import numpy as np

from .bathymetry import Bathymetry, BathymetrySamples, flat_bottom
from .classifier import QuadCoeffs, quadratic_coeffs
from .grid import Grid
from .params import AbcdParams
from .solver import State, state_h1_norm
from .weights import T_MIN, WeightSet, scheduled_weights, weight_set

__all__ = [
    "hamiltonian_h",
    "hamiltonian_rate_terms",
    "hamiltonian_rate_rhs",
    "hamiltonian_rate_rhs_alt",
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
    """Spectral scratch shared by every functional at one snapshot.

    Fields are computed on first use and cached.  Over a flat bottom the
    fields built from h are preset to zeros, which spares their transforms.
    """

    def __init__(self, state: State, bs: BathymetrySamples, p: AbcdParams):
        self.bs = bs
        self.p = p
        self.g = state.grid
        self.u = state.u
        self.eta = state.eta
        if bs.zero:
            bottom = ("p_uh", "T_uh", "Tdx_uh", "w1", "T_w1", "Tdx_w1", "T_dth", "T_q", "T_q2")
            self.__dict__.update(dict.fromkeys(bottom, np.zeros(self.g.N)))

    # physical derivatives -------------------------------------------------
    @cached_property
    def du(self):
        return self.g.deriv(self.u)

    @cached_property
    def deta(self):
        return self.g.deriv(self.eta)

    @cached_property
    def d2u(self):
        return self.g.deriv(self.u, 2)

    @cached_property
    def d2eta(self):
        return self.g.deriv(self.eta, 2)

    # densities shared by several functionals ------------------------------
    @cached_property
    def energy_density(self):
        p = self.p
        return (-p.a * self.du**2 - p.c * self.deta**2 + self.u**2 + self.eta**2
                + self.u**2 * (self.eta + self.bs.h))

    @cached_property
    def momentum_density(self):
        return self.u * self.eta + self.du * self.deta

    @cached_property
    def h1_density(self):
        return self.u**2 + self.eta**2 + self.du**2 + self.deta**2

    # canonical variables --------------------------------------------------
    @cached_property
    def cf(self):
        return self.g.helmholtz_inverse(self.u)

    @cached_property
    def cg(self):
        return self.g.helmholtz_inverse(self.eta)

    @cached_property
    def cf1(self):
        return self.g.deriv(self.cf)

    @cached_property
    def cf2(self):
        return self.g.deriv(self.cf, 2)

    @cached_property
    def cf3(self):
        return self.g.deriv(self.cf, 3)

    @cached_property
    def cg1(self):
        return self.g.deriv(self.cg)

    @cached_property
    def cg2(self):
        return self.g.deriv(self.cg, 2)

    @cached_property
    def cg3(self):
        return self.g.deriv(self.cg, 3)

    # dealiased products and their nonlocal images -------------------------
    @cached_property
    def p_uu(self):
        return self.g.mult(self.u, self.u)

    @cached_property
    def p_ue(self):
        return self.g.mult(self.u, self.eta)

    @cached_property
    def p_uh(self):
        return self.g.mult(self.u, self.bs.h)

    @cached_property
    def T_uu(self):
        return self.g.helmholtz_inverse(self.p_uu)

    @cached_property
    def T_ue(self):
        return self.g.helmholtz_inverse(self.p_ue)

    @cached_property
    def T_uh(self):
        return self.g.helmholtz_inverse(self.p_uh)

    @cached_property
    def Tdx_uu(self):
        return self.g.deriv(self.T_uu)

    @cached_property
    def Tdx_ue(self):
        return self.g.deriv(self.T_ue)

    @cached_property
    def Tdx_uh(self):
        return self.g.deriv(self.T_uh)

    # bottom forcing combinations ------------------------------------------
    @cached_property
    def w1(self):
        return self.p.a1 * self.bs.dt_dxx_h - self.bs.dt_h

    @cached_property
    def T_w1(self):
        return self.g.helmholtz_inverse(self.w1)

    @cached_property
    def Tdx_w1(self):
        return self.g.deriv(self.T_w1)

    @cached_property
    def T_dth(self):
        return self.g.helmholtz_inverse(self.bs.dt_h)

    @cached_property
    def T_q(self):
        """T applied to dtt dx h."""
        return self.g.helmholtz_inverse(self.bs.dtt_dx_h)

    @cached_property
    def T_q2(self):
        """T applied to dtt dxx h."""
        return self.g.helmholtz_inverse(self.bs.dtt_dxx_h)

    # grouped fluxes for the localized energy ------------------------------
    @cached_property
    def big_f(self):
        """F = T(a dxx u + u + u(eta+h))."""
        return self.g.helmholtz_inverse(self.p.a * self.d2u + self.u + self.p_ue + self.p_uh)

    @cached_property
    def big_g(self):
        """G = T(c dxx eta + eta + u^2/2)."""
        return self.g.helmholtz_inverse(self.p.c * self.d2eta + self.eta + 0.5 * self.p_uu)


def _zero_samples(g: Grid) -> BathymetrySamples:
    return flat_bottom().sample(g, 0.0)


def _snapof(s: State, snap: _Snap | None, bs=None, p=None) -> _Snap:
    """The caller's scratch, or a fresh one (over a flat bottom if bs is not given)."""
    if snap is not None:
        return snap
    return _Snap(s, _zero_samples(s.grid) if bs is None else bs, p)


# -- global functionals --------------------------------------------------

def hamiltonian_h(s: State, bs: BathymetrySamples, p: AbcdParams, snap: _Snap | None = None) -> float:
    """H_h = 1/2 int(-a (dx u)^2 - c (dx eta)^2 + u^2 + eta^2 + u^2 (eta + h))."""
    return 0.5 * s.grid.integrate(_snapof(s, snap, bs, p).energy_density)


def hamiltonian_rate_terms(s: State, bs: BathymetrySamples, p: AbcdParams,
                           snap: _Snap | None = None) -> dict:
    """The six displayed lines of the forced energy law, term by term."""
    sp = _snapof(s, snap, bs, p)
    gi = s.grid.integrate
    mix = (1.0 + p.c) * sp.eta + 0.5 * sp.u**2
    return {
        "u_qdxh": -p.a * p.c1 * gi(sp.u * bs.dtt_dx_h),
        "u_T_qdxh": p.c1 * gi((1.0 + p.a + sp.eta + bs.h) * sp.u * sp.T_q),
        "eta_dth": p.c * gi(sp.eta * bs.dt_h),
        "deta_dtdxh": p.c * p.a1 * gi(sp.deta * bs.dt_dx_h),
        "mix_T_dth": (p.a1 - 1.0) * gi(mix * sp.T_dth),
        "mix_dth": -p.a1 * gi(mix * bs.dt_h),
        "u2_dth": 0.5 * gi(sp.u**2 * bs.dt_h),
    }


def hamiltonian_rate_rhs(s, bs, p, snap=None) -> float:
    return float(sum(hamiltonian_rate_terms(s, bs, p, snap).values()))


def hamiltonian_rate_rhs_alt(s: State, bs: BathymetrySamples, p: AbcdParams,
                             snap: _Snap | None = None) -> float:
    """Pre-integration-by-parts grouping of the same law (cross-check).

    Replaces the two middle-line terms by c * int eta (1 - a1 dxx) dt h;
    agrees with hamiltonian_rate_rhs up to the quadrature residue of a
    perfect derivative, which is tiny for localized bottoms.
    """
    sp = _snapof(s, snap, bs, p)
    t = hamiltonian_rate_terms(s, bs, p, sp)
    line3 = p.c * s.grid.integrate(sp.eta * (bs.dt_h - p.a1 * bs.dt_dxx_h))
    return float(
        t["u_qdxh"] + t["u_T_qdxh"] + line3 + t["mix_T_dth"] + t["mix_dth"] + t["u2_dth"]
    )


def momentum(s: State, snap: _Snap | None = None) -> float:
    """P = int(u eta + dx u dx eta), conserved over a flat bottom."""
    return s.grid.integrate(_snapof(s, snap).momentum_density)


# -- virial functionals --------------------------------------------------

def virial_I(s: State, w: WeightSet, snap: _Snap | None = None) -> float:
    """I = int phi (u eta + dx u dx eta)."""
    return s.grid.integrate(w.phi * _snapof(s, snap).momentum_density)


def virial_J(s: State, w: WeightSet, snap: _Snap | None = None) -> float:
    """J = int phi' eta dx u."""
    sp = _snapof(s, snap)
    return s.grid.integrate(w.dphi * sp.eta * sp.du)


def moving_weight_I(s: State, w: WeightSet, snap: _Snap | None = None) -> float:
    """Correction from the moving window: int (dt phi)(u eta + dx u dx eta)."""
    if w.dlam == 0.0:
        return 0.0
    return s.grid.integrate(w.dt_phi * _snapof(s, snap).momentum_density)


def moving_weight_J(s: State, w: WeightSet, snap: _Snap | None = None) -> float:
    """Correction from the moving window: int (dt phi') eta dx u."""
    if w.dlam == 0.0:
        return 0.0
    sp = _snapof(s, snap)
    return s.grid.integrate(w.dt_dphi * sp.eta * sp.du)


def virial_rate_I_terms(s: State, bs: BathymetrySamples, p: AbcdParams, w: WeightSet,
                        snap: _Snap | None = None) -> dict:
    """All integral groups of the I rate law (static-weight part)."""
    sp = _snapof(s, snap, bs, p)
    gi = s.grid.integrate
    return {
        "du_sq": -0.5 * p.a * gi(w.dphi * sp.du**2),
        "deta_sq": -0.5 * p.c * gi(w.dphi * sp.deta**2),
        "u_sq": -(p.a + 0.5) * gi(w.dphi * sp.u**2),
        "eta_sq": -(p.c + 0.5) * gi(w.dphi * sp.eta**2),
        "u_Tu": (1.0 + p.a) * gi(w.dphi * sp.u * sp.cf),
        "eta_Teta": (1.0 + p.c) * gi(w.dphi * sp.eta * sp.cg),
        "u2_eta": -0.5 * gi(w.dphi * sp.u**2 * sp.eta),
        "u_Tue": gi(w.dphi * sp.u * sp.T_ue),
        "eta_Tuu": 0.5 * gi(w.dphi * sp.eta * sp.T_uu),
        "h_flux": -0.5 * gi((w.dphi * bs.h + w.phi * bs.dx_h) * sp.u**2),
        "u_Tuh": gi(w.dphi * sp.u * sp.T_uh),
        "eta_Tq2": -p.c1 * gi(w.dphi * sp.eta * sp.T_q2),
        "u_Tdxw1": -gi(w.dphi * sp.u * sp.Tdx_w1),
        "eta_q": p.c1 * gi(w.phi * sp.eta * bs.dtt_dx_h),
        "u_w1": gi(w.phi * sp.u * sp.w1),
    }


def virial_rate_I_rhs(s, bs, p, w, snap=None) -> float:
    return float(sum(virial_rate_I_terms(s, bs, p, w, snap).values()))


def virial_rate_J_terms(s: State, bs: BathymetrySamples, p: AbcdParams, w: WeightSet,
                        snap: _Snap | None = None) -> dict:
    """All integral groups of the J rate law (static-weight part)."""
    sp = _snapof(s, snap, bs, p)
    gi = s.grid.integrate
    return {
        "eta_sq": (1.0 + p.c) * gi(w.dphi * sp.eta**2),
        "deta_sq": -p.c * gi(w.dphi * sp.deta**2),
        "u_sq": -(1.0 + p.a) * gi(w.dphi * sp.u**2),
        "du_sq": p.a * gi(w.dphi * sp.du**2),
        "eta_Teta": -(1.0 + p.c) * gi(w.dphi * sp.eta * sp.cg),
        "u_Tu": (1.0 + p.a) * gi(w.dphi * sp.u * sp.cf),
        "u_Tdxu": (1.0 + p.a) * gi(w.d2phi * sp.u * sp.cf1),
        "eta_sq_w3": 0.5 * p.c * gi(w.d3phi * sp.eta**2),
        "u2_eta": -0.5 * gi(w.dphi * sp.u**2 * sp.eta),
        "eta_Tuu": -0.5 * gi(w.dphi * sp.eta * sp.T_uu),
        "u_Tue": gi(w.dphi * sp.u * sp.T_ue),
        "u_Tdxue": gi(w.d2phi * sp.u * sp.Tdx_ue),
        "u2_h": -gi(w.dphi * sp.u**2 * bs.h),
        "u_Tuh": gi(w.dphi * sp.u * sp.T_uh),
        "u_Tdxuh": gi(w.d2phi * sp.u * sp.Tdx_uh),
        "du_Tw1": gi(w.dphi * sp.du * sp.T_w1),
        "eta_Tq2": p.c1 * gi(w.dphi * sp.eta * sp.T_q2),
    }


def virial_rate_J_rhs(s, bs, p, w, snap=None) -> float:
    return float(sum(virial_rate_J_terms(s, bs, p, w, snap).values()))


# -- decomposition of the mixed virial rate ------------------------------

def _grouped_virial_rate(s, bs, p, alpha, w, sp: _Snap) -> dict:
    """Q, SQ, NQ and NH of virial_rate_decomposition, without the moving-window parts."""
    gi = s.grid.integrate
    a, c = p.a, p.c

    q = (
        ((1.0 + c) * (alpha - 1.0) + 0.5) * gi(w.dphi * sp.eta**2)
        - c * (alpha + 0.5) * gi(w.dphi * sp.deta**2)
        + ((1.0 + a) * (-alpha - 1.0) + 0.5) * gi(w.dphi * sp.u**2)
        + a * (alpha - 0.5) * gi(w.dphi * sp.du**2)
        + (1.0 + c) * (1.0 - alpha) * gi(w.dphi * sp.eta * sp.cg)
        + (1.0 + a) * (1.0 + alpha) * gi(w.dphi * sp.u * sp.cf)
    )
    sq = alpha * (1.0 + a) * gi(w.d2phi * sp.u * sp.cf1) + 0.5 * alpha * c * gi(w.d3phi * sp.eta**2)
    nq = (
        -0.5 * (alpha + 1.0) * gi(w.dphi * sp.u**2 * sp.eta)
        + 0.5 * (1.0 - alpha) * gi(w.dphi * sp.eta * sp.T_uu)
        + (alpha + 1.0) * gi(w.dphi * sp.u * sp.T_ue)
        + alpha * gi(w.d2phi * sp.u * sp.Tdx_ue)
    )
    nh = (
        -0.5 * gi((w.dphi * bs.h + w.phi * bs.dx_h) * sp.u**2)
        + (1.0 + alpha) * gi(w.dphi * sp.u * sp.T_uh)
        - alpha * gi(w.dphi * sp.u**2 * bs.h)
        + alpha * gi(w.d2phi * sp.u * sp.Tdx_uh)
        + (alpha - 1.0) * p.c1 * gi(w.dphi * sp.eta * sp.T_q2)
        - gi(w.dphi * sp.u * sp.Tdx_w1)
        + alpha * gi(w.dphi * sp.du * sp.T_w1)
        + p.c1 * gi(w.phi * sp.eta * bs.dtt_dx_h)
        + gi(w.phi * sp.u * sp.w1)
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
        **_grouped_virial_rate(s, bs, p, alpha, w, sp),
        "movingI": moving_weight_I(s, w, sp),
        "movingJ": alpha * moving_weight_J(s, w, sp),
    }


def quadratic_form_fg(s: State, qc: QuadCoeffs, w: WeightSet,
                      snap: _Snap | None = None) -> float:
    """The leading quadratic part rewritten in canonical variables."""
    sp = _snapof(s, snap)
    gi = s.grid.integrate
    main = gi(
        w.dphi
        * (
            qc.A1 * sp.cf**2 + qc.A2 * sp.cf1**2 + qc.A3 * sp.cf2**2 + qc.A4 * sp.cf3**2
            + qc.B1 * sp.cg**2 + qc.B2 * sp.cg1**2 + qc.B3 * sp.cg2**2 + qc.B4 * sp.cg3**2
        )
    )
    corr = gi(w.d3phi * (qc.D11 * sp.cf**2 + qc.D12 * sp.cf1**2 + qc.D21 * sp.cg**2 + qc.D22 * sp.cg1**2))
    return float(main + corr)


def quadratic_form_scale(s: State, qc: QuadCoeffs, w: WeightSet,
                         snap: _Snap | None = None) -> float:
    """Sum of absolute contributions, a robust relative-error scale."""
    sp = _snapof(s, snap)
    gi = s.grid.integrate
    pieces = [
        abs(qc.A1) * gi(w.dphi * sp.cf**2), abs(qc.A2) * gi(w.dphi * sp.cf1**2),
        abs(qc.A3) * gi(w.dphi * sp.cf2**2), abs(qc.A4) * gi(w.dphi * sp.cf3**2),
        abs(qc.B1) * gi(w.dphi * sp.cg**2), abs(qc.B2) * gi(w.dphi * sp.cg1**2),
        abs(qc.B3) * gi(w.dphi * sp.cg2**2), abs(qc.B4) * gi(w.dphi * sp.cg3**2),
        abs(qc.D11) * gi(np.abs(w.d3phi) * sp.cf**2), abs(qc.D12) * gi(np.abs(w.d3phi) * sp.cf1**2),
        abs(qc.D21) * gi(np.abs(w.d3phi) * sp.cg**2), abs(qc.D22) * gi(np.abs(w.d3phi) * sp.cg1**2),
    ]
    return float(sum(abs(x) for x in pieces))


def canonical_identity_residuals(s: State, w: WeightSet, snap: _Snap | None = None) -> tuple:
    """Relative residuals of the two weighted change-of-variable identities.

    First: int phi' u^2 = int phi' (f^2 + 2 f'^2 + f''^2) - int phi''' f^2.
    Second: int phi' u T u = int phi' (f^2 + f'^2) - 1/2 int phi''' f^2.
    """
    sp = _snapof(s, snap)
    gi = s.grid.integrate
    lhs1 = gi(w.dphi * sp.u**2)
    rhs1 = gi(w.dphi * (sp.cf**2 + 2.0 * sp.cf1**2 + sp.cf2**2)) - gi(w.d3phi * sp.cf**2)
    scale1 = max(1.0, abs(lhs1))
    lhs2 = gi(w.dphi * sp.u * sp.cf)
    rhs2 = gi(w.dphi * (sp.cf**2 + sp.cf1**2)) - 0.5 * gi(w.d3phi * sp.cf**2)
    scale2 = max(1.0, abs(lhs2))
    return abs(lhs1 - rhs1) / scale1, abs(lhs2 - rhs2) / scale2


def nh_bound_parts(s: State, bs: BathymetrySamples, w: WeightSet, t: float,
                   delta: float = 0.1, snap: _Snap | None = None) -> tuple:
    """Pieces of the computable NH upper bound.

    Returns (quad_delta, u2_weight, h_units):
        quad_delta = 4 delta int phi'(u^2 + (dx u)^2 + eta^2 + (dx eta)^2)
        u2_weight  = int phi' u^2            (multiplies C * eps)
        h_units    = the bottom-norm and t^{-3/2} unit terms (multiply C)
    so that bound(C, eps) = quad_delta + C * (eps * u2_weight + h_units).
    """
    sp = _snapof(s, snap, bs)
    g = s.grid
    gi = g.integrate
    x0 = gi(w.dphi * sp.u**2)
    quad = 4.0 * delta * (
        x0 + gi(w.dphi * sp.du**2) + gi(w.dphi * sp.eta**2) + gi(w.dphi * sp.deta**2)
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
    return 0.5 * s.grid.integrate(w.psi * _snapof(s, snap, bs, p).energy_density)


def local_energy_rate_terms(s: State, bs: BathymetrySamples, p: AbcdParams, w: WeightSet,
                            snap: _Snap | None = None) -> dict:
    """Rate of the localized energy: main line, moving-window part SNL0,
    commutator part SNL1, bottom part SNLh."""
    sp = _snapof(s, snap, bs, p)
    gi = s.grid.integrate
    a, c = p.a, p.c

    main = (
        gi(w.dpsi * sp.cf * sp.cg)
        - (1.0 + 2.0 * (a + c)) * gi(w.dpsi * sp.cf1 * sp.cg1)
        + 3.0 * a * c * gi(w.dpsi * sp.cf2 * sp.cg2)
        + a * c * gi(w.dpsi * sp.cf3 * sp.cg3)
    )

    snl0 = 0.0 if w.dlam == 0.0 else 0.5 * gi(w.dt_psi * sp.energy_density)

    T_ueh = sp.T_ue + sp.T_uh
    Tdx_ueh = sp.Tdx_ue + sp.Tdx_uh
    dps_du = w.d2psi * sp.du + w.dpsi * sp.d2u      # dx(psi' dx u)
    dps_deta = w.d2psi * sp.deta + w.dpsi * sp.d2eta  # dx(psi' dx eta)
    snl1 = (
        a * (c - 1.0) * gi(w.d2psi * sp.cf2 * sp.cg1)
        + c * (a - 1.0) * gi(w.d2psi * sp.cf1 * sp.cg2)
        - a * gi(w.d2psi * sp.cf1 * sp.cg)
        - c * gi(w.d2psi * sp.cf * sp.cg1)
        + a * gi(w.d2psi * sp.cf2 * sp.cg1)
        + c * gi(w.d2psi * sp.cf1 * sp.cg2)
        + 0.5 * a * gi(w.dpsi * sp.cf2 * sp.T_uu)
        + 0.5 * gi(w.dpsi * sp.cf * sp.T_uu)
        + c * gi(w.dpsi * sp.cg2 * T_ueh)
        + gi(w.dpsi * sp.cg * T_ueh)
        + 0.5 * gi(w.dpsi * T_ueh * sp.T_uu)
        - 0.5 * a * gi(w.dpsi * sp.cf3 * sp.Tdx_uu)
        - 0.5 * gi(w.dpsi * sp.cf1 * sp.Tdx_uu)
        - c * gi(w.dpsi * sp.cg3 * Tdx_ueh)
        - gi(w.dpsi * sp.cg1 * Tdx_ueh)
        - 0.5 * gi(w.dpsi * Tdx_ueh * sp.Tdx_uu)
        + 0.5 * a * gi(dps_du * sp.T_uu)
        + c * gi(dps_deta * T_ueh)
    )
    snl1 += a * p.c1 * gi(w.dpsi * sp.du * sp.T_q) + c * gi(w.dpsi * sp.deta * sp.T_w1)

    # F and G cost four transforms and meet only bottom factors here, so
    # over a flat bottom SNLh is 0 without them
    if bs.zero:
        snlh = 0.0
    else:
        snlh = (
            0.5 * gi(w.psi * sp.u**2 * bs.dt_h)
            + p.c1 * gi(w.psi * sp.big_f * bs.dtt_dx_h)
            + gi(w.psi * sp.big_g * sp.w1)
            - p.c1 * gi(w.d2psi * sp.big_f * sp.T_q)
            - 2.0 * p.c1 * gi(w.dpsi * sp.big_f * sp.T_q2)
            - gi(w.d2psi * sp.big_g * sp.T_w1)
            - 2.0 * gi(w.dpsi * sp.big_g * sp.Tdx_w1)
        )
    return {"main": float(main), "snl0": float(snl0), "snl1": float(snl1), "snlh": float(snlh)}


def local_energy_rate_rhs(s, bs, p, w, snap=None) -> float:
    return float(sum(local_energy_rate_terms(s, bs, p, w, snap).values()))


# -- decay metrics -------------------------------------------------------

def windowed_h1(s: State, lam: float, snap: _Snap | None = None) -> float:
    """int sech^2(x/lam) (u^2 + eta^2 + (dx u)^2 + (dx eta)^2)."""
    sech2 = 1.0 / np.cosh(s.grid.x / lam) ** 2
    return s.grid.integrate(sech2 * _snapof(s, snap).h1_density)


def interval_h1(s: State, lam: float, snap: _Snap | None = None) -> float:
    """Same local H1 density integrated over the plain interval |x| <= lam."""
    mask = (np.abs(s.grid.x) <= lam).astype(float)
    return s.grid.integrate(mask * _snapof(s, snap).h1_density)


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
        sp = _snapof(st, None)
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
            dec = _grouped_virial_rate(state, bs, p, alpha, w, sp)
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
