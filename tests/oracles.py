"""Reference computations that only the tests use.

Each one is an independent route to a value the library computes, kept
here so a test can compare the two.
"""

import math

import numpy as np

from abcdsim.diagnostics import hamiltonian_rate_terms
from abcdsim.solver import State, _bottom_forcing
from abcdsim.weights import WeightSet


def hamiltonian_rate_rhs_alt(s, bs, p) -> float:
    """Pre-integration-by-parts grouping of the forced energy law.

    Replaces the two middle-line terms by c * int eta (1 - a1 dxx) dt h;
    agrees with hamiltonian_rate_rhs up to the quadrature residue of a
    perfect derivative, which is tiny for localized bottoms.
    """
    t = hamiltonian_rate_terms(s, bs, p)
    line3 = p.c * s.grid.integrate(s.eta * (bs.dt_h - p.a1 * bs.dt_dxx_h))
    return float(
        t["u_qdxh"] + t["u_T_qdxh"] + line3 + t["mix_T_dth"] + t["mix_dth"] + t["u2_dth"]
    )


def mult(g, u, v):
    """Dealiased pointwise product of two fields of the grid g via zero padding.

    Returns the projection of u*v onto the resolved (Nyquist-free) band,
    computed on the 3/2 fine grid so no aliased images fold back.
    """
    uf = to_fine(g, g.hat(u))
    vf = to_fine(g, g.hat(v))
    return g.from_hat(from_fine(g, uf * vf))


# -- the stepper with a fresh array for every intermediate -----------------
# The arithmetic of `solver._Kernel` and `Grid._dealiased_products`, each
# operation in the same order, written as plain expressions: the zero pad
# is an explicit copy, and every product, sum and bottom term is a new
# array.  The library's in-place kernel must match it bit for bit.

def to_fine(g, coeffs):
    """Fine-grid samples of the trig polynomials with the given rfft coeffs
    (stacked along the last axis), zero-padded by copy."""
    fh = np.zeros(coeffs.shape[:-1] + (g.n_fine // 2 + 1,), dtype=complex)
    fh[..., : g.N // 2] = coeffs[..., : g.N // 2]  # Nyquist dropped
    return np.fft.irfft(fh, n=g.n_fine) * (g.n_fine / g.N)


def from_fine(g, fine_values):
    """Coarse rfft coeffs of fine-grid fields (last axis), truncated alias-free."""
    wh = np.fft.rfft(fine_values)[..., : g.N // 2 + 1] * (g.N / g.n_fine)
    wh[..., -1] = 0.0
    return wh


class AllocatingKernel:
    """Tendency and RK4 step of y = (u_hat, eta_hat); the bottom enters as
    (h_hat, force) arrays built anew for each time."""

    def __init__(self, g, p):
        ik_hel = g._ik * g._helm
        self.grid = g
        self.lin = np.stack((ik_hel * (p.c * g.k2 - 1.0), ik_hel * (p.a * g.k2 - 1.0)))
        self.quad = np.stack((-0.5 * ik_hel, -ik_hel))

    def __call__(self, y, h_hat, force):
        fine = to_fine(self.grid, y if h_hat is None else np.stack((y[0], y[1] + h_hat)))
        prods = from_fine(self.grid, fine * fine[0])
        k = self.lin * y[::-1] + self.quad * prods
        if force is not None:
            k += force
        return k

    def step(self, y, t, dt, bottom):
        start, mid, end = bottom(t), bottom(t + 0.5 * dt), bottom(t + dt)
        k1 = self(y, *start)
        k2 = self(y + 0.5 * dt * k1, *mid)
        k3 = self(y + 0.5 * dt * k2, *mid)
        k4 = self(y + dt * k3, *end)
        return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def allocating_bottom_at(b, g, p):
    """t -> (h_hat, force) of a separable bottom, or (None, None) over a flat one."""
    if b.is_flat:
        return lambda t: (None, None)
    h_hat, tf = _bottom_forcing(g, p, b.spectra(g))

    def at(t):
        tv, dtv, d2tv = b.tau(t)
        return tv * h_hat, np.array((p.c1 * d2tv, dtv))[:, None] * tf

    return at


def allocating_rhs(s, bs, p):
    """Tendencies (dt eta, dt u) for one state and one bottom sample."""
    g = s.grid
    bottom = None, None
    if not bs.zero:
        h_hat, tf = _bottom_forcing(g, p, bs.spectra)
        bottom = h_hat, np.array((p.c1, 1.0))[:, None] * tf
    du, deta = g.from_hat(AllocatingKernel(g, p)(s.coeffs, *bottom))
    return deta, du


def allocating_run_coeffs(cfg) -> list:
    """The coefficients of `run`'s snapshots (at `cfg.snapshot_steps()`), without its guards."""
    g, p = cfg.grid, cfg.params
    kernel, bottom = AllocatingKernel(g, p), allocating_bottom_at(cfg.bathymetry, g, p)
    y = State(g, cfg.eta0, cfg.u0, cfg.t_start).coeffs
    steps = cfg.snapshot_steps()
    out = [y]
    for n in range(1, steps[-1] + 1):
        y = kernel.step(y, cfg.t_start + (n - 1) * cfg.dt, cfg.dt, bottom)
        if n in steps:
            out.append(y)
    return out


def uniform_psi_weights(grid) -> WeightSet:
    """The lambda -> infinity limit: psi = 1 and phi = 0, all static.

    The localized energy then degenerates to the global one.
    """
    z = np.zeros(grid.N)
    return WeightSet(
        lam=math.inf, dlam=0.0,
        phi=z, dphi=z, d2phi=z, d3phi=z, dt_phi=z, dt_dphi=z,
        psi=np.ones(grid.N), dpsi=z, d2psi=z, dt_psi=z,
    )
