"""Reference computations that only the tests use.

Each one is an independent route to a value the library computes, kept
here so a test can compare the two.
"""

import math

import numpy as np

from abcdsim.diagnostics import hamiltonian_rate_terms
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
    uf = g._to_fine(g.hat(u))
    vf = g._to_fine(g.hat(v))
    return g.from_hat(g._from_fine(uf * vf))


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
