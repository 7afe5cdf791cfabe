"""Localized weight functions and the slowly growing window scale.

The virial functionals use phi = tanh(x/lambda) and its derivatives, the
localized energy uses psi = sech^4(x/lambda).  All derivatives are closed
forms (never spectral differences of samples): tanh is not box-periodic
and differentiating its samples would ring, while the analytic values
keep every weighted identity exact up to the sech^2(L/lambda) boundary
mismatch, which the callers keep below 1e-10 by taking L/lambda >= 10.

The window scale schedule is

    lambda(t) = t / (log t * (log log t)^2),   t >= T_MIN = 11,

which grows sublinearly so that dispersed waves leave the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid

__all__ = [
    "T_MIN",
    "WeightSet",
    "window_scale",
    "window_scale_rate",
    "weight_set",
    "scheduled_weights",
]

T_MIN = 11.0


def window_scale(t: float) -> float:
    """lambda(t) = t / (log t * (log log t)^2) for t >= T_MIN."""
    if t < T_MIN:
        raise ValueError(f"window scale is defined for t >= {T_MIN}, got {t}")
    lt = math.log(t)
    llt = math.log(lt)
    return t / (lt * llt * llt)


def window_scale_rate(t: float) -> float:
    """Closed-form lambda'(t).

    lambda'(t) = (1/(log t (log log t)^2)) * (1 - 1/log t - 2/(log t log log t)).
    Negative just above T_MIN (the window first shrinks a little), positive
    from about t = 19 on.
    """
    if t < T_MIN:
        raise ValueError(f"window scale is defined for t >= {T_MIN}, got {t}")
    lt = math.log(t)
    llt = math.log(lt)
    return (1.0 / (lt * llt * llt)) * (1.0 - 1.0 / lt - 2.0 / (lt * llt))


@dataclass(frozen=True)
class WeightSet:
    """phi/psi weight samples on a grid at a fixed window scale.

    dt_* fields are time derivatives through the moving scale; they are
    zero when the set was built with dlam = 0 (static weight).
    """

    lam: float
    dlam: float
    phi: np.ndarray
    dphi: np.ndarray
    d2phi: np.ndarray
    d3phi: np.ndarray
    dt_phi: np.ndarray
    dt_dphi: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    d2psi: np.ndarray
    dt_psi: np.ndarray


def weight_set(grid: Grid, lam: float, dlam: float = 0.0) -> WeightSet:
    """Evaluate all weight fields at window scale lam (closed forms)."""
    if lam <= 0.0:
        raise ValueError(f"window scale must be positive, got {lam}")
    y = grid.x / lam
    th = np.tanh(y)
    s2 = 1.0 / np.cosh(y) ** 2
    s4 = s2 * s2

    phi = th
    dphi = s2 / lam
    d2phi = -2.0 * s2 * th / lam**2
    d3phi = -2.0 * s2 * (s2 - 2.0 * th * th) / lam**3
    # d/dt tanh(x/lambda) = -(lambda'/lambda) y sech^2 y, and its x-derivative
    dt_phi = -(dlam / lam) * y * s2
    dt_dphi = -(dlam / lam**2) * (1.0 - 2.0 * y * th) * s2

    psi = s4
    dpsi = -4.0 * s4 * th / lam
    d2psi = -4.0 * s4 * (s2 - 4.0 * th * th) / lam**2
    dt_psi = (4.0 * dlam / lam) * y * th * s4

    return WeightSet(
        lam=lam, dlam=dlam,
        phi=phi, dphi=dphi, d2phi=d2phi, d3phi=d3phi,
        dt_phi=dt_phi, dt_dphi=dt_dphi,
        psi=psi, dpsi=dpsi, d2psi=d2psi, dt_psi=dt_psi,
    )


def scheduled_weights(grid: Grid, t: float) -> WeightSet:
    """WeightSet at the scheduled window scale lambda(t), moving."""
    return weight_set(grid, window_scale(t), window_scale_rate(t))

