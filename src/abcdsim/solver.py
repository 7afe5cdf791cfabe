"""Time integration of the normalized system over a variable bottom.

The evolution is the first-order-in-time inverted form

    dt eta = a dx u - (1+a) T dx u - T dx(u (eta + h)) + T (-1 + a1 dxx) dt h
    dt u   = c dx eta - (1+c) T dx eta - (1/2) T dx(u^2) + c1 T dtt dx h

with T = (1 - dxx)^-1.  T regularizes the linear part, so the group
speed is bounded and a classical explicit RK4 step under a mild CFL
condition is stable.  Quadratic products are dealiased by zero padding;
bottom derivatives enter as analytic samples, so no spectral derivative
of h is ever taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bathymetry import Bathymetry, BathymetrySamples
from .grid import Grid
from .params import AbcdParams

__all__ = [
    "State",
    "SimConfig",
    "RunResult",
    "SimulationAbort",
    "CflViolation",
    "BlowUp",
    "NonFinite",
    "rhs",
    "max_group_speed",
    "step_rk4",
    "run",
    "state_h1_norm",
]


class SimulationAbort(RuntimeError):
    """Raised when a run cannot continue; .reason is machine-readable."""

    reason = "abort"


class CflViolation(SimulationAbort):
    reason = "cfl"


class BlowUp(SimulationAbort):
    reason = "blowup"


class NonFinite(SimulationAbort):
    reason = "nonfinite"


@dataclass
class State:
    """Surface displacement eta and velocity u on a grid at time t."""

    grid: Grid
    eta: np.ndarray
    u: np.ndarray
    t: float

    def __post_init__(self):
        self.eta = np.asarray(self.grid.check(self.eta), dtype=float)
        self.u = np.asarray(self.grid.check(self.u), dtype=float)

    def copy(self) -> "State":
        return State(self.grid, self.eta.copy(), self.u.copy(), self.t)


def state_h1_norm(s: State) -> float:
    """H1 x H1 norm of (eta, u), computed spectrally."""
    g = s.grid
    eh = g.hat(s.eta)
    uh = g.hat(s.u)
    w = (1.0 + g.k2) * (np.abs(eh) ** 2 + np.abs(uh) ** 2)
    # rfft half-spectrum Parseval: double the interior modes
    w[1:-1] *= 2.0
    return float(np.sqrt(g.dx / g.N * np.sum(w)))


def rhs(s: State, bs: BathymetrySamples, p: AbcdParams):
    """Tendencies (dt eta, dt u) for one state and one bottom sample."""
    g = s.grid
    if not g.compatible(bs.grid):
        raise ValueError("state and bathymetry samples live on different grids")
    uh = g.hat(s.u)
    eh = g.hat(s.eta)
    ik = g._ik
    hel = g._helm
    k2 = g.k2

    uf = g._to_fine(uh)
    if bs.zero:
        sf = g._to_fine(eh)
    else:
        sf = g._to_fine(g.hat(s.eta + bs.h))
    p_us = g._from_fine(uf * sf)  # dealiased u*(eta+h)
    p_uu = g._from_fine(uf * uf)  # dealiased u^2

    deta_hat = ik * hel * ((p.a * k2 - 1.0) * uh - p_us)
    du_hat = ik * hel * ((p.c * k2 - 1.0) * eh - 0.5 * p_uu)
    if not bs.zero:
        deta_hat += hel * g.hat(p.a1 * bs.dt_dxx_h - bs.dt_h)
        du_hat += p.c1 * hel * g.hat(bs.dtt_dx_h)
    return g.from_hat(deta_hat), g.from_hat(du_hat)


def max_group_speed(p: AbcdParams, g: Grid) -> float:
    """Largest |d omega/d k| over the resolved band.

    omega(k) = k sqrt((1 - a k^2)(1 - c k^2)) / (1 + k^2); for
    a = c = -1 this is exactly k (speed 1), and the large-k slope tends
    to sqrt(a c).  Evaluated by dense numerical differentiation.
    """
    kmax = float(g.k[-1])
    ks = np.linspace(0.0, kmax * 1.05 + 1.0, 4096)
    om = ks * np.sqrt((1.0 - p.a * ks**2) * (1.0 - p.c * ks**2)) / (1.0 + ks**2)
    sp = np.abs(np.gradient(om, ks))
    return float(np.max(sp))


def step_rk4(s: State, dt: float, b: Bathymetry, p: AbcdParams) -> State:
    """One classical Runge-Kutta step of size dt (dt may be negative)."""
    g = s.grid
    t = s.t
    k1e, k1u = rhs(s, b.sample(g, t), p)
    mid = b.sample(g, t + 0.5 * dt)
    s2 = State(g, s.eta + 0.5 * dt * k1e, s.u + 0.5 * dt * k1u, t + 0.5 * dt)
    k2e, k2u = rhs(s2, mid, p)
    s3 = State(g, s.eta + 0.5 * dt * k2e, s.u + 0.5 * dt * k2u, t + 0.5 * dt)
    k3e, k3u = rhs(s3, mid, p)
    end = b.sample(g, t + dt)
    s4 = State(g, s.eta + dt * k3e, s.u + dt * k3u, t + dt)
    k4e, k4u = rhs(s4, end, p)
    eta = s.eta + (dt / 6.0) * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
    u = s.u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    return State(g, eta, u, t + dt)


@dataclass
class SimConfig:
    """Everything one run needs.  Snapshot cadence is in steps."""

    params: AbcdParams
    bathymetry: Bathymetry
    grid: Grid
    eta0: np.ndarray
    u0: np.ndarray
    dt: float
    t_end: float
    t_start: float = 0.0
    snapshot_every: int = 1
    cfl_factor: float = 0.5
    blowup_factor: float = 10.0

    def __post_init__(self):
        if self.dt == 0.0 or not np.isfinite(self.dt):
            raise ValueError(f"dt must be nonzero and finite, got {self.dt}")
        if (self.t_end - self.t_start) * self.dt <= 0.0:
            raise ValueError("sign of dt must match the direction from t_start to t_end")
        if not 0.0 < self.cfl_factor <= 1.0:
            raise ValueError(f"cfl_factor must lie in (0, 1], got {self.cfl_factor}")
        if self.snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {self.snapshot_every}")


@dataclass
class RunResult:
    final_state: State
    snapshots: list = field(default_factory=list)
    n_steps: int = 0


def run(cfg: SimConfig, observer=None) -> RunResult:
    """Integrate from t_start to t_end.

    The observer, if given, is called with every snapshot State (the
    initial state included) and snapshots are not retained; otherwise
    they are collected in the result.  Aborts with CflViolation before
    stepping if dt violates the CFL bound, and with BlowUp/NonFinite at
    snapshot checks during the run.
    """
    g = cfg.grid
    speed = max_group_speed(cfg.params, g)
    dt_limit = cfg.cfl_factor * g.dx / speed
    if abs(cfg.dt) > dt_limit * (1.0 + 1e-12):
        raise CflViolation(
            f"dt={abs(cfg.dt)} exceeds CFL limit {dt_limit} "
            f"(cfl_factor={cfg.cfl_factor}, dx={g.dx}, max group speed={speed})"
        )

    n_total = int(round((cfg.t_end - cfg.t_start) / cfg.dt))
    if n_total < 1:
        raise ValueError("run spans less than one step")

    s = State(g, np.array(cfg.eta0, dtype=float), np.array(cfg.u0, dtype=float), cfg.t_start)
    norm0 = state_h1_norm(s)

    result = RunResult(final_state=s)

    def emit(state):
        if observer is not None:
            observer(state)
        else:
            result.snapshots.append(state.copy())

    emit(s)
    for n in range(1, n_total + 1):
        s = step_rk4(s, cfg.dt, cfg.bathymetry, cfg.params)
        s.t = cfg.t_start + n * cfg.dt  # avoid accumulated roundoff in t
        if n % cfg.snapshot_every == 0 or n == n_total:
            if not (np.all(np.isfinite(s.eta)) and np.all(np.isfinite(s.u))):
                raise NonFinite(f"non-finite field values at t={s.t}")
            if norm0 > 0.0:
                norm = state_h1_norm(s)
                if norm > cfg.blowup_factor * norm0:
                    raise BlowUp(
                        f"H1 norm {norm} exceeded {cfg.blowup_factor} x initial {norm0} at t={s.t}"
                    )
            emit(s)
    result.final_state = s
    result.n_steps = n_total
    return result
