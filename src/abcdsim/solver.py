"""Time integration of the normalized system over a variable bottom.

The evolution is the first-order-in-time inverted form

    dt eta = a dx u - (1+a) T dx u - T dx(u (eta + h)) + T (-1 + a1 dxx) dt h
    dt u   = c dx eta - (1+c) T dx eta - (1/2) T dx(u^2) + c1 T dtt dx h

with T = (1 - dxx)^-1.  T regularizes the linear part, so the group
speed is bounded and a classical explicit RK4 step under a mild CFL
condition is stable.  Quadratic products are dealiased by zero padding;
bottom derivatives enter as analytic samples, so no spectral derivative
of h is ever taken.

`run` carries the rfft coefficients of (u, eta) from step to step and
builds a physical State only at snapshots; that State carries the
coefficients too, so an observer needs no forward transform of u or
eta.  `rhs` and `step_rk4` are physical-space adapters over the same
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    """Surface displacement eta and velocity u on a grid at time t.

    eta and u are read-only copies, and rebinding either drops the
    cached coefficients, so `coeffs` always describes the fields.
    """

    grid: Grid
    eta: np.ndarray
    u: np.ndarray
    t: float

    def __setattr__(self, name, value):
        if name in ("eta", "u"):
            value = np.array(self.grid.check(value), dtype=float)
            value.flags.writeable = False
            self.__dict__.pop("coeffs", None)
        super().__setattr__(name, value)

    @cached_property
    def coeffs(self) -> np.ndarray:
        """Stacked rfft coefficients (u_hat, eta_hat), read-only.

        A State built by `run` carries them; a hand-built one computes
        them with one stacked transform on first use.
        """
        y = np.fft.rfft(np.stack((self.u, self.eta)))
        y.flags.writeable = False
        return y

    def copy(self) -> "State":
        return _carrying(State(self.grid, self.eta, self.u, self.t), self.coeffs)


def _carrying(s: State, y) -> State:
    """s with its stacked coefficients y frozen in place of the first-use transform."""
    y.flags.writeable = False
    s.__dict__["coeffs"] = y
    return s


def _h1_norm(g: Grid, y):
    """H1 x H1 norm of the fields whose rfft coefficients are the rows of y;
    of a (2, B, N/2 + 1) block, one norm per snapshot."""
    w = (1.0 + g.k2) * np.sum(np.abs(y) ** 2, axis=0)
    # rfft half-spectrum Parseval: double the interior modes
    w[..., 1:-1] *= 2.0
    return np.sqrt(g.dx / g.N * np.sum(w, axis=-1))


def state_h1_norm(s: State) -> float:
    """H1 x H1 norm of (eta, u), computed spectrally."""
    return float(_h1_norm(s.grid, s.coeffs))


def _state(g: Grid, y, t: float) -> State:
    """Physical state at time t carrying the stacked coefficients (u_hat, eta_hat)."""
    u, eta = g.from_hat(y)
    return _carrying(State(g, eta, u, t), y)


def _bottom_forcing(g: Grid, p: AbcdParams, spectra):
    """h_hat and the stacked bottom forcing ((T q)^, (T w1)^) of a bottom
    whose rfft rows (h, dt h, dt dxx h, dtt dx h, ...) are `spectra`, with
    q = dtt dx h and w1 = (-1 + a1 dxx) dt h."""
    h_hat, dt_h, dt_dxx_h, dtt_dx_h = spectra[:4]
    return h_hat, g._helm * np.stack((dtt_dx_h, p.a1 * dt_dxx_h - dt_h))


def _bottom_at(b: Bathymetry, g: Grid, p: AbcdParams):
    """t -> (h_hat, force) of a separable bottom, or (None, None) over a flat one.

    The forcing is built from the bottom's cached spectra at unit tau;
    each stage scales it by tau, tau' and tau''.
    """
    if b.is_flat:
        return lambda t: (None, None)
    h_hat, tf = _bottom_forcing(g, p, b.spectra(g))

    def at(t):
        tv, dtv, d2tv = b.tau(t)
        return tv * h_hat, np.array((p.c1 * d2tv, dtv))[:, None] * tf

    return at


class _Kernel:
    """Tendency and RK4 step of the stacked coefficients y = (u_hat, eta_hat).

    A tendency costs one stacked inverse transform of (u_hat, eta_hat +
    h_hat) to the fine grid and one stacked forward transform of
    (u^2, u (eta + h)) back, so an RK4 step costs 8 transforms.
    """

    def __init__(self, g: Grid, p: AbcdParams):
        ik_hel = g._ik * g._helm
        self.grid = g
        self.lin = np.stack((ik_hel * (p.c * g.k2 - 1.0), ik_hel * (p.a * g.k2 - 1.0)))
        self.quad = np.stack((-0.5 * ik_hel, -ik_hel))

    def __call__(self, y, h_hat, force):
        prods = self.grid._dealiased_products(y if h_hat is None else np.stack((y[0], y[1] + h_hat)))
        k = self.lin * y[::-1] + self.quad * prods
        if force is not None:
            k += force
        return k

    def step(self, y, t: float, dt: float, bottom):
        """One classical Runge-Kutta step from time t (dt may be negative)."""
        start, mid, end = bottom(t), bottom(t + 0.5 * dt), bottom(t + dt)
        k1 = self(y, *start)
        k2 = self(y + 0.5 * dt * k1, *mid)
        k3 = self(y + 0.5 * dt * k2, *mid)
        k4 = self(y + dt * k3, *end)
        return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rhs(s: State, bs: BathymetrySamples, p: AbcdParams):
    """Tendencies (dt eta, dt u) for one state and one bottom sample."""
    g = s.grid
    if not g.compatible(bs.grid):
        raise ValueError("state and bathymetry samples live on different grids")
    bottom = None, None
    if not bs.zero:
        h_hat, tf = _bottom_forcing(g, p, bs.spectra)
        bottom = h_hat, np.array((p.c1, 1.0))[:, None] * tf
    du, deta = g.from_hat(_Kernel(g, p)(s.coeffs, *bottom))
    return deta, du


def max_group_speed(p: AbcdParams, g: Grid) -> float:
    """Largest |d omega/d k| over the resolved band.

    omega(k) = k sqrt((1 - a k^2)(1 - c k^2)) / (1 + k^2); for
    a = c = -1 this is exactly k (speed 1), and the large-k slope tends
    to sqrt(a c).  Evaluated by dense numerical differentiation.
    """
    kmax = float(g.k[-1])
    ks = np.linspace(0.0, kmax * 1.05 + 1.0, 4096)
    with np.errstate(invalid="ignore"):  # NaN where omega(k) is not real, which `run` refuses
        om = ks * np.sqrt((1.0 - p.a * ks**2) * (1.0 - p.c * ks**2)) / (1.0 + ks**2)
    sp = np.abs(np.gradient(om, ks))
    return float(np.max(sp))


def step_rk4(s: State, dt: float, b: Bathymetry, p: AbcdParams) -> State:
    """One classical Runge-Kutta step of size dt (dt may be negative)."""
    g = s.grid
    y = _Kernel(g, p).step(s.coeffs, s.t, dt, _bottom_at(b, g, p))
    return _state(g, y, s.t + dt)


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
        for key in ("t_start", "t_end"):
            if not np.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if (self.t_end - self.t_start) * self.dt <= 0.0:
            raise ValueError("sign of dt must match the direction from t_start to t_end")
        steps = (self.t_end - self.t_start) / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(
                f"t_end - t_start = {self.t_end - self.t_start} is not a whole number "
                f"of steps of dt={self.dt}"
            )
        if not 0.0 < self.cfl_factor <= 1.0:
            raise ValueError(f"cfl_factor must lie in (0, 1], got {self.cfl_factor}")
        if self.snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {self.snapshot_every}")
        if not 0.0 < self.blowup_factor < np.inf:  # nan or inf would turn the guard off
            raise ValueError(f"blowup_factor must be positive and finite, got {self.blowup_factor}")

    def snapshot_steps(self) -> list:
        """The step indices of `run`'s snapshots: every snapshot_every-th step from 0, and the last."""
        n_total = int(round((self.t_end - self.t_start) / self.dt))
        return [*range(0, n_total, self.snapshot_every), n_total]


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
    if not np.isfinite(dt_limit):  # a NaN limit would let every dt pass
        raise CflViolation(
            f"no finite CFL limit (max group speed={speed}): omega(k) is not real on the "
            f"resolved band for a={cfg.params.a}, c={cfg.params.c}"
        )
    if abs(cfg.dt) > dt_limit * (1.0 + 1e-12):
        raise CflViolation(
            f"dt={abs(cfg.dt)} exceeds CFL limit {dt_limit} "
            f"(cfl_factor={cfg.cfl_factor}, dx={g.dx}, max group speed={speed})"
        )

    snapshots = set(cfg.snapshot_steps())
    n_total = max(snapshots)
    kernel = _Kernel(g, cfg.params)
    bottom = _bottom_at(cfg.bathymetry, g, cfg.params)

    s = State(g, cfg.eta0, cfg.u0, cfg.t_start)
    y = s.coeffs
    norm0 = float(_h1_norm(g, y))

    result = RunResult(final_state=s)
    if observer is None:  # each snapshot State is fresh and read-only: keep it as it is
        observer = result.snapshots.append
    observer(s)
    for n in range(1, n_total + 1):
        # times from the step index avoid accumulated roundoff in t
        y = kernel.step(y, cfg.t_start + (n - 1) * cfg.dt, cfg.dt, bottom)
        if n in snapshots:
            s = _state(g, y, cfg.t_start + n * cfg.dt)
            if not (np.all(np.isfinite(s.eta)) and np.all(np.isfinite(s.u))):
                raise NonFinite(f"non-finite field values at t={s.t}")
            if norm0 > 0.0:
                norm = float(_h1_norm(g, y))
                if norm > cfg.blowup_factor * norm0:
                    raise BlowUp(
                        f"H1 norm {norm} exceeded {cfg.blowup_factor} x initial {norm0} at t={s.t}"
                    )
            observer(s)
    result.final_state = s
    result.n_steps = n_total
    return result
