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
hands each stepped snapshot over as a State that holds only those
coefficients: its guards read them, and eta and u are built on first
read (see `State`), so a snapshot that no caller reads in physical space
costs no inverse transform.  The kernel steps in a workspace it
allocates once per grid: the transforms (the pocketfft pair bound in
`grid.py`, the inverse unnormalized) write into it, the scale of the
3/2-rule products rides in the kernel's quadratic symbols, the separable
bottom enters as one multiply per stage time of its three stacked
unit-tau rows by their scales, the RK4 scalars enter as 0-d complex
arrays made once per dt, and each step allocates only the fresh array of
coefficients it returns.  `rhs` and `step_rk4` are physical-space
adapters over the same kernel.
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

    eta and u are read-only: the constructor and a rebinding copy the
    arrays given, and rebinding either drops the cached coefficients, so
    `coeffs` always describes the fields.  A snapshot of `run` holds its
    coefficients alone (see `_state`): it builds eta and u on first read,
    bitwise `Grid.from_hat(coeffs)`, as two views of one read-only (2, N)
    array that it keeps.
    """

    grid: Grid
    eta: np.ndarray
    u: np.ndarray
    t: float

    def __setattr__(self, name, value):
        if name in ("eta", "u"):
            value = np.array(self.grid.check(value), dtype=float)
            value.flags.writeable = False
            if "coeffs" in self.__dict__:
                if "u" not in self.__dict__:
                    self._build_fields()  # the other field outlives the coefficients
                del self.__dict__["coeffs"]
        super().__setattr__(name, value)

    def __getattr__(self, name):
        # reached only for an attribute not set, as eta and u of a State
        # that holds its coefficients alone
        if name in ("eta", "u") and "coeffs" in self.__dict__:
            self._build_fields()
            return self.__dict__[name]
        raise AttributeError(f"'State' object has no attribute {name!r}")

    def _build_fields(self) -> None:
        fields = self.grid.from_hat(self.coeffs)
        fields.flags.writeable = False
        self.__dict__.update(u=fields[0], eta=fields[1])

    @cached_property
    def coeffs(self) -> np.ndarray:
        """Stacked rfft coefficients (u_hat, eta_hat), read-only.

        A State built by `run` carries them; a hand-built one computes
        them with one stacked transform on first use.
        """
        y = self.grid._rfft(np.stack((self.u, self.eta)))
        y.flags.writeable = False
        return y

    def copy(self) -> "State":
        return _carrying(State(self.grid, self.eta, self.u, self.t), self.coeffs)


def _carrying(s: State, y) -> State:
    """s with its stacked coefficients y frozen in place of the first-use transform."""
    y.flags.writeable = False
    s.__dict__["coeffs"] = y
    return s


def _state(g: Grid, y, t: float) -> State:
    """State at time t that holds the stacked coefficients (u_hat, eta_hat)
    alone: no transform, no copy, no `Grid.check`.  Its eta and u are
    built on first read (see `State`)."""
    s = State.__new__(State)
    s.__dict__.update(grid=g, t=t)
    return _carrying(s, y)


def _h1_norm(g: Grid, y):
    """H1 x H1 norm of the fields whose rfft coefficients are the rows of y;
    of a (2, B, N/2 + 1) block, one norm per snapshot."""
    v = y.view(float)  # the real and imaginary part of each mode side by side
    v = v * v
    return np.sqrt(np.add.reduce((v[0] + v[1]) * g._h1_weights, axis=-1))


def state_h1_norm(s: State) -> float:
    """H1 x H1 norm of (eta, u), computed spectrally."""
    return float(_h1_norm(s.grid, s.coeffs))


def _bottom_forcing(g: Grid, p: AbcdParams, spectra):
    """h_hat and the stacked bottom forcing ((T q)^, (T w1)^) of a bottom
    whose rfft rows (h, dt h, dt dxx h, dtt dx h, ...) are `spectra`, with
    q = dtt dx h and w1 = (-1 + a1 dxx) dt h."""
    h_hat, dt_h, dt_dxx_h, dtt_dx_h = spectra[:4]
    return h_hat, g._helm * np.stack((dtt_dx_h, p.a1 * dt_dxx_h - dt_h))


def _bottom_at(b: Bathymetry, g: Grid, p: AbcdParams):
    """(h_hat, force) of a separable bottom at unit tau, and the clock
    t -> (tau, c1 tau'', tau') that scales them at time t; (None, None)
    over a flat one.

    The unit forcing is built once from the bottom's cached spectra;
    `_Kernel.at` scales it into the kernel's buffers at each stage time.
    """
    if b.is_flat:
        return None, None
    unit = _bottom_forcing(g, p, b.spectra(g))

    def clock(t):
        tv, dtv, d2tv = b.tau(t)
        return tv, p.c1 * d2tv, dtv

    return unit, clock


# the RK4 scalars enter the kernel's ufuncs as 0-d complex arrays (see
# `_Kernel.step`): a Python float costs a dtype promotion per call
_TWO = np.array(2.0, complex)


class _Kernel:
    """Tendency and RK4 step of the stacked coefficients y = (u_hat, eta_hat).

    A tendency costs one stacked inverse transform of (u_hat, eta_hat +
    tau h_hat) to the fine grid and one stacked forward transform of
    (u^2, u (eta + h)) back, so an RK4 step costs 8 transforms.  Both are
    unnormalized (see `Grid._dealiased_products`): `quad` carries their
    scale 1/(N n_fine), so a stage makes no pass that only rescales.
    `bottom` is the (h_hat, force) of `_bottom_at` at unit tau, or None
    over a flat bottom; `at` scales it to a time.

    Each kernel owns a workspace, allocated once from its grid: the
    buffers of the dealiased products, the bottom's unit rows and their
    scaled rows at the current time (tau h_hat below Nyquist, the
    forcing), the stage input and the four stage tendencies.  Over a
    bottom, (u_hat, eta_hat + tau h_hat) is written straight into the
    products' padded spectrum.  A step runs in it with the operations,
    and their order, of the plain RK4 formula and returns a fresh array,
    since a snapshot State freezes the coefficients it carries.
    """

    def __init__(self, g: Grid, p: AbcdParams, bottom=None):
        ik_hel = g._ik * g._helm
        self.grid = g
        self.lin = np.stack((ik_hel * (p.c * g.k2 - 1.0), ik_hel * (p.a * g.k2 - 1.0)))
        self.quad = np.stack((-0.5 * ik_hel, -ik_hel)) * g._product_scale
        self.bottom = bottom
        shape = self.lin.shape
        self._products = g._product_buffers(shape)
        # the bottom's unit rows (h_hat zero at Nyquist, T q, T w1), the column
        # of their scales at one time, its rows and their product: tau h_hat and
        # the forcing.  The scales are spread over whole rows because numpy
        # buffers a broadcast multiply: a temporary of the rows' size per call
        self._unit = np.zeros((3, shape[-1]), complex)
        if bottom is not None:
            self._unit[0, :-1] = bottom[0][:-1]
            self._unit[1:] = bottom[1]
        self._column = np.zeros((3, 1), complex)
        self._column_re = self._column.real[:, 0]  # filled from floats: no complex cast per call
        self._scales, self._bottom_rows = np.empty((2,) + self._unit.shape, complex)
        self._h, self._scaled = self._bottom_rows[0, :-1], self._bottom_rows[1:]
        self._stage = np.empty(shape, complex)
        self._k = tuple(np.empty((4,) + shape, complex))
        self._dt = None  # the dt of `_dts`

    def at(self, scales) -> None:
        """Scale the bottom to the time of `scales` = (tau, c1 tau'', tau'):
        one multiply of its unit rows by the rows of the three."""
        self._column_re[:] = scales
        np.copyto(self._scales, self._column)
        np.multiply(self._scales, self._unit, out=self._bottom_rows)

    def __call__(self, y, out):
        """The tendency of y into out, over the bottom at the time of the last `at`."""
        x = y
        if self.bottom is not None:
            x, band = None, self._products[1]
            np.copyto(band[0], y[0, :-1])
            np.add(y[1, :-1], self._h, out=band[1])
        prods = self.grid._dealiased_products(x, self._products)
        np.multiply(self.lin, y[::-1], out=out)
        np.multiply(self.quad, prods, out=prods)
        out += prods
        if self.bottom is not None:
            out += self._scaled
        return out

    def step(self, y, t: float, dt: float, clock=None):
        """One classical Runge-Kutta step from time t (dt may be negative),
        as a fresh array; `clock` is the t -> scales of `_bottom_at`."""
        if dt != self._dt:
            self._dt = dt
            self._dts = tuple(np.array(v, complex) for v in (0.5 * dt, dt, dt / 6.0))
        half, full, sixth = self._dts
        k1, k2, k3, k4 = self._k
        x = self._stage
        if clock is not None:
            self.at(clock(t))
        self(y, k1)
        np.add(y, np.multiply(half, k1, out=x), out=x)
        if clock is not None:
            self.at(clock(t + 0.5 * dt))
        self(x, k2)
        np.add(y, np.multiply(half, k2, out=x), out=x)
        self(x, k3)
        np.add(y, np.multiply(full, k3, out=x), out=x)
        if clock is not None:
            self.at(clock(t + dt))
        self(x, k4)
        # y + (dt / 6) (k1 + 2 k2 + 2 k3 + k4), term by term in that order
        k2 *= _TWO
        k1 += k2
        k3 *= _TWO
        k1 += k3
        k1 += k4
        k1 *= sixth
        return y + k1


def rhs(s: State, bs: BathymetrySamples, p: AbcdParams):
    """Tendencies (dt eta, dt u) for one state and one bottom sample."""
    g = s.grid
    if not g.compatible(bs.grid):
        raise ValueError("state and bathymetry samples live on different grids")
    k = _Kernel(g, p, None if bs.zero else _bottom_forcing(g, p, bs.spectra))
    if not bs.zero:  # the sample's spectra are the bottom at its time: unit scales
        k.at((1.0, p.c1, 1.0))
    du, deta = g.from_hat(k(s.coeffs, np.empty_like(k.lin)))
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
    bottom, clock = _bottom_at(b, g, p)
    y = _Kernel(g, p, bottom).step(s.coeffs, s.t, dt, clock)
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
    they are collected in the result.  The initial State holds the
    caller's fields; every later one, `final_state` included, holds its
    coefficients alone and builds its fields on first read.  Aborts with CflViolation before
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
    bottom, clock = _bottom_at(cfg.bathymetry, g, cfg.params)
    kernel = _Kernel(g, cfg.params, bottom)

    s = State(g, cfg.eta0, cfg.u0, cfg.t_start)
    y = s.coeffs
    norm0 = float(_h1_norm(g, y))

    result = RunResult(final_state=s)
    if observer is None:  # each snapshot State is fresh and read-only: keep it as it is
        observer = result.snapshots.append
    observer(s)
    for n in range(1, n_total + 1):
        # times from the step index avoid accumulated roundoff in t
        y = kernel.step(y, cfg.t_start + (n - 1) * cfg.dt, cfg.dt, clock)
        if n in snapshots:
            t = cfg.t_start + n * cfg.dt
            # the guards read the coefficients: fields that would overflow from
            # finite ones have an infinite H1 norm, which trips BlowUp
            if not np.isfinite(y).all():
                raise NonFinite(f"non-finite field values at t={t}")
            if norm0 > 0.0:
                norm = float(_h1_norm(g, y))
                if norm > cfg.blowup_factor * norm0:
                    raise BlowUp(
                        f"H1 norm {norm} exceeded {cfg.blowup_factor} x initial {norm0} at t={t}"
                    )
            s = _state(g, y, t)
            observer(s)
    result.final_state = s
    result.n_steps = n_total
    return result
