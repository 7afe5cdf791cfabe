"""Time-dependent bottom profiles and the hypothesis audit.

All presets are separable, h(t, x) = amplitude * tau(t) * X(x), with tau
and X given in closed form together with the derivatives the solver and
the diagnostics consume.  Sampling therefore never differentiates data
numerically; the eight derivative fields are analytic evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Grid

__all__ = [
    "BathymetrySamples",
    "Bathymetry",
    "flat_bottom",
    "decaying_bump",
    "smooth_switch_bump",
    "traveling_ripple",
    "static_bump",
    "HypothesisReport",
    "hypothesis_report",
]


@dataclass(frozen=True)
class BathymetrySamples:
    """Grid samples of h and the derivatives the model needs at one time.

    zero is True when every field is identically zero (flat fast path).
    """

    grid: Grid
    t: float
    h: np.ndarray
    dx_h: np.ndarray
    dt_h: np.ndarray
    dtt_h: np.ndarray
    dt_dx_h: np.ndarray
    dtt_dx_h: np.ndarray
    dt_dxx_h: np.ndarray
    dtt_dxx_h: np.ndarray
    zero: bool = False

    @cached_property
    def spectra(self) -> np.ndarray:
        """Stacked rfft of (h, dt_h, dt_dxx_h, dtt_dx_h, dtt_dxx_h).  A sample from
        `Bathymetry.sample` carries it; a hand-built one transforms on first use."""
        return self.grid._rfft(np.stack([getattr(self, k) for k in _SPECTRAL]))


# the fields whose rfft rows a sample carries; row i is amplitude times
# (tau, tau', tau'')[_SPECTRAL_CLOCK[i]] times (X, X', X'')[_SPECTRAL_PROFILE[i]]
_SPECTRAL = ("h", "dt_h", "dt_dxx_h", "dtt_dx_h", "dtt_dxx_h")
_SPECTRAL_PROFILE = [0, 0, 2, 1, 2]
_SPECTRAL_CLOCK = [0, 1, 1, 2, 2]


class Bathymetry:
    """Separable bottom h = amplitude * tau(t) * X(x).

    tau_fn(t) returns (tau, tau', tau''); profile_fn(x) returns
    (X, X', X'') as arrays.  The amplitude-scaled profile rows and their
    spectra are cached per grid (L, N).
    """

    def __init__(self, preset: str, amplitude: float, tau_fn, profile_fn):
        self.preset = preset
        self.amplitude = float(amplitude)
        self._tau_fn = tau_fn
        self._profile_fn = profile_fn
        self._profile_cache: dict[tuple, tuple] = {}

    @property
    def is_flat(self) -> bool:
        return self.amplitude == 0.0

    def _profiles(self, grid: Grid):
        """amplitude * (X, X', X'') on the grid, and the _SPECTRAL rows at
        tau = tau' = tau'' = 1 from one stacked rfft of them."""
        key = (grid.L, grid.N)
        if key not in self._profile_cache:
            rows = self.amplitude * np.array(self._profile_fn(grid.x), dtype=float)
            unit = grid._rfft(rows)[_SPECTRAL_PROFILE]
            unit.flags.writeable = False
            self._profile_cache[key] = rows, unit
        return self._profile_cache[key]

    def tau(self, t: float):
        return self._tau_fn(t)

    def spectra(self, grid: Grid) -> np.ndarray:
        """`BathymetrySamples.spectra` at tau = tau' = tau'' = 1, read-only."""
        return self._profiles(grid)[1]

    def sample(self, grid: Grid, t: float) -> BathymetrySamples:
        if self.is_flat:
            z = np.zeros(grid.N)
            return BathymetrySamples(grid, t, z, z, z, z, z, z, z, z, zero=True)
        (X, dX, d2X), unit = self._profiles(grid)
        clock = self._tau_fn(t)
        tv, dtv, d2tv = clock
        bs = BathymetrySamples(
            grid=grid, t=t,
            h=tv * X,
            dx_h=tv * dX,
            dt_h=dtv * X,
            dtt_h=d2tv * X,
            dt_dx_h=dtv * dX,
            dtt_dx_h=d2tv * dX,
            dt_dxx_h=dtv * d2X,
            dtt_dxx_h=d2tv * d2X,
        )
        bs.__dict__["spectra"] = np.array(clock)[_SPECTRAL_CLOCK, None] * unit
        return bs


# -- profile helpers -----------------------------------------------------

def _sech2_profile(width: float, center: float):
    def profile(x):
        y = (x - center) / width
        s = 1.0 / np.cosh(y) ** 2
        t = np.tanh(y)
        X = s
        dX = -2.0 * s * t / width
        d2X = 2.0 * s * (2.0 * t * t - s) / width**2
        return X, dX, d2X

    return profile


def _ripple_profile(width: float, k0: float, center: float):
    envelope = _sech2_profile(width, center)

    def profile(x):
        P, dP, d2P = envelope(x)
        C = np.cos(k0 * x)
        dC = -k0 * np.sin(k0 * x)
        d2C = -k0 * k0 * C
        X = C * P
        dX = dC * P + C * dP
        d2X = d2C * P + 2.0 * dC * dP + C * d2P
        return X, dX, d2X

    return profile


def _relaxing_clock(t0: float):
    """tau = e^{-(t-t0)}; each time derivative flips the sign."""

    def tau(t):
        e = np.exp(-(t - t0))
        return e, -e, e

    return tau


# -- presets -------------------------------------------------------------

def flat_bottom() -> Bathymetry:
    """h identically zero."""
    return Bathymetry("flat", 0.0, lambda t: (0.0, 0.0, 0.0), lambda x: (0.0 * x, 0.0 * x, 0.0 * x))


def decaying_bump(amplitude: float, width: float = 1.0, center: float = 0.0, t0: float = 0.0) -> Bathymetry:
    """Exponentially relaxing bump, h = amp * e^{-(t-t0)} * sech^2((x-center)/width)."""
    return Bathymetry("decaying-bump", amplitude, _relaxing_clock(t0), _sech2_profile(width, center))


def smooth_switch_bump(amplitude: float, width: float = 1.0, t_on: float = 5.0,
                       t_off: float = 10.0, center: float = 0.0) -> Bathymetry:
    """Bump held at full height until t_on, ramped smoothly to zero by t_off.

    The ramp is the quintic smoothstep, which is C^2 at both junctions so
    dtt_h stays continuous.
    """
    if not t_off > t_on:
        raise ValueError("t_off must exceed t_on")
    span = t_off - t_on

    def tau(t):
        if t <= t_on:
            return 1.0, 0.0, 0.0
        if t >= t_off:
            return 0.0, 0.0, 0.0
        r = (t - t_on) / span
        s = 1.0 - (10.0 * r**3 - 15.0 * r**4 + 6.0 * r**5)
        ds = -(30.0 * r**2 - 60.0 * r**3 + 30.0 * r**4) / span
        d2s = -(60.0 * r - 180.0 * r**2 + 120.0 * r**3) / span**2
        return s, ds, d2s

    return Bathymetry("smooth-switch", amplitude, tau, _sech2_profile(width, center))


def traveling_ripple(amplitude: float, width: float = 1.0, k0: float = 1.0,
                     center: float = 0.0, t0: float = 0.0) -> Bathymetry:
    """Decaying oscillatory patch, h = amp * e^{-(t-t0)} * cos(k0 x) sech^2((x-center)/width)."""
    return Bathymetry("traveling-ripple", amplitude, _relaxing_clock(t0), _ripple_profile(width, k0, center))


def static_bump(amplitude: float, width: float = 1.0, center: float = 0.0) -> Bathymetry:
    """Time-independent bump.  Fails the flux hypothesis at large T; kept
    for the honest negative test."""
    return Bathymetry("static-bump", amplitude, lambda t: (1.0, 0.0, 0.0), _sech2_profile(width, center))


# -- hypothesis audit ----------------------------------------------------

@dataclass(frozen=True)
class HypothesisReport:
    t_max: float
    eps: float
    c_const: float
    sup_w2inf_h1: float
    l1t_h1_dt: float
    l1t_h1_dtt: float
    l1t_linf_dx: float
    smallness_value: float
    smallness_bound: float
    smallness_ok: bool
    flux_value: float
    flux_bound: float
    flux_ok: bool
    passed: bool

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _simpson_weights(n_points: int, step: float) -> np.ndarray:
    # composite Simpson; n_points odd (even interval count)
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (step / 3.0)


def hypothesis_report(b: Bathymetry, grid: Grid, t_max: float, eps: float,
                      c_const: float = 1.0) -> HypothesisReport:
    """Numerically audit the smallness and flux hypotheses on [0, t_max].

    Checks
        sup_t sum_{j<=2} ||dt^j h||_H1  +  int ||dt h||_H1  +  int ||dtt h||_H1  <= C eps
        int_0^T max_x |dx h| dt  <=  C

    Time integrals use composite Simpson with step 1e-3 * t_max.
    """
    if t_max <= 0.0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    n_int = 1000  # step = 1e-3 * t_max, even count for Simpson
    ts = np.linspace(0.0, t_max, n_int + 1)
    wq = _simpson_weights(n_int + 1, t_max / n_int)

    # Spatial norms of the separable profile are time independent; only tau
    # varies.  Evaluate them on a dense internal grid so the reported numbers
    # approximate the continuum norms rather than solver-node maxima.
    nd = 1 << 16
    step = 2.0 * grid.L / nd
    xs = -grid.L + step * np.arange(nd)
    X, dX, _ = b._profile_fn(xs)
    amp = b.amplitude
    nx_h1 = amp * np.sqrt(step * np.sum(X * X + dX * dX))
    adX = np.abs(np.asarray(dX, float))
    j = int(np.argmax(adX))
    y0, y1, y2 = adX[(j - 1) % nd], adX[j], adX[(j + 1) % nd]
    den = y0 - 2.0 * y1 + y2
    peak = y1 if den >= 0.0 else y1 - 0.125 * (y0 - y2) ** 2 / den
    linf_dx = amp * float(peak)

    taus = np.array([b.tau(t) for t in ts])  # columns tau, tau', tau''
    abs_tau = np.abs(taus)

    sup_w2 = float(np.max((abs_tau[:, 0] + abs_tau[:, 1] + abs_tau[:, 2]) * nx_h1))
    l1_dt = float(np.sum(wq * abs_tau[:, 1]) * nx_h1)
    l1_dtt = float(np.sum(wq * abs_tau[:, 2]) * nx_h1)
    l1_dx = float(np.sum(wq * abs_tau[:, 0]) * linf_dx)

    smallness = sup_w2 + l1_dt + l1_dtt
    sm_bound = c_const * eps
    fl_bound = c_const
    sm_ok = smallness <= sm_bound
    fl_ok = l1_dx <= fl_bound
    return HypothesisReport(
        t_max=t_max, eps=eps, c_const=c_const,
        sup_w2inf_h1=sup_w2, l1t_h1_dt=l1_dt, l1t_h1_dtt=l1_dtt, l1t_linf_dx=l1_dx,
        smallness_value=smallness, smallness_bound=sm_bound, smallness_ok=sm_ok,
        flux_value=l1_dx, flux_bound=fl_bound, flux_ok=fl_ok, passed=sm_ok and fl_ok,
    )
