"""Experiment configuration: INI parsing, validation, normalization.

The config format is flat key = value sections.  parse_config returns a
typed ExperimentConfig; normal_form re-serializes it to a canonical text
whose parse compares equal (round-trip property).  Half-lengths accept
"200*pi" style values since boxes are sized in multiples of pi.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass

from .bathymetry import (
    Bathymetry,
    decaying_bump,
    flat_bottom,
    smooth_switch_bump,
    static_bump,
    traveling_ripple,
)
from .grid import Grid
from .initial import gaussian_pair, random_bandlimited_pair, single_mode_pair, zero_pair
from .params import AbcdParams, params_from_physical
from .solver import SimConfig

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "GridSpec",
    "BathySpec",
    "InitialSpec",
    "TimeSpec",
    "DiagSpec",
    "RegionSpec",
    "AuditSpec",
    "parse_config",
    "parse_config_text",
    "normal_form",
    "resolve_output_dir",
    "build_grid",
    "build_bathymetry",
    "build_initial",
    "build_sim_config",
    "fmt_float",
]

KINDS = ("identity-suite", "decay-run", "region-map", "hypothesis-audit")
BATHY_PRESETS = ("flat", "decaying-bump", "smooth-switch", "traveling-ripple", "static-bump")
INITIAL_KINDS = ("gaussian", "single-mode", "random", "zero")
OUT_ROOT_ENV = "ABCDSIM_OUT_ROOT"


class ConfigError(ValueError):
    """Schema violation; the message names the offending field."""


def fmt_float(x: float) -> str:
    """Frozen float formatting for all emitted artifacts: 17 significant digits."""
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class GridSpec:
    half_length: float
    n: int


@dataclass(frozen=True)
class BathySpec:
    preset: str = "flat"
    amplitude: float = 0.0
    width: float = 1.0
    center: float = 0.0
    t0: float = 0.0
    k0: float = 1.0
    t_on: float = 1.0
    t_off: float = 2.0


@dataclass(frozen=True)
class InitialSpec:
    kind: str = "zero"
    eps: float = 1e-2
    width: float = 5.0
    ratio: float = 1.0
    center: float = 0.0
    mode: int = 1
    amp_eta: float = 0.0
    amp_u: float = 0.0
    phase: float = 0.0
    kmax_fraction: float = 0.5


@dataclass(frozen=True)
class TimeSpec:
    dt: float
    t_end: float
    t_start: float = 0.0
    snapshot_every: int = 1
    cfl_factor: float = 0.5
    blowup_factor: float = 10.0


@dataclass(frozen=True)
class DiagSpec:
    alpha: float = 0.0
    weight_mode: str = "fixed"
    fixed_lambda: float = 10.0
    residual_threshold: float = 1e-6


@dataclass(frozen=True)
class RegionSpec:
    a_min: float
    a_max: float
    c_min: float
    c_max: float
    step: float
    b: float = 1.0
    with_alpha: bool = True


@dataclass(frozen=True)
class AuditSpec:
    t_max: float
    eps: float
    c_const: float = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    output_dir: str
    seed: int
    params: AbcdParams | None = None
    grid: GridSpec | None = None
    bathy: BathySpec | None = None
    initial: InitialSpec | None = None
    time: TimeSpec | None = None
    diag: DiagSpec | None = None
    region: RegionSpec | None = None
    audit: AuditSpec | None = None


# -- low-level readers ---------------------------------------------------

def _parse_length(text: str) -> float:
    s = text.strip().lower().replace(" ", "")
    if s == "pi":
        return math.pi
    if s.endswith("*pi"):
        return float(s[:-3]) * math.pi
    return float(s)


class _Section:
    def __init__(self, cp: configparser.ConfigParser, name: str):
        self.name = name
        self.present = cp.has_section(name)
        self._cp = cp
        self.read: set = set()  # every key asked for, present or not

    def require(self):
        if not self.present:
            raise ConfigError(f'missing section "[{self.name}]"')
        return self

    def _raw(self, key: str):
        self.read.add(key)
        if not self.present or not self._cp.has_option(self.name, key):
            return None
        return self._cp.get(self.name, key)

    def get(self, key: str, default=None):
        raw = self._raw(key)
        return default if raw is None else raw.strip()

    def need(self, key: str) -> str:
        raw = self._raw(key)
        if raw is None:
            raise ConfigError(f'missing required field "{key}" in [{self.name}]')
        return raw.strip()

    def _convert(self, key: str, raw: str, conv):
        try:
            return conv(raw)
        except ValueError as exc:
            raise ConfigError(f'bad value for "{key}" in [{self.name}]: {raw!r}') from exc

    def floatval(self, key: str, default=None, required=False):
        raw = self.need(key) if required else self.get(key)
        if raw is None:
            return default
        return self._convert(key, raw, float)

    def lengthval(self, key: str, default=None, required=False):
        raw = self.need(key) if required else self.get(key)
        if raw is None:
            return default
        return self._convert(key, raw, _parse_length)

    def intval(self, key: str, default=None, required=False):
        raw = self.need(key) if required else self.get(key)
        if raw is None:
            return default
        return self._convert(key, raw, int)

    def boolval(self, key: str, default=False):
        raw = self.get(key)
        if raw is None:
            return default
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f'bad value for "{key}" in [{self.name}]: {raw!r}')

    def choice(self, key: str, allowed, default=None, required=False):
        raw = self.need(key) if required else self.get(key, default)
        if raw is None:
            return None
        if raw not in allowed:
            raise ConfigError(
                f'bad value for "{key}" in [{self.name}]: {raw!r} (allowed: {", ".join(allowed)})'
            )
        return raw


# -- section parsers -----------------------------------------------------

def _parse_params(sec: _Section) -> AbcdParams:
    sec.require()
    mode = sec.choice("mode", ("direct", "physical"), default="direct")
    if mode == "physical":
        theta = sec.floatval("theta", required=True)
        lambda_p = sec.floatval("lambda_p", required=True)
        mu_p = sec.floatval("mu_p", required=True)
        b = sec.floatval("b", default=None)
        try:
            if b is None:
                # accept the tuple with b inferred from (theta, lambda_p)
                b = 0.5 * (theta**2 - 1.0 / 3.0) * (1.0 - lambda_p)
            return params_from_physical(theta, lambda_p, mu_p, b)
        except ValueError as exc:
            raise ConfigError(f"invalid physical parameters in [{sec.name}]: {exc}") from exc
    a = sec.floatval("a", required=True)
    c = sec.floatval("c", required=True)
    return AbcdParams(
        a=a,
        c=c,
        a1=sec.floatval("a1", default=0.0),
        c1=sec.floatval("c1", default=0.0),
    )


def _parse_grid(sec: _Section) -> GridSpec:
    sec.require()
    half = sec.lengthval("half_length", required=True)
    n = sec.intval("n", required=True)
    return GridSpec(half_length=half, n=n)


def _parse_bathy(sec: _Section) -> BathySpec:
    if not sec.present:
        return BathySpec()
    preset = sec.choice("preset", BATHY_PRESETS, default="flat")
    return BathySpec(
        preset=preset,
        amplitude=sec.floatval("amplitude", default=0.0),
        width=sec.floatval("width", default=1.0),
        center=sec.floatval("center", default=0.0),
        t0=sec.floatval("t0", default=0.0),
        k0=sec.floatval("k0", default=1.0),
        t_on=sec.floatval("t_on", default=1.0),
        t_off=sec.floatval("t_off", default=2.0),
    )


def _parse_initial(sec: _Section) -> InitialSpec:
    if not sec.present:
        return InitialSpec()
    kind = sec.choice("kind", INITIAL_KINDS, default="zero")
    return InitialSpec(
        kind=kind,
        eps=sec.floatval("eps", default=1e-2),
        width=sec.floatval("width", default=5.0),
        ratio=sec.floatval("ratio", default=1.0),
        center=sec.floatval("center", default=0.0),
        mode=sec.intval("mode", default=1),
        amp_eta=sec.floatval("amp_eta", default=0.0),
        amp_u=sec.floatval("amp_u", default=0.0),
        phase=sec.floatval("phase", default=0.0),
        kmax_fraction=sec.floatval("kmax_fraction", default=0.5),
    )


def _parse_time(sec: _Section) -> TimeSpec:
    sec.require()
    dt = sec.floatval("dt", required=True)
    t_end = sec.floatval("t_end", required=True)
    return TimeSpec(
        dt=dt,
        t_end=t_end,
        t_start=sec.floatval("t_start", default=0.0),
        snapshot_every=sec.intval("snapshot_every", default=1),
        cfl_factor=sec.floatval("cfl_factor", default=0.5),
        blowup_factor=sec.floatval("blowup_factor", default=10.0),
    )


def _parse_diag(sec: _Section, kind: str) -> DiagSpec:
    default_mode = "schedule" if kind == "decay-run" else "fixed"
    if not sec.present:
        return DiagSpec(weight_mode=default_mode)
    mode = sec.choice("weight_mode", ("fixed", "schedule"), default=default_mode)
    return DiagSpec(
        alpha=sec.floatval("alpha", default=0.0),
        weight_mode=mode,
        fixed_lambda=sec.floatval("fixed_lambda", default=10.0),
        residual_threshold=sec.floatval("residual_threshold", default=1e-6),
    )


def _parse_region(sec: _Section) -> RegionSpec:
    sec.require()
    return RegionSpec(
        a_min=sec.floatval("a_min", required=True),
        a_max=sec.floatval("a_max", required=True),
        c_min=sec.floatval("c_min", required=True),
        c_max=sec.floatval("c_max", required=True),
        step=sec.floatval("step", required=True),
        b=sec.floatval("b", default=1.0),
        with_alpha=sec.boolval("with_alpha", default=True),
    )


def _parse_audit(sec: _Section) -> AuditSpec:
    sec.require()
    return AuditSpec(
        t_max=sec.floatval("t_max", required=True),
        eps=sec.floatval("eps", required=True),
        c_const=sec.floatval("c_const", default=1.0),
    )


def parse_config_text(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc

    sections: dict = {}

    def section(name: str) -> _Section:
        sections[name] = _Section(cp, name)
        return sections[name]

    exp = section("experiment").require()
    kind = exp.choice("kind", KINDS, required=True)
    output_dir = exp.need("output_dir")
    seed = exp.intval("seed", default=0)

    ec = dict(kind=kind, output_dir=output_dir, seed=seed)
    if kind in ("identity-suite", "decay-run"):
        ec["params"] = _parse_params(section("params"))
        ec["grid"] = _parse_grid(section("grid"))
        ec["bathy"] = _parse_bathy(section("bathymetry"))
        ec["initial"] = _parse_initial(section("initial"))
        ec["time"] = _parse_time(section("time"))
        ec["diag"] = _parse_diag(section("diagnostics"), kind)
    elif kind == "region-map":
        ec["region"] = _parse_region(section("region"))
    else:  # hypothesis-audit
        ec["grid"] = _parse_grid(section("grid"))
        ec["bathy"] = _parse_bathy(section("bathymetry"))
        ec["audit"] = _parse_audit(section("audit"))
    # a key nobody reads would be silently ignored (a typo keeps the default)
    for name in cp.sections():
        if name not in sections:
            raise ConfigError(f'unknown section "[{name}]" for kind "{kind}"')
        for key in cp.options(name):
            if key not in sections[name].read:
                raise ConfigError(f'unknown key "{key}" in [{name}]')
    return ExperimentConfig(**ec)


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text)


# -- normalization -------------------------------------------------------

def _emit(lines: list, section: str, pairs: list):
    lines.append(f"[{section}]")
    for key, val in pairs:
        if isinstance(val, bool):
            sval = "true" if val else "false"
        elif isinstance(val, float):
            sval = fmt_float(val)
        else:
            sval = str(val)
        lines.append(f"{key} = {sval}")
    lines.append("")


def normal_form(cfg: ExperimentConfig) -> str:
    """Canonical re-serialization; parsing it yields an equal config."""
    lines: list = []
    _emit(lines, "experiment", [("kind", cfg.kind), ("output_dir", cfg.output_dir), ("seed", cfg.seed)])
    if cfg.params is not None:
        p = cfg.params
        if p.origin == "physical":
            _emit(lines, "params", [
                ("mode", "physical"), ("theta", p.theta), ("lambda_p", p.lambda_p),
                ("mu_p", p.mu_p), ("b", p.b),
            ])
        else:
            _emit(lines, "params", [
                ("mode", "direct"), ("a", p.a), ("c", p.c), ("a1", p.a1), ("c1", p.c1),
            ])
    if cfg.grid is not None:
        _emit(lines, "grid", [("half_length", cfg.grid.half_length), ("n", cfg.grid.n)])
    if cfg.bathy is not None:
        b = cfg.bathy
        _emit(lines, "bathymetry", [
            ("preset", b.preset), ("amplitude", b.amplitude), ("width", b.width),
            ("center", b.center), ("t0", b.t0), ("k0", b.k0),
            ("t_on", b.t_on), ("t_off", b.t_off),
        ])
    if cfg.initial is not None:
        i = cfg.initial
        _emit(lines, "initial", [
            ("kind", i.kind), ("eps", i.eps), ("width", i.width), ("ratio", i.ratio),
            ("center", i.center), ("mode", i.mode), ("amp_eta", i.amp_eta),
            ("amp_u", i.amp_u), ("phase", i.phase), ("kmax_fraction", i.kmax_fraction),
        ])
    if cfg.time is not None:
        t = cfg.time
        _emit(lines, "time", [
            ("dt", t.dt), ("t_end", t.t_end), ("t_start", t.t_start),
            ("snapshot_every", t.snapshot_every), ("cfl_factor", t.cfl_factor),
            ("blowup_factor", t.blowup_factor),
        ])
    if cfg.diag is not None:
        d = cfg.diag
        _emit(lines, "diagnostics", [
            ("alpha", d.alpha), ("weight_mode", d.weight_mode),
            ("fixed_lambda", d.fixed_lambda), ("residual_threshold", d.residual_threshold),
        ])
    if cfg.region is not None:
        r = cfg.region
        _emit(lines, "region", [
            ("a_min", r.a_min), ("a_max", r.a_max), ("c_min", r.c_min),
            ("c_max", r.c_max), ("step", r.step), ("b", r.b), ("with_alpha", r.with_alpha),
        ])
    if cfg.audit is not None:
        a = cfg.audit
        _emit(lines, "audit", [("t_max", a.t_max), ("eps", a.eps), ("c_const", a.c_const)])
    return "\n".join(lines)


def resolve_output_dir(cfg: ExperimentConfig) -> str:
    root = os.environ.get(OUT_ROOT_ENV)
    out = cfg.output_dir
    if root and not os.path.isabs(out):
        return os.path.join(root, out)
    return out


# -- builders ------------------------------------------------------------

def build_grid(cfg: ExperimentConfig) -> Grid:
    try:
        return Grid(cfg.grid.half_length, cfg.grid.n)
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def build_bathymetry(cfg: ExperimentConfig) -> Bathymetry:
    b = cfg.bathy or BathySpec()
    try:
        if b.preset == "flat":
            return flat_bottom()
        if b.preset == "decaying-bump":
            return decaying_bump(b.amplitude, width=b.width, center=b.center, t0=b.t0)
        if b.preset == "smooth-switch":
            return smooth_switch_bump(b.amplitude, width=b.width, center=b.center,
                                      t_on=b.t_on, t_off=b.t_off)
        if b.preset == "traveling-ripple":
            return traveling_ripple(b.amplitude, width=b.width, k0=b.k0,
                                    center=b.center, t0=b.t0)
        if b.preset == "static-bump":
            return static_bump(b.amplitude, width=b.width, center=b.center)
    except ValueError as exc:
        raise ConfigError(f"invalid bathymetry: {exc}") from exc
    raise ConfigError(f'bad value for "preset" in [bathymetry]: {b.preset!r}')


def build_initial(cfg: ExperimentConfig, grid: Grid) -> tuple:
    i = cfg.initial or InitialSpec()
    try:
        if i.kind == "zero":
            return zero_pair(grid)
        if i.kind == "gaussian":
            return gaussian_pair(grid, eps=i.eps, width=i.width, ratio=i.ratio, center=i.center)
        if i.kind == "single-mode":
            return single_mode_pair(grid, i.mode, amp_eta=i.amp_eta, amp_u=i.amp_u, phase=i.phase)
        if i.kind == "random":
            return random_bandlimited_pair(grid, cfg.seed, eps=i.eps, kmax_fraction=i.kmax_fraction)
    except ValueError as exc:
        raise ConfigError(f"invalid initial data: {exc}") from exc
    raise ConfigError(f'bad value for "kind" in [initial]: {i.kind!r}')


def build_sim_config(cfg: ExperimentConfig) -> SimConfig:
    grid = build_grid(cfg)
    bathy = build_bathymetry(cfg)
    eta0, u0 = build_initial(cfg, grid)
    t = cfg.time
    d = cfg.diag or DiagSpec()
    try:
        return SimConfig(
            params=cfg.params,
            bathymetry=bathy,
            grid=grid,
            eta0=eta0,
            u0=u0,
            dt=t.dt,
            t_end=t.t_end,
            t_start=t.t_start,
            snapshot_every=t.snapshot_every,
            alpha=d.alpha,
            cfl_factor=t.cfl_factor,
            blowup_factor=t.blowup_factor,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid run setup: {exc}") from exc
