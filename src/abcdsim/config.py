"""Experiment configuration: INI parsing, validation, normalization.

The config format is flat key = value sections.  The spec dataclasses
below are the schema: a section is a spec, a key is one of its fields,
the field's annotation (float, int, bool, str) converts the value, and a
field with no default is required, as is any section with such a field.
metadata["choices"] lists the allowed strings of a key; for the bottom
preset and the initial-data kind those are the keys of the builder
dispatch tables.  parse_config returns a typed ExperimentConfig;
normal_form re-serializes it to a canonical text whose parse compares
equal (round-trip property).  Half-lengths accept "200*pi" style values
since boxes are sized in multiples of pi.
"""

import configparser
import math
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

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
from .weights import T_MIN

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
    "build_region_axes",
    "FLOAT_FORMAT",
    "fmt_float",
    "fmt_value",
]

OUT_ROOT_ENV = "ABCDSIM_OUT_ROOT"
FLOAT_FORMAT = "{:.17g}"  # frozen float text of every emitted artifact: 17 significant digits

# [bathymetry] preset -> bottom factory
BATHY_PRESETS = {
    "flat": lambda b: flat_bottom(),
    "decaying-bump": lambda b: decaying_bump(b.amplitude, width=b.width, center=b.center, t0=b.t0),
    "smooth-switch": lambda b: smooth_switch_bump(b.amplitude, width=b.width, center=b.center,
                                                  t_on=b.t_on, t_off=b.t_off),
    "traveling-ripple": lambda b: traveling_ripple(b.amplitude, width=b.width, k0=b.k0,
                                                   center=b.center, t0=b.t0),
    "static-bump": lambda b: static_bump(b.amplitude, width=b.width, center=b.center),
}

# [initial] kind -> (eta0, u0) factory
INITIAL_KINDS = {
    "gaussian": lambda i, grid, seed: gaussian_pair(grid, eps=i.eps, width=i.width,
                                                    ratio=i.ratio, center=i.center),
    "single-mode": lambda i, grid, seed: single_mode_pair(grid, i.mode, amp_eta=i.amp_eta,
                                                          amp_u=i.amp_u, phase=i.phase),
    "random": lambda i, grid, seed: random_bandlimited_pair(grid, seed, eps=i.eps,
                                                            kmax_fraction=i.kmax_fraction),
    "zero": lambda i, grid, seed: zero_pair(grid),
}

# experiment kind -> the sections it reads, by ExperimentConfig attribute
_RUN_SECTIONS = ("params", "grid", "bathy", "initial", "time", "diag")
KIND_SECTIONS = {
    "identity-suite": _RUN_SECTIONS,
    "decay-run": _RUN_SECTIONS,
    "region-map": ("region",),
    "hypothesis-audit": ("grid", "bathy", "audit"),
}


class ConfigError(ValueError):
    """Schema violation; the message names the offending field."""


def fmt_float(x: float) -> str:
    """Frozen float formatting for all emitted artifacts (FLOAT_FORMAT)."""
    return FLOAT_FORMAT.format(float(x))


def fmt_value(v) -> str:
    """Frozen text of one config value: true/false for a bool, fmt_float
    for a float, str otherwise (the CSV writer follows the same rules)."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt_float(v)
    return str(v)


def _parse_length(text: str) -> float:
    s = text.strip().lower().replace(" ", "")
    if s == "pi":
        return math.pi
    if s.endswith("*pi"):
        return float(s[:-3]) * math.pi
    return float(s)


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(text) from None


def _choices(allowed, default=MISSING):
    return field(default=default, metadata={"choices": allowed})


@dataclass(frozen=True)
class GridSpec:
    half_length: float = field(metadata={"parse": _parse_length})
    n: int


@dataclass(frozen=True)
class BathySpec:
    preset: str = _choices(BATHY_PRESETS, "flat")
    amplitude: float = 0.0
    width: float = 1.0
    center: float = 0.0
    t0: float = 0.0
    k0: float = 1.0
    t_on: float = 1.0
    t_off: float = 2.0


@dataclass(frozen=True)
class InitialSpec:
    kind: str = _choices(INITIAL_KINDS, "zero")
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
    weight_mode: str = _choices(("fixed", "schedule"), "fixed")
    fixed_lambda: float = 10.0
    residual_threshold: float = 1e-6

    def __post_init__(self):
        # a NaN alpha or threshold fails every check, and an infinite window
        # (phi = 0) or threshold passes every check vacuously
        if not math.isfinite(self.alpha):
            raise ConfigError('bad value for "alpha" in [diagnostics]: must be finite')
        for key in ("fixed_lambda", "residual_threshold"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ConfigError(f'bad value for "{key}" in [diagnostics]: must be positive and finite')


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

    def __post_init__(self):
        # a horizon or a bound that is not positive leaves no verdict to report
        for key in ("t_max", "eps", "c_const"):
            if not getattr(self, key) > 0.0:
                raise ConfigError(f'bad value for "{key}" in [audit]: must be positive')


def _section(name: str):
    return field(default=None, metadata={"section": name})


@dataclass(frozen=True)
class ExperimentConfig:
    """The [experiment] keys, then one spec per section (None where the kind reads none)."""

    kind: str = _choices(KIND_SECTIONS)
    output_dir: str
    seed: int = 0
    params: AbcdParams | None = _section("params")
    grid: GridSpec | None = _section("grid")
    bathy: BathySpec | None = _section("bathymetry")
    initial: InitialSpec | None = _section("initial")
    time: TimeSpec | None = _section("time")
    diag: DiagSpec | None = _section("diagnostics")
    region: RegionSpec | None = _section("region")
    audit: AuditSpec | None = _section("audit")


# [params] is read in one of two modes, each with its own keys; a physical
# b of None is inferred from (theta, lambda_p)
PARAM_MODES = {
    "direct": (("a", float, MISSING, {}), ("c", float, MISSING, {}),
               ("a1", float, 0.0, {}), ("c1", float, 0.0, {})),
    "physical": (("theta", float, MISSING, {}), ("lambda_p", float, MISSING, {}),
                 ("mu_p", float, MISSING, {}), ("b", float, None, {})),
}
_PARAM_MODE_KEY = ("mode", str, "direct", {"choices": PARAM_MODES})

# (kind, section attribute) -> defaults that replace the spec's: decay runs use the moving window
KIND_DEFAULTS = {("decay-run", "diag"): {"weight_mode": "schedule"}}


def _keys(spec) -> list:
    """The (key, type, default, metadata) of each field of a spec that is a key."""
    return [(f.name, f.type, f.default, f.metadata) for f in fields(spec) if "section" not in f.metadata]


# -- parsing -------------------------------------------------------------

def _read(cp: configparser.ConfigParser, known: dict, section: str, keys, defaults=None) -> dict:
    """Values of the given keys in one section, which are added to `known`
    (section -> keys read); `defaults` replaces declared defaults."""
    known.setdefault(section, set()).update(k[0] for k in keys)
    defaults = defaults or {}
    if not cp.has_section(section) and any(default is MISSING for _, _, default, _ in keys):
        raise ConfigError(f'missing section "[{section}]"')
    values = {}
    # choices first: an invalid one is the error to report even if a later key is bad too
    for key, type_, default, meta in sorted(keys, key=lambda k: "choices" not in k[3]):
        raw = cp.get(section, key, fallback=None)
        if raw is None:
            values[key] = defaults.get(key, default)
            if values[key] is MISSING:
                raise ConfigError(f'missing required field "{key}" in [{section}]')
            continue
        raw = raw.strip()
        allowed = meta.get("choices")
        if allowed is not None and raw not in allowed:
            raise ConfigError(
                f'bad value for "{key}" in [{section}]: {raw!r} (allowed: {", ".join(allowed)})'
            )
        convert = meta.get("parse") or (_parse_bool if type_ is bool else type_)
        try:
            values[key] = convert(raw)
        except ValueError as exc:
            raise ConfigError(f'bad value for "{key}" in [{section}]: {raw!r}') from exc
    return values


def _params(cp: configparser.ConfigParser, known: dict) -> AbcdParams:
    mode = _read(cp, known, "params", [_PARAM_MODE_KEY])["mode"]
    v = _read(cp, known, "params", PARAM_MODES[mode])
    if mode == "direct":
        return AbcdParams(**v)
    if v["b"] is None:
        v["b"] = 0.5 * (v["theta"] ** 2 - 1.0 / 3.0) * (1.0 - v["lambda_p"])
    try:
        return params_from_physical(**v)
    except ValueError as exc:
        raise ConfigError(f"invalid physical parameters in [params]: {exc}") from exc


def parse_config_text(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc

    known: dict = {}
    ec = _read(cp, known, "experiment", _keys(ExperimentConfig))
    kind = ec["kind"]
    for f in fields(ExperimentConfig):
        if f.name not in KIND_SECTIONS[kind]:
            continue
        if f.name == "params":
            ec["params"] = _params(cp, known)
            continue
        spec = f.type.__args__[0]  # the class in `Spec | None`
        values = _read(cp, known, f.metadata["section"], _keys(spec), KIND_DEFAULTS.get((kind, f.name)))
        ec[f.name] = spec(**values)
    # a key nobody reads would be silently ignored (a typo keeps the default)
    for name in cp.sections():
        if name not in known:
            raise ConfigError(f'unknown section "[{name}]" for kind "{kind}"')
        for key in cp.options(name):
            if key not in known[name]:
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
    lines += [f"{key} = {fmt_value(val)}" for key, val in pairs]
    lines.append("")


def _pairs(obj, keys) -> list:
    return [(key, getattr(obj, key)) for key, *_ in keys]


def normal_form(cfg: ExperimentConfig) -> str:
    """Canonical re-serialization; parsing it yields an equal config."""
    lines: list = []
    _emit(lines, "experiment", _pairs(cfg, _keys(ExperimentConfig)))
    for f in fields(ExperimentConfig):
        spec = getattr(cfg, f.name)
        if "section" not in f.metadata or spec is None:
            continue
        if f.name == "params":
            pairs = [("mode", spec.origin)] + _pairs(spec, PARAM_MODES[spec.origin])
        else:
            pairs = _pairs(spec, _keys(spec))
        _emit(lines, f.metadata["section"], pairs)
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
        return BATHY_PRESETS[b.preset](b)
    except ValueError as exc:
        raise ConfigError(f"invalid bathymetry: {exc}") from exc


def build_initial(cfg: ExperimentConfig, grid: Grid) -> tuple:
    i = cfg.initial or InitialSpec()
    try:
        return INITIAL_KINDS[i.kind](i, grid, cfg.seed)
    except ValueError as exc:
        raise ConfigError(f"invalid initial data: {exc}") from exc


def build_sim_config(cfg: ExperimentConfig) -> SimConfig:
    grid = build_grid(cfg)
    bathy = build_bathymetry(cfg)
    eta0, u0 = build_initial(cfg, grid)
    t = cfg.time
    try:
        sim = SimConfig(
            params=cfg.params,
            bathymetry=bathy,
            grid=grid,
            eta0=eta0,
            u0=u0,
            dt=t.dt,
            t_end=t.t_end,
            t_start=t.t_start,
            snapshot_every=t.snapshot_every,
            cfl_factor=t.cfl_factor,
            blowup_factor=t.blowup_factor,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid run setup: {exc}") from exc
    if cfg.kind == "identity-suite" and (cfg.diag or DiagSpec()).weight_mode == "schedule":
        # the rate checks need 5 snapshots where the scheduled window is defined
        late = sum(t.t_start + n * t.dt >= T_MIN for n in sim.snapshot_steps())
        if late < 5:
            raise ConfigError(f'bad value for "t_start" in [time]: a scheduled identity suite needs '
                              f"5 snapshots at t >= {T_MIN}, this run has {late}")
    return sim


def build_region_axes(cfg: ExperimentConfig) -> tuple:
    """The a and c values of the region map's cells, from a_min to a_max (c_min to c_max).

    A [region] value the sweep cannot use is a ConfigError naming its key:
    b and step must be positive, and an empty range would sweep no cell.
    """
    r = cfg.region
    for key, bad, rule in (("step", not r.step > 0.0, "must be positive"),
                           ("b", not r.b > 0.0, "must be positive"),
                           ("a_max", not r.a_max >= r.a_min, "must not be below a_min"),
                           ("c_max", not r.c_max >= r.c_min, "must not be below c_min")):
        if bad:
            raise ConfigError(f'bad value for "{key}" in [region]: {rule}')
    return (np.arange(r.a_min, r.a_max + 0.5 * r.step, r.step),
            np.arange(r.c_min, r.c_max + 0.5 * r.step, r.step))
