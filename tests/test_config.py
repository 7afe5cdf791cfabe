"""INI experiment configs: parsing, canonical form, builders."""

import configparser
import io
import math
import os
import typing
from dataclasses import fields

import numpy as np
import pytest

from abcdsim import AbcdParams, Grid, SimConfig
from abcdsim.config import (
    PARAM_MODES,
    AuditSpec,
    BathySpec,
    ConfigError,
    DiagSpec,
    ExperimentConfig,
    GridSpec,
    InitialSpec,
    RegionSpec,
    TimeSpec,
    build_bathymetry,
    build_grid,
    build_initial,
    build_sim_config,
    fmt_float,
    normal_form,
    parse_config,
    parse_config_text,
    resolve_output_dir,
)

RUN_TEXT = """
[experiment]
kind = identity-suite
output_dir = out/demo
seed = 7

[params]
a = -1.0
c = -1.0
a1 = 0.3
c1 = 0.56

[grid]
half_length = 40*pi
n = 256

[bathymetry]
preset = decaying-bump
amplitude = 1e-3
width = 2.0

[initial]
kind = gaussian
eps = 0.01
width = 5.0

[time]
dt = 0.001
t_end = 0.05
snapshot_every = 5

[diagnostics]
alpha = 0.5
weight_mode = fixed
fixed_lambda = 10.0
"""

REGION_TEXT = (
    "[experiment]\nkind = region-map\noutput_dir = maps\n"
    "[region]\na_min = -1\na_max = -0.1\nc_min = -1\nc_max = -0.1\nstep = 0.05\n"
)

AUDIT_TEXT = (
    "[experiment]\nkind = hypothesis-audit\noutput_dir = o\n"
    "[grid]\nhalf_length = 40*pi\nn = 256\n"
    "[bathymetry]\npreset = static-bump\namplitude = 1e-3\n"
    "[audit]\nt_max = 100\neps = 1e-3\nc_const = 8\n"
)

RUN_NORMAL_FORM = """\
[experiment]
kind = identity-suite
output_dir = out/demo
seed = 7

[params]
mode = direct
a = -1
c = -1
a1 = 0.29999999999999999
c1 = 0.56000000000000005

[grid]
half_length = 125.66370614359172
n = 256

[bathymetry]
preset = decaying-bump
amplitude = 0.001
width = 2
center = 0
t0 = 0
k0 = 1
t_on = 1
t_off = 2

[initial]
kind = gaussian
eps = 0.01
width = 5
ratio = 1
center = 0
mode = 1
amp_eta = 0
amp_u = 0
phase = 0
kmax_fraction = 0.5

[time]
dt = 0.001
t_end = 0.050000000000000003
t_start = 0
snapshot_every = 5
cfl_factor = 0.5
blowup_factor = 10

[diagnostics]
alpha = 0.5
weight_mode = fixed
fixed_lambda = 10
residual_threshold = 9.9999999999999995e-07
"""


def _schema_keys():
    """(attribute, section, field, base config) for every key of every spec."""
    base_of = {"region": REGION_TEXT, "audit": AUDIT_TEXT}
    out = [pytest.param(None, "experiment", f, RUN_TEXT, id=f"experiment.{f.name}")
           for f in fields(ExperimentConfig) if "section" not in f.metadata]
    for sf in fields(ExperimentConfig):
        section = sf.metadata.get("section")
        if section is None or sf.name == "params":  # [params] has two modes, tested apart
            continue
        for f in fields(typing.get_args(sf.type)[0]):
            out.append(pytest.param(sf.name, section, f, base_of.get(section, RUN_TEXT),
                                    id=f"{section}.{f.name}"))
    return out


def _with_key(text, section, key, value):
    cp = configparser.ConfigParser()
    cp.read_string(text)
    if isinstance(value, bool):
        value = "true" if value else "false"
    cp.set(section, key, repr(value) if isinstance(value, float) else str(value))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


class TestParsing:
    def test_full_run_config(self):
        cfg = parse_config_text(RUN_TEXT)
        assert cfg.kind == "identity-suite"
        assert cfg.output_dir == "out/demo"
        assert cfg.seed == 7
        assert cfg.params == AbcdParams(a=-1.0, c=-1.0, a1=0.3, c1=0.56)
        assert cfg.grid == GridSpec(half_length=40 * math.pi, n=256)
        assert cfg.bathy.preset == "decaying-bump"
        assert cfg.bathy.amplitude == 1e-3
        assert cfg.initial.kind == "gaussian"
        assert cfg.time == TimeSpec(dt=1e-3, t_end=0.05, snapshot_every=5)
        assert cfg.diag == DiagSpec(alpha=0.5, weight_mode="fixed", fixed_lambda=10.0)
        assert cfg.region is None and cfg.audit is None

    def test_pi_lengths(self):
        for text, want in (("pi", math.pi), ("200*pi", 200 * math.pi),
                           ("0.5 * pi", 0.5 * math.pi), ("7.5", 7.5)):
            cfg = parse_config_text(
                "[experiment]\nkind = hypothesis-audit\noutput_dir = o\n"
                f"[grid]\nhalf_length = {text}\nn = 64\n"
                "[bathymetry]\npreset = flat\n[audit]\nt_max = 10\neps = 1e-3\n"
            )
            assert cfg.grid.half_length == pytest.approx(want, rel=1e-15)

    def test_optional_sections_default(self):
        text = (
            "[experiment]\nkind = decay-run\noutput_dir = o\n"
            "[params]\na = -1\nc = -1\n"
            "[grid]\nhalf_length = pi\nn = 64\n"
            "[time]\ndt = 0.01\nt_end = 1\n"
        )
        cfg = parse_config_text(text)
        assert cfg.bathy == BathySpec()  # flat
        assert cfg.initial == InitialSpec()  # zero
        # decay runs default to the scheduled moving window
        assert cfg.diag.weight_mode == "schedule"
        assert cfg.seed == 0

    def test_physical_parameter_mode(self):
        theta = math.sqrt(0.6)
        text = (
            "[experiment]\nkind = identity-suite\noutput_dir = o\n"
            f"[params]\nmode = physical\ntheta = {theta!r}\nlambda_p = -2\nmu_p = -1\n"
            "[grid]\nhalf_length = pi\nn = 64\n"
            "[time]\ndt = 0.01\nt_end = 1\n"
        )
        cfg = parse_config_text(text)
        # b was left out, inferred from (theta, lambda_p)
        assert cfg.params.b == pytest.approx(0.4, rel=1e-14)
        assert cfg.params.a == pytest.approx(-2.0 / 3.0, rel=1e-13)
        assert cfg.params.c == pytest.approx(-0.5, rel=1e-13)
        assert cfg.params.origin == "physical"

    def test_region_map_config(self):
        text = (
            "[experiment]\nkind = region-map\noutput_dir = o\nseed = 1\n"
            "[region]\na_min = -1\na_max = -0.1\nc_min = -1\nc_max = -0.1\n"
            "step = 0.1\nwith_alpha = false\n"
        )
        cfg = parse_config_text(text)
        assert cfg.region == RegionSpec(a_min=-1.0, a_max=-0.1, c_min=-1.0,
                                        c_max=-0.1, step=0.1, with_alpha=False)
        assert cfg.params is None and cfg.time is None

    def test_audit_config(self):
        text = (
            "[experiment]\nkind = hypothesis-audit\noutput_dir = o\n"
            "[grid]\nhalf_length = 40*pi\nn = 256\n"
            "[bathymetry]\npreset = decaying-bump\namplitude = 1e-3\nwidth = 2\n"
            "[audit]\nt_max = 50\neps = 1e-3\nc_const = 8\n"
        )
        cfg = parse_config_text(text)
        assert cfg.audit == AuditSpec(t_max=50.0, eps=1e-3, c_const=8.0)

    def test_inline_comments(self):
        cfg = parse_config_text(RUN_TEXT.replace("dt = 0.001", "dt = 0.001  # step"))
        assert cfg.time.dt == 1e-3


class TestParseErrors:
    def _expect(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config_text(text)

    def test_error_catalog(self):
        head = "[experiment]\nkind = identity-suite\noutput_dir = o\n"
        full_head = head + "[params]\na = -1\nc = -1\n[grid]\nhalf_length = pi\nn = 64\n"
        self._expect("just text, no sections", "unparseable")
        self._expect("[grid]\nn = 4\n", r"\[experiment\]")
        self._expect("[experiment]\noutput_dir = o\n", '"kind"')
        self._expect("[experiment]\nkind = warp\noutput_dir = o\n", "allowed")
        self._expect("[experiment]\nkind = identity-suite\n", "output_dir")
        self._expect(head, r"\[params\]")
        self._expect(head + "[params]\na = -1\n", '"c"')
        self._expect(full_head, r"\[time\]")
        self._expect(full_head + "[time]\nt_end = 1\n", '"dt"')
        self._expect(full_head + "[time]\ndt = x\nt_end = 1\n", '"dt"')
        self._expect(
            full_head + "[bathymetry]\npreset = cliff\n[time]\ndt = 0.01\nt_end = 1\n",
            "preset",
        )
        self._expect(
            full_head + "[initial]\nkind = soliton\n[time]\ndt = 0.01\nt_end = 1\n",
            "kind",
        )
        self._expect(
            "[experiment]\nkind = region-map\noutput_dir = o\n"
            "[region]\na_min = -1\na_max = 0\nc_min = -1\nc_max = 0\nstep = 0.5\n"
            "with_alpha = maybe\n",
            "with_alpha",
        )
        run_head = full_head + "[time]\ndt = 0.01\nt_end = 1\n[diagnostics]\n"
        for key, value in (("fixed_lambda", "0"), ("fixed_lambda", "-10"), ("fixed_lambda", "inf"),
                           ("residual_threshold", "nan"), ("residual_threshold", "-1"),
                           ("residual_threshold", "inf"), ("alpha", "nan")):
            self._expect(run_head + f"{key} = {value}\n", rf'"{key}" in \[diagnostics\]')

    def test_bad_physical_parameters_are_config_errors(self):
        text = (
            "[experiment]\nkind = identity-suite\noutput_dir = o\n"
            "[params]\nmode = physical\ntheta = 0\nlambda_p = 1\nmu_p = 0\n"
            "[grid]\nhalf_length = pi\nn = 64\n[time]\ndt = 0.01\nt_end = 1\n"
        )
        with pytest.raises(ConfigError, match="physical"):
            parse_config_text(text)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(str(tmp_path / "nope.ini"))

    @pytest.mark.parametrize("section, line", [
        ("diagnostics", "residual_treshold = 1e-30"),
        ("time", "snapshot_evry = 5"),
        ("diagnostics", "checkpoint_every = 10"),  # removed option
    ])
    def test_unread_keys_are_rejected(self, section, line):
        # a typo must not fall back to the default (1e-6, every step)
        text = RUN_TEXT.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        key = line.split(" = ")[0]
        self._expect(text, rf'unknown key "{key}" in \[{section}\]')

    def test_unknown_sections_are_rejected(self):
        self._expect(RUN_TEXT + "[diagnostic]\nalpha = 0.3\n", r'unknown section "\[diagnostic\]"')
        region = ("[experiment]\nkind = region-map\noutput_dir = o\n"
                  "[region]\na_min = -1\na_max = 0\nc_min = -1\nc_max = 0\nstep = 0.5\n")
        self._expect(region + "[time]\ndt = 0.1\n", r'unknown section "\[time\]" for kind "region-map"')

    def test_direct_coefficients_rejected_in_physical_mode(self):
        # physical mode derives a, c, a1, c1; a given one would be ignored
        text = (
            "[experiment]\nkind = identity-suite\noutput_dir = o\n"
            "[params]\nmode = physical\ntheta = 0.7745966692414834\nlambda_p = -2\nmu_p = -1\na = -1\n"
            "[grid]\nhalf_length = pi\nn = 64\n[time]\ndt = 0.01\nt_end = 1\n"
        )
        self._expect(text, r'unknown key "a" in \[params\]')


class TestNormalForm:
    CONFIGS = [
        RUN_TEXT,
        REGION_TEXT,
        AUDIT_TEXT,
        "[experiment]\nkind = decay-run\noutput_dir = o\n"
        "[params]\nmode = physical\ntheta = 0.774596669241483\nlambda_p = -2\nmu_p = -1\nb = 0.4\n"
        "[grid]\nhalf_length = 200*pi\nn = 512\n"
        "[time]\ndt = 0.05\nt_start = 11\nt_end = 13\n",
    ]

    @pytest.mark.parametrize("idx", range(len(CONFIGS)))
    def test_round_trip_equality(self, idx):
        cfg = parse_config_text(self.CONFIGS[idx])
        again = parse_config_text(normal_form(cfg))
        assert again == cfg

    @pytest.mark.parametrize("idx", range(len(CONFIGS)))
    def test_idempotent_bytes(self, idx):
        cfg = parse_config_text(self.CONFIGS[idx])
        nf = normal_form(cfg)
        assert normal_form(parse_config_text(nf)) == nf

    def test_pinned_text(self):
        # key order and float formatting are part of the format, not only the round trip
        assert normal_form(parse_config_text(RUN_TEXT)) == RUN_NORMAL_FORM

    @pytest.mark.parametrize("attr, section, f, base", _schema_keys())
    def test_every_key_is_read_and_written(self, attr, section, f, base):
        # each spec field is a key: a non-default value survives parse -> normal_form -> parse
        def holder(cfg):
            return cfg if attr is None else getattr(cfg, attr)

        current = getattr(holder(parse_config_text(base)), f.name)
        if "choices" in f.metadata:
            value = next(c for c in f.metadata["choices"] if c not in (f.default, current))
        else:
            value = {float: 0.375, int: 3, bool: not f.default, str: "elsewhere"}[f.type]
        cfg = parse_config_text(_with_key(base, section, f.name, value))
        assert getattr(holder(cfg), f.name) == value
        assert parse_config_text(normal_form(cfg)) == cfg

    @pytest.mark.parametrize("mode, values", [
        ("direct", {"a": -0.75, "c": -0.5, "a1": 0.25, "c1": 0.125}),
        ("physical", {"theta": math.sqrt(0.5), "lambda_p": -5.0, "mu_p": -1.0, "b": 0.5}),
    ])
    def test_both_param_modes_are_read_and_written(self, mode, values):
        assert set(values) == {key for key, *_ in PARAM_MODES[mode]}
        text = RUN_TEXT.replace("a = -1.0\nc = -1.0\na1 = 0.3\nc1 = 0.56\n", f"mode = {mode}\n")
        for key, value in values.items():
            text = _with_key(text, "params", key, value)
        cfg = parse_config_text(text)
        assert cfg.params.origin == mode
        for key, value in values.items():
            assert getattr(cfg.params, key) == pytest.approx(value, rel=1e-12)
        assert parse_config_text(normal_form(cfg)) == cfg

    def test_fmt_float_precision(self):
        # 17 significant digits reproduce any double exactly
        for x in (math.pi, 1e-3, 2.0 / 3.0, 123456.789):
            assert float(fmt_float(x)) == x


class TestOutputDir:
    def test_env_root_prefixes_relative(self, monkeypatch, tmp_path):
        cfg = parse_config_text(RUN_TEXT)
        monkeypatch.setenv("ABCDSIM_OUT_ROOT", str(tmp_path))
        assert resolve_output_dir(cfg) == os.path.join(str(tmp_path), "out/demo")

    def test_env_root_leaves_absolute(self, monkeypatch):
        cfg = parse_config_text(RUN_TEXT.replace("out/demo", "/abs/path"))
        monkeypatch.setenv("ABCDSIM_OUT_ROOT", "/elsewhere")
        assert resolve_output_dir(cfg) == "/abs/path"

    def test_no_env_passthrough(self, monkeypatch):
        monkeypatch.delenv("ABCDSIM_OUT_ROOT", raising=False)
        cfg = parse_config_text(RUN_TEXT)
        assert resolve_output_dir(cfg) == "out/demo"


class TestBuilders:
    def test_build_sim_config_threads_fields(self):
        cfg = parse_config_text(RUN_TEXT)
        sim = build_sim_config(cfg)
        assert isinstance(sim, SimConfig)
        assert sim.grid.N == 256
        assert sim.dt == 1e-3 and sim.t_end == 0.05
        assert sim.snapshot_every == 5
        assert sim.bathymetry.preset == "decaying-bump"
        # gaussian surface bump of size eps
        assert np.max(np.abs(sim.eta0)) == pytest.approx(0.01)

    def test_build_each_initial_kind(self):
        g = Grid(math.pi, 64)
        base = parse_config_text(RUN_TEXT)
        for kind, check in (
            ("zero", lambda e, u: not np.any(e) and not np.any(u)),
            ("gaussian", lambda e, u: np.max(e) > 0),
            ("random", lambda e, u: np.max(np.abs(e)) > 0),
        ):
            cfg = ExperimentConfig(
                kind=base.kind, output_dir="o", seed=3,
                initial=InitialSpec(kind=kind, eps=1e-2, mode=3),
            )
            eta, u = build_initial(cfg, g)
            assert check(eta, u), kind

    def test_build_bathymetry_presets(self):
        for preset in ("flat", "decaying-bump", "smooth-switch", "traveling-ripple", "static-bump"):
            cfg = ExperimentConfig(
                kind="identity-suite", output_dir="o", seed=0,
                bathy=BathySpec(preset=preset, amplitude=1e-3, t_on=1.0, t_off=2.0),
            )
            b = build_bathymetry(cfg)
            assert b.preset == preset

    @pytest.mark.parametrize("kind, mode, t_start, t_end, every, late", [
        ("identity-suite", "schedule", 0.0, 11.1, 2, 2),    # 11.0 and 11.1
        ("identity-suite", "schedule", 0.0, 10.0, 2, 0),    # the window is never defined
        ("identity-suite", "schedule", 0.0, 12.3, 10, 4),   # 11, 11.5, 12 and the last, 12.3
        ("identity-suite", "schedule", 11.05, 11.2, 1, 4),  # one short
        ("identity-suite", "schedule", 11.0, 11.2, 1, 5),   # just enough
        ("identity-suite", "schedule", 0.0, 12.0, 2, 11),
        ("identity-suite", "fixed", 0.0, 1.0, 2, None),     # a fixed window is defined throughout
        ("decay-run", "schedule", 0.0, 1.0, 2, None),       # a decay run checks no rate
    ])
    def test_scheduled_identity_suite_needs_five_snapshots_from_t_min(self, kind, mode, t_start,
                                                                     t_end, every, late):
        base = parse_config_text(RUN_TEXT)
        cfg = ExperimentConfig(
            kind=kind, output_dir="o", seed=0, params=base.params, grid=base.grid,
            bathy=base.bathy, initial=base.initial, diag=DiagSpec(weight_mode=mode),
            time=TimeSpec(dt=0.05, t_start=t_start, t_end=t_end, snapshot_every=every),
        )
        if late is not None and late < 5:
            with pytest.raises(ConfigError, match=rf'"t_start" in \[time\].* this run has {late}$'):
                build_sim_config(cfg)
        else:
            assert build_sim_config(cfg).t_end == t_end

    def test_builder_errors_become_config_errors(self):
        bad_grid = ExperimentConfig(kind="identity-suite", output_dir="o", seed=0,
                                    grid=GridSpec(half_length=math.pi, n=63))
        with pytest.raises(ConfigError, match="grid"):
            build_grid(bad_grid)
        cfg = parse_config_text(RUN_TEXT.replace("dt = 0.001", "dt = 0"))
        with pytest.raises(ConfigError, match="run setup"):
            build_sim_config(cfg)
