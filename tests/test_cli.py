"""End-to-end command-line runs on small grids."""

import json
import math
import os

import numpy as np
import pytest

from abcdsim.classifier import REFINED_SPLIT, find_admissible_alpha, satisfies_refined_dispersion
from abcdsim.cli import main
from abcdsim.config import fmt_float
from test_classifier import _full_scan

IDENTITY_TEXT = """
[experiment]
kind = identity-suite
output_dir = {out}
seed = 3

[params]
a = -1.0
c = -1.0
a1 = 0.3
c1 = 0.56

[grid]
half_length = 40*pi
n = 128

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
t_end = 0.06
snapshot_every = 2

[diagnostics]
alpha = 0.5
weight_mode = fixed
fixed_lambda = 10.0
residual_threshold = 1e-6
"""

OUT_OF_REGION_DECAY_TEXT = """
[experiment]
kind = decay-run
output_dir = {out}
seed = 5

[params]
a = -0.020833333333333332
c = -0.020833333333333332

[grid]
half_length = 40*pi
n = 128

[initial]
kind = gaussian
eps = 0.01
width = 5.0

[time]
dt = 0.001
t_start = 11.0
t_end = 11.05
snapshot_every = 2
"""

REGION_TEXT = """
[experiment]
kind = region-map
output_dir = {out}

[region]
a_min = -1.0
a_max = -0.5
c_min = -1.0
c_max = -0.5
step = 0.5
with_alpha = true
"""

AUDIT_TEXT = """
[experiment]
kind = hypothesis-audit
output_dir = {out}

[grid]
half_length = 40*pi
n = 256

[bathymetry]
preset = {preset}
amplitude = 1e-3
width = 1.0

[audit]
t_max = 50.0
eps = 1e-3
c_const = 8.0
"""


def _region_text(**values):
    """REGION_TEXT with the given [region] keys set (appended when absent)."""
    lines = [line for line in REGION_TEXT.split("\n") if line.split(" = ")[0] not in values]
    return "\n".join(lines) + "".join(f"{key} = {value!r}\n" for key, value in values.items())


def _write_cfg(tmp_path, text, name="exp.ini", **fmt):
    path = tmp_path / name
    path.write_text(text.format(**fmt))
    return str(path)


class TestIdentitySuite:
    def test_passes_and_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = _write_cfg(tmp_path, IDENTITY_TEXT, out=out)
        assert main(["run", cfg]) == 0
        assert "pass" in capsys.readouterr().out
        for name in ("summary.json", "diagnostics.csv", "initial_state.csv",
                     "final_state.csv", "plot_diagnostics.py"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["flags"]["residuals_ok"] is True
        assert summary["n_snapshots"] == 31
        worst = max(v for v in summary["residual_maxima"].values() if v is not None)
        assert worst < 1e-6
        # diagnostics.csv parses and has one row per snapshot
        lines = (out / "diagnostics.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + summary["n_snapshots"]

    def test_check_that_did_not_run_fails_the_suite(self, tmp_path, capsys):
        # the scheduled window is undefined before t = 11, so the I, J and
        # local-energy series start with NaN and their FD checks cannot run
        text = (IDENTITY_TEXT.replace("t_end = 0.06", "t_end = 12.0")
                .replace("dt = 0.001", "dt = 0.05")
                .replace("weight_mode = fixed", "weight_mode = schedule"))
        out = tmp_path / "sched"
        cfg = _write_cfg(tmp_path, text, out=out)
        assert main(["run", cfg]) == 3
        stdout = capsys.readouterr().out
        assert "no finite value for virial_i_rate, virial_j_rate, local_energy_rate -> FAIL" in stdout
        summary = json.loads((out / "summary.json").read_text())
        assert summary["flags"] == {"residuals_ok": False}
        assert "virial_i_rate" not in summary["residual_maxima"]
        # the checks that did run are still reported, and passed
        assert summary["residual_maxima"]["hamiltonian_rate"] < 1e-6
        assert summary["residual_maxima"]["decomposition"] < 1e-6

    def test_artifacts_are_byte_deterministic(self, tmp_path):
        texts = {}
        for tag in ("one", "two"):
            out = tmp_path / tag
            cfg = _write_cfg(tmp_path, IDENTITY_TEXT, name=f"{tag}.ini", out=out)
            assert main(["run", cfg]) == 0
            texts[tag] = {
                name: (out / name).read_bytes()
                for name in ("summary.json", "diagnostics.csv", "final_state.csv")
            }
        # identical physics, different directories: identical bytes except
        # nothing, since no paths or clocks are embedded
        for name in texts["one"]:
            assert texts["one"][name] == texts["two"][name], name


class TestDecayRun:
    def test_out_of_region_reports_without_asserting(self, tmp_path, capsys):
        out = tmp_path / "decay"
        cfg = _write_cfg(tmp_path, OUT_OF_REGION_DECAY_TEXT, out=out)
        assert main(["run", cfg]) == 0
        assert "out-of-region" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["out_of_region"] is True
        assert summary["flags"] == {"out_of_region": True}
        assert summary["region"]["accepted"] is False
        # metrics still present for inspection
        assert set(summary["observed"]) >= {"bounded", "windowed_final_ok"}

    def test_report_regenerates_from_artifacts(self, tmp_path, capsys):
        out = tmp_path / "decay"
        cfg = _write_cfg(tmp_path, OUT_OF_REGION_DECAY_TEXT, out=out)
        assert main(["run", cfg]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "out-of-region" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["out_of_region"] is True
        assert report["n_snapshots"] == json.loads((out / "summary.json").read_text())["n_snapshots"]

    def test_in_region_short_run_fails_decay_gate(self, tmp_path, capsys):
        # too short for the windowed norm to drop: the honest outcome is
        # an acceptance failure, not a pass
        text = OUT_OF_REGION_DECAY_TEXT.replace("-0.020833333333333332", "-1.0")
        out = tmp_path / "decay"
        cfg = _write_cfg(tmp_path, text, out=out)
        assert main(["run", cfg]) == 3
        assert "FAIL" in capsys.readouterr().out


class TestRegionMap:
    def test_rows_match_classifier(self, tmp_path):
        out = tmp_path / "map"
        cfg = _write_cfg(tmp_path, REGION_TEXT, out=out)
        assert main(["region-map", cfg]) == 0
        lines = (out / "region_map.csv").read_text().strip().split("\n")
        assert lines[0] == "a,c,accepted,branch,margin,alpha_if_any"
        assert len(lines) == 1 + 4  # 2 x 2 cells
        for line in lines[1:]:
            a_s, c_s, acc_s, branch, margin_s, alpha_s = line.split(",")
            a, c = float(a_s), float(c_s)
            v = satisfies_refined_dispersion(a, c)
            assert acc_s == ("true" if v.accepted else "false")
            assert branch == v.branch
            assert float(margin_s) == pytest.approx(v.margin, rel=1e-15)
            found = find_admissible_alpha(a, c)
            if found is None:
                assert alpha_s == ""
            else:
                assert float(alpha_s) == pytest.approx(found[0], abs=1e-15)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cells"] == 4
        assert summary["accepted_cells"] == sum(
            1 for line in lines[1:] if line.split(",")[2] == "true"
        )

    def test_alpha_column_is_the_dense_scan_byte_for_byte(self, tmp_path):
        # a 5 x 5 map straddling the refined split at about -0.36059
        text = _region_text(a_min=-0.40, a_max=-0.32, c_min=-0.40, c_max=-0.32, step=0.02)
        out = tmp_path / "map"
        assert main(["region-map", _write_cfg(tmp_path, text, out=out)]) == 0
        lines = (out / "region_map.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 25
        a_seen = set()
        for line in lines[1:]:
            a_s, c_s, _, _, _, alpha_s = line.split(",")
            a, c = float(a_s), float(c_s)
            a_seen.add(a)
            found = _full_scan(a, c)
            assert alpha_s == ("" if found is None else fmt_float(found[0]))
        assert min(a_seen) < REFINED_SPLIT < max(a_seen)

    def test_run_subcommand_accepts_region_kind(self, tmp_path):
        out = tmp_path / "map2"
        cfg = _write_cfg(tmp_path, REGION_TEXT, out=out)
        assert main(["run", cfg]) == 0
        assert (out / "region_map.csv").exists()


class TestAudit:
    def test_decaying_bump_passes(self, tmp_path, capsys):
        out = tmp_path / "aud"
        cfg = _write_cfg(tmp_path, AUDIT_TEXT, out=out, preset="decaying-bump")
        assert main(["audit-bathymetry", cfg]) == 0
        assert "passes" in capsys.readouterr().out
        audit = json.loads((out / "audit.json").read_text())
        assert audit["passed"] is True
        assert audit["preset"] == "decaying-bump"

    def test_static_bump_fails_flux_growth(self, tmp_path, capsys):
        # a bottom that never stops moving water around accumulates flux
        # linearly in time and eventually violates the integral bound
        out = tmp_path / "aud"
        text = AUDIT_TEXT.replace("t_max = 50.0", "t_max = 4000.0").replace(
            "c_const = 8.0", "c_const = 2.0"
        )
        cfg = _write_cfg(tmp_path, text, out=out, preset="static-bump")
        assert main(["audit-bathymetry", cfg]) == 3
        assert "FAILS" in capsys.readouterr().out
        assert json.loads((out / "audit.json").read_text())["passed"] is False


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.ini")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[experiment]\nkind = identity-suite\n")
        assert main(["run", str(cfg)]) == 1
        assert "output_dir" in capsys.readouterr().err

    def test_kind_mismatch_for_dedicated_commands(self, tmp_path, capsys):
        out = tmp_path / "x"
        cfg = _write_cfg(tmp_path, IDENTITY_TEXT, out=out)
        assert main(["region-map", cfg]) == 1
        assert main(["audit-bathymetry", cfg]) == 1
        capsys.readouterr()

    def test_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_report_on_missing_directory(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nowhere")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_blowup_aborts_with_exit_2(self, tmp_path, capsys):
        text = IDENTITY_TEXT.replace(
            "[diagnostics]",
            "blowup_factor = 0.99\n\n[diagnostics]",
        )
        out = tmp_path / "boom"
        cfg = _write_cfg(tmp_path, text, out=out)
        assert main(["run", cfg]) == 2
        assert "aborted" in capsys.readouterr().err


class TestRegionValidation:
    @pytest.mark.parametrize("key, value", [
        ("b", 0.0), ("b", -1.0), ("step", 0.0), ("step", -0.5),
        ("a_max", -1.5), ("c_max", -1.5),
    ])
    def test_bad_region_value_is_a_config_error_naming_the_key(self, tmp_path, capsys, key, value):
        out = tmp_path / "map"
        cfg = _write_cfg(tmp_path, _region_text(**{key: value}), out=out)
        assert main(["region-map", cfg]) == 1
        err = capsys.readouterr().err
        assert f'"{key}" in [region]' in err
        assert not (out / "region_map.csv").exists()


class TestOutputRoot:
    def test_env_root_redirects_relative_dirs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ABCDSIM_OUT_ROOT", str(tmp_path / "root"))
        cfg = _write_cfg(tmp_path, REGION_TEXT, out="rel/map")
        assert main(["run", cfg]) == 0
        assert (tmp_path / "root" / "rel" / "map" / "region_map.csv").exists()
