"""The config files under configs/ must run clean through the CLI.

Each shipped file doubles as documentation, so every one of them has to
exit 0 with its pass flags set. These are real runs; the module takes
about half a minute.
"""

import json
import pathlib

import pytest

from abcdsim.cli import main as cli_main
from test_cli import check_residual_maxima_against_csv

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _run(monkeypatch, tmp_path, name, subcommand="run"):
    monkeypatch.setenv("ABCDSIM_OUT_ROOT", str(tmp_path))
    rc = cli_main([subcommand, str(CONFIG_DIR / name)])
    return rc


def _summary(tmp_path, rel_out):
    with open(tmp_path / rel_out / "summary.json") as fh:
        return json.load(fh)


def test_identity_suite_config_passes(monkeypatch, tmp_path):
    assert _run(monkeypatch, tmp_path, "identity_suite.ini") == 0
    s = _summary(tmp_path, "out/identity_suite")
    assert s["flags"] == {"residuals_ok": True}
    # localized data keeps the box seam out of the windowed checks; the
    # residuals should sit near round-off, far under the 1e-6 threshold
    assert max(s["residual_maxima"].values()) < 1e-12
    check_residual_maxima_against_csv(tmp_path / "out/identity_suite")


def test_bump_suite_config_passes(monkeypatch, tmp_path):
    # the moving bottom: every rate check runs on its nonzero-bottom branch
    assert _run(monkeypatch, tmp_path, "bump_suite.ini") == 0
    s = _summary(tmp_path, "out/bump_suite")
    assert s["flags"] == {"residuals_ok": True}
    assert s["bathymetry"] == "decaying-bump"
    assert {"hamiltonian_rate", "virial_i_rate", "virial_j_rate", "local_energy_rate"} <= set(
        s["residual_maxima"])
    assert max(s["residual_maxima"].values()) < 1e-6
    check_residual_maxima_against_csv(tmp_path / "out/bump_suite")


def test_switch_suite_config_passes(monkeypatch, tmp_path):
    # the bump ramped to zero over the run: tau, tau' and tau'' independent
    assert _run(monkeypatch, tmp_path, "switch_suite.ini") == 0
    s = _summary(tmp_path, "out/switch_suite")
    assert s["flags"] == {"residuals_ok": True}
    assert s["bathymetry"] == "smooth-switch"
    assert {"hamiltonian_rate", "virial_i_rate", "virial_j_rate", "local_energy_rate"} <= set(
        s["residual_maxima"])
    assert max(s["residual_maxima"].values()) < 1e-6
    check_residual_maxima_against_csv(tmp_path / "out/switch_suite")


def test_decay_run_config_passes(monkeypatch, tmp_path):
    assert _run(monkeypatch, tmp_path, "decay_run.ini") == 0
    s = _summary(tmp_path, "out/decay_run")
    assert s["flags"]["bounded"] is True
    assert s["flags"]["windowed_final_ok"] is True
    assert s["flags"]["integral_converged"] is True


def test_region_map_config_passes(monkeypatch, tmp_path):
    assert _run(monkeypatch, tmp_path, "region_map.ini") == 0
    s = _summary(tmp_path, "out/region_map")
    assert 0 < s["accepted_cells"] <= s["cells"]


def test_bathy_audit_config_passes(monkeypatch, tmp_path):
    assert _run(monkeypatch, tmp_path, "bathy_audit.ini",
                subcommand="audit-bathymetry") == 0
    with open(tmp_path / "out/bathy_audit/audit.json") as fh:
        s = json.load(fh)
    assert s["passed"] is True
    assert s["smallness_ok"] and s["flux_ok"]
