"""Tests of the tracer, the per-layer counts and the benchmark definition."""

import importlib
import inspect
import json
import os

import numpy.fft
import pytest

import metrics
import workloads
from tracer import LAYER_OF_MODULE, Tracer

import abcdsim
from abcdsim.cli import main as cli_main

TINY = """
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
preset = {preset}
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


def _namespaces():
    """Every attribute the tracer may patch: package, modules, classes, numpy.fft."""
    owners = [abcdsim, numpy.fft]
    for short in LAYER_OF_MODULE:
        mod = importlib.import_module(f"abcdsim.{short}")
        owners.append(mod)
        owners += [obj for obj in vars(mod).values()
                   if inspect.isclass(obj) and obj.__module__ == mod.__name__]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def _traced_run(tmp_path, tag, preset="flat"):
    out = tmp_path / tag
    cfg = tmp_path / f"{tag}.ini"
    cfg.write_text(TINY.format(out=out, preset=preset))
    tracer = Tracer()
    tracer.install()
    try:
        rc = cli_main(["run", str(cfg)])
    finally:
        tracer.uninstall()
    return rc, out, tracer.summary()


def test_uninstall_restores_every_original():
    before = _namespaces()
    tracer = Tracer()
    tracer.install()
    patched = _namespaces()
    assert patched[(id(abcdsim.solver), "rhs")] is not before[(id(abcdsim.solver), "rhs")]
    assert patched[(id(numpy.fft), "rfft")] is not before[(id(numpy.fft), "rfft")]
    tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_self_time_is_inclusive_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: None, "solver.rhs", "solver")

    def outer_body():
        inner()
        inner()

    outer = tracer.wrap(outer_body, "solver.step_rk4", "solver")
    outer()
    s = tracer.summary()
    assert s["stats"]["solver.step_rk4"] == [1, 10.0, 5.0]   # 10 - (2 + 3)
    assert s["stats"]["solver.rhs"] == [2, 5.0, 5.0]
    assert s["layer_self"]["solver"] == 10.0
    outer_span = [sp for sp in tracer.spans if sp[1] == "solver.step_rk4"][0]
    assert [sp[4] for sp in tracer.spans if sp[1] == "solver.rhs"] == [outer_span[0]] * 2
    assert s["counts"] == {"step": {"solver.step_rk4": 1}, "step/rhs": {"solver.rhs": 2}}


def test_tracing_leaves_artifacts_byte_identical(tmp_path):
    out_plain = tmp_path / "plain"
    cfg = tmp_path / "plain.ini"
    cfg.write_text(TINY.format(out=out_plain, preset="decaying-bump"))
    rc_plain = cli_main(["run", str(cfg)])
    rc_traced, out_traced, _ = _traced_run(tmp_path, "traced", preset="decaying-bump")
    assert rc_plain == rc_traced == 0
    names = sorted(os.listdir(out_plain))
    assert names == sorted(os.listdir(out_traced))
    for name in names:
        assert (out_plain / name).read_bytes() == (out_traced / name).read_bytes(), name


@pytest.mark.parametrize("preset, per_rhs", [("flat", 8), ("decaying-bump", 11)])
def test_counts_repeat_and_match_the_code(tmp_path, preset, per_rhs):
    runs = [_traced_run(tmp_path, f"{preset}{i}", preset) for i in range(2)]
    assert runs[0][2]["counts"] == runs[1][2]["counts"]
    summary = json.loads((runs[0][1] / "summary.json").read_text())
    m = metrics.per_layer(runs[0][2], summary["n_steps"], summary["n_snapshots"], 1.0, 0, 0.1)
    assert m["grid.rhs_transforms_per_call"] == per_rhs
    assert m["grid.transforms_per_step"] == 4 * per_rhs
    assert m["solver.rhs_calls_per_step"] == 4
    assert m["bathymetry.sample_calls_per_step"] == 3
    assert m["grid.guard_transforms_per_snapshot"] == 2  # blow-up guard, apart from observe
    assert m["weights.calls_per_snapshot"] == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_moves_only_cost_neutral_inputs(name):
    make = workloads.WORKLOADS[name].make
    assert make(3) == make(3)
    a, b = make(workloads.DEFAULT_SEED), make(workloads.HELD_OUT_SEED)
    moved = {(sec, key) for sec in a for key in a[sec] if a[sec][key] != b[sec][key]}
    allowed = {("initial", "center"), ("initial", "width"), ("bathymetry", "center"),
               ("region", "a_min"), ("region", "a_max"), ("region", "c_min"), ("region", "c_max")}
    assert moved and moved <= allowed


def test_gate_fails_a_run_that_drops_a_promised_check(tmp_path):
    config = workloads.identity_n512(workloads.DEFAULT_SEED)
    summary = {"flags": {"residuals_ok": True},
               "residual_maxima": {k: 1e-14 for k in workloads.PROMISED_RESIDUALS[:-1]},
               "norms": {"initial_h1": workloads._gaussian_h1(config["initial"])}}
    (tmp_path / "diagnostics.csv").write_text("t,hamiltonian\n0,1.0\n1,1.0\n")
    problems = workloads.check_identity(config, str(tmp_path), summary,
                                        "identity-suite: ... -> pass", None)
    assert problems == [f"residual local_energy_rate = None missing, non-finite or >= "
                        f"{workloads.RESIDUAL_THRESHOLD}"]


def test_gate_fails_a_region_map_that_drops_the_alpha_search(tmp_path):
    step = 0.05
    config = {"experiment": {"kind": "region-map", "output_dir": str(tmp_path / "out"), "seed": 0},
              "region": {"a_min": -1.0, "a_max": -0.05, "c_min": -1.0, "c_max": -0.05,
                         "step": step, "b": 1.0, "with_alpha": "true"}}
    cfg = tmp_path / "region.ini"
    cfg.write_text(workloads._ini(config))
    assert cli_main(["region-map", str(cfg)]) == 0
    outdir = str(tmp_path / "out")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    stdout = f"region-map: {summary['cells']} cells, {summary['accepted_cells']} accepted"
    assert workloads.check_region(config, outdir, summary, stdout, None) == []

    csv_path = tmp_path / "out" / "region_map.csv"
    lines = csv_path.read_text().splitlines()
    with_alpha = sum(1 for line in lines[1:] if not line.endswith(","))
    assert with_alpha > 0
    csv_path.write_text("\n".join([lines[0]] + [line[:line.rindex(",") + 1] for line in lines[1:]]) + "\n")
    problems = workloads.check_region(config, outdir, summary, stdout, None)
    assert len(problems) == min(with_alpha, 20)
    assert all("an admissible alpha exists" in p for p in problems)


def test_end_to_end_times_are_scaled_by_host_speed_and_memory_is_not():
    from run import Sample, end_to_end

    runs = [Sample(wall=2.0, setup=0.5, work=300, rss_mb=40.0, scale=0.5),
            Sample(wall=1.0, setup=0.25, work=300, rss_mb=40.0, scale=1.0)]
    e2e = end_to_end(runs)
    assert e2e["wall_s"]["samples"] == [1.0, 1.0]
    assert e2e["setup_s"]["samples"] == [0.25, 0.25]
    assert e2e["work_per_s"]["samples"] == [400.0, 400.0]
    assert e2e["raw_wall_s"]["samples"] == [2.0, 1.0]
    assert e2e["peak_rss_mb"]["samples"] == [40.0, 40.0]
