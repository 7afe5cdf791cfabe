"""End-to-end command-line runs on small grids."""

import errno
import json
import math
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import threading
import types

import numpy as np
import pytest

import abcdsim
from abcdsim import cli, solver
from abcdsim.classifier import REFINED_SPLIT, find_admissible_alpha, satisfies_refined_dispersion
from abcdsim.cli import CSV_BLOCK_ROWS, EXIT_FAIL, EXIT_PASS, _nanmax, _read_csv_columns, _write_csv, main
from abcdsim.config import build_region_axes, build_sim_config, fmt_float, fmt_value, parse_config
from abcdsim.diagnostics import DiagnosticsEngine
from abcdsim.solver import run
from test_classifier import SHIPPED_REGION_MAP, _full_scan

pytestmark = pytest.mark.usefixtures("no_child_left")

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


# IDENTITY_TEXT scheduled from t = 0 to 12: the window is undefined before t = 11
SCHEDULED_FROM_ZERO_TEXT = (IDENTITY_TEXT.replace("t_end = 0.06", "t_end = 12.0")
                            .replace("dt = 0.001", "dt = 0.05")
                            .replace("weight_mode = fixed", "weight_mode = schedule"))

# summary.json residual_maxima key -> the diagnostics.csv column it is the maximum of
RESIDUAL_KEYS = {"decomposition": "decomposition_residual", "change_of_variables": "change_var_residual",
                 "canonical_l2": "canon_l2_residual", "canonical_nonlocal": "canon_nonlocal_residual",
                 **{name.removesuffix("_residual") + "_rate": name
                    for name in DiagnosticsEngine.RESIDUAL_COLUMNS}}


def check_residual_maxima_against_csv(out) -> dict:
    """Each residual maximum in out/summary.json is the largest value of its
    diagnostics.csv column, and an FD rate key is there exactly when its
    residual column holds a value; returns the summary."""
    summary = json.loads((out / "summary.json").read_text())
    cols = _read_csv_columns(str(out / "diagnostics.csv"))
    maxima = summary["residual_maxima"]
    rates = {key for key, name in RESIDUAL_KEYS.items()
             if key.endswith("_rate") and not np.isnan(cols[name]).all()}
    assert set(maxima) == {key for key in RESIDUAL_KEYS if not key.endswith("_rate")} | rates
    for key, value in maxima.items():
        assert value == _nanmax(cols[RESIDUAL_KEYS[key]]), key
    return summary


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
        # diagnostics.csv parses, has the engine's columns and one row per snapshot
        lines = (out / "diagnostics.csv").read_text().strip().split("\n")
        assert lines[0].split(",") == list(DiagnosticsEngine.COLUMNS + DiagnosticsEngine.RESIDUAL_COLUMNS)
        assert len(lines) == 1 + summary["n_snapshots"]

    def test_check_that_did_not_run_fails_the_suite(self, tmp_path, capsys):
        # the scheduled window is undefined before t = 11, so the I, J and
        # local-energy series are finite at 11.0, 11.1, 11.2, 11.3 and 11.35
        # only; the last interval is short, which leaves four points on the
        # cadence, too few for the five-point stencil: those checks cannot run
        out = tmp_path / "sched"
        text = SCHEDULED_FROM_ZERO_TEXT.replace("t_end = 12.0", "t_end = 11.35")
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

    def test_scheduled_suite_from_t0_checks_the_rates_on_the_finite_tail(self, tmp_path):
        # 0 -> 12 every 0.1: the I, J and local-energy series are NaN before
        # t = 11; their residuals are NaN where the stencil touches a NaN and
        # finite from t = 11.2 to 11.8
        out = tmp_path / "sched"
        main(["run", _write_cfg(tmp_path, SCHEDULED_FROM_ZERO_TEXT, out=out)])
        maxima = json.loads((out / "summary.json").read_text())["residual_maxima"]
        cols = _read_csv_columns(str(out / "diagnostics.csv"))
        tail = cols["t"] > 11.15
        for name in ("hamiltonian", "virial_i", "virial_j", "local_energy"):
            assert maxima[name + "_rate"] is not None and math.isfinite(maxima[name + "_rate"]), name
            assert maxima[name + "_rate"] < 1e-6, name
            res = cols[name + "_residual"]
            assert np.all(np.isfinite(res[tail][:-2])) and np.all(np.isnan(res[tail][-2:])), name
        for name in ("virial_i", "virial_j", "local_energy"):
            assert np.all(np.isnan(cols[name + "_residual"][~tail])), name

    def test_scheduled_suite_without_late_snapshots_is_rejected_before_running(self, tmp_path, capsys):
        # 0 -> 11.1 every 0.1: two snapshots at t >= 11, too few for the rate checks
        text = (IDENTITY_TEXT.replace("t_end = 0.06", "t_end = 11.1")
                .replace("dt = 0.001", "dt = 0.05")
                .replace("weight_mode = fixed", "weight_mode = schedule"))
        out = tmp_path / "sched"
        assert main(["run", _write_cfg(tmp_path, text, out=out)]) == 1
        assert '"t_start" in [time]' in capsys.readouterr().err
        assert not out.exists()

    def test_an_infinite_residual_fails_the_suite(self, tmp_path, monkeypatch, capsys):
        # NaN marks a value that is not defined (stencil edges, t < T_MIN) and is
        # skipped; an inf is a residual that blew up and must not be dropped.
        # The third row of the table the CLI writes and reads is spoiled.
        table = DiagnosticsEngine.table

        def table_then_spoil(engine):
            cols = table(engine)
            cols["decomposition_residual"][2] = math.inf
            return cols

        monkeypatch.setattr(DiagnosticsEngine, "table", table_then_spoil)
        out = tmp_path / "run"
        assert main(["run", _write_cfg(tmp_path, IDENTITY_TEXT, out=out)]) == 3
        assert "no finite value for decomposition -> FAIL" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["residual_maxima"]["decomposition"] is None
        assert summary["residual_maxima"]["hamiltonian_rate"] < 1e-6
        assert summary["flags"] == {"residuals_ok": False}

    @pytest.mark.parametrize("text, code, rates", [
        (IDENTITY_TEXT, 0, {"hamiltonian_rate", "virial_i_rate", "virial_j_rate", "local_energy_rate"}),
        # the window is undefined before t = 11; the FD checks run on the finite
        # tail. A rate check passes, the change of variables does not (1.05e-6)
        (SCHEDULED_FROM_ZERO_TEXT, 3, {"hamiltonian_rate", "virial_i_rate", "virial_j_rate",
                                       "local_energy_rate"}),
        # snapshots at steps 0, 2, 4, 6 and 7: the short last interval is dropped,
        # four are left, too few for the five-point stencil
        (IDENTITY_TEXT.replace("t_end = 0.06", "t_end = 0.007"), 3, set()),
    ], ids=["fixed", "scheduled-from-t0", "seven-steps"])
    def test_residual_maxima_are_the_maxima_of_the_csv_columns(self, tmp_path, capsys, text, code, rates):
        out = tmp_path / "run"
        assert main(["run", _write_cfg(tmp_path, text, out=out)]) == code
        stdout = capsys.readouterr().out
        summary = check_residual_maxima_against_csv(out)
        assert {key for key in summary["residual_maxima"] if key.endswith("_rate")} == rates
        if not rates:
            assert ("no finite value for hamiltonian_rate, virial_i_rate, virial_j_rate, "
                    "local_energy_rate -> FAIL") in stdout

    @pytest.mark.parametrize("values, expected", [
        ([math.nan, 2e-9, math.nan, 1e-9], 2e-9),
        ([math.nan, math.nan], None),
        ([], None),
        ([1e-9, math.inf], None),
        ([-math.inf, 1e-9], 1e-9),
    ])
    def test_nanmax_skips_nan_only(self, values, expected):
        assert _nanmax(values) == expected

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


@pytest.fixture
def worker_forks(monkeypatch):
    """Run the CLI's diagnostics in the forked worker, whatever the CPU
    count, on the CPUs {0, 1}; `.pids` of the workers forked so far and
    `.pins`, the (pid, mask) of every `os.sched_setaffinity` call, which
    is recorded and not made (this process may have more CPUs than two)."""
    if not hasattr(os, "fork"):
        pytest.skip("the diagnostics worker needs os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = types.SimpleNamespace(pids=[], pins=[])
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: forks.pins.append((pid, set(mask))),
                        raising=False)
    return forks


def _spoil_worker_blocks(monkeypatch, spoil):
    """Call spoil(n) at the n-th block the worker evaluates, before the block."""
    observe_block, parent, calls = DiagnosticsEngine._observe_block, os.getpid(), []

    def spoiled(engine, states):
        assert os.getpid() != parent, "a block was evaluated in the parent"
        calls.append(len(states))
        spoil(len(calls))
        return observe_block(engine, states)

    monkeypatch.setattr(DiagnosticsEngine, "_observe_block", spoiled)


def _interrupt_stepping(monkeypatch):
    """Raise KeyboardInterrupt at the 10th RK4 step."""
    step, steps = solver._Kernel.step, []

    def interrupted(kernel, *args):
        steps.append(1)
        if len(steps) == 10:
            raise KeyboardInterrupt
        return step(kernel, *args)

    monkeypatch.setattr(solver._Kernel, "step", interrupted)


def _kill_worker_at_second_block(monkeypatch):
    def spoil(n):
        if n == 2:
            os.kill(os.getpid(), signal.SIGKILL)

    _spoil_worker_blocks(monkeypatch, spoil)


def _raise_in_worker(monkeypatch):
    def spoil(n):
        raise ValueError("spoiled block")

    _spoil_worker_blocks(monkeypatch, spoil)


# the CFL limit is 0.98 here
CFL_ABORT_TEXT = IDENTITY_TEXT.replace("dt = 0.001", "dt = 1.2").replace("t_end = 0.06", "t_end = 2.4")

# the H1 norm of every stepped snapshot exceeds 0.99 x the initial one
BLOWUP_TEXT = IDENTITY_TEXT.replace("[diagnostics]", "blowup_factor = 0.99\n\n[diagnostics]")

# a decay run inside the region, too short to pass its gate
IN_REGION_DECAY_TEXT = OUT_OF_REGION_DECAY_TEXT.replace("-0.020833333333333332", "-1.0")


# IDENTITY_TEXT at N = 4096 for 10 steps, 6 snapshots: each frame of the
# snapshot stream (65 576 bytes) is larger than a 64 KiB pipe, so every
# read of the worker is split
FRAMES_OVER_THE_PIPE_TEXT = (IDENTITY_TEXT.replace("n = 128", "n = 4096")
                             .replace("t_end = 0.06", "t_end = 0.01"))


class TestDiagnosticsWorker:
    """The CLI evaluates a run's diagnostics in one forked worker where it
    can (os.fork, more than one CPU), else in process; both write the same
    bytes, and every failure on either side ends the run loudly with the
    worker reaped."""

    def _run(self, tmp_path, capsys, tag, text, report):
        out = tmp_path / tag
        codes = [main(["run", _write_cfg(tmp_path, text, name=f"{tag}.ini", out=out)])]
        if report:
            codes.append(main(["report", str(out)]))
        return codes, capsys.readouterr(), {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("text, codes, report", [
        (IDENTITY_TEXT, [0], False),
        (SCHEDULED_FROM_ZERO_TEXT, [3], False),
        (IN_REGION_DECAY_TEXT, [3, 3], True),
        (OUT_OF_REGION_DECAY_TEXT, [0, 0], True),
        (FRAMES_OVER_THE_PIPE_TEXT, [0], False),
    ], ids=["identity-fixed", "bump-schedule", "decay", "decay-out-of-region", "frames-over-the-pipe"])
    def test_worker_and_in_process_write_the_same_bytes(self, tmp_path, capsys, monkeypatch,
                                                        worker_forks, text, codes, report):
        forked = self._run(tmp_path, capsys, "forked", text, report)
        assert len(worker_forks.pids) == 1
        monkeypatch.delattr(os, "fork")
        in_process = self._run(tmp_path, capsys, "in-process", text, report)
        assert forked[0] == in_process[0] == codes
        assert forked[1].out == in_process[1].out and forked[1].err == in_process[1].err == ""
        assert forked[2] == in_process[2]
        assert {"diagnostics.csv", "summary.json", "initial_state.csv",
                "final_state.csv"} <= set(forked[2])

    @pytest.mark.parametrize("text, codes", [(IDENTITY_TEXT, [0]), (SCHEDULED_FROM_ZERO_TEXT, [3])],
                             ids=["identity-fixed", "bump-schedule"])
    def test_each_transform_binding_writes_the_same_bytes(self, tmp_path, capsys, monkeypatch,
                                                          worker_forks, bind_transforms, text, codes):
        runs = []
        for name in ("scipy", "numpy"):
            bind_transforms(name)
            runs.append(self._run(tmp_path, capsys, f"{name}-forked", text, False))
            with monkeypatch.context() as m:
                m.delattr(os, "fork")
                runs.append(self._run(tmp_path, capsys, f"{name}-in-process", text, False))
        assert len(worker_forks.pids) == 2
        for codes_, captured, files in runs:
            assert codes_ == codes and captured.out == runs[0][1].out and files == runs[0][2]
        assert {"diagnostics.csv", "summary.json", "initial_state.csv", "final_state.csv"} <= set(runs[0][2])

    @staticmethod
    def _serve(tmp_path, n_frames: int, stream):
        """The reply of `_EngineWorker._serve`, run in a thread for a run of
        n_frames stepped snapshots, to stream(y): the bytes that stream
        makes of y, the initial snapshot's coefficients as bytes."""
        sim = build_sim_config(parse_config(_write_cfg(tmp_path, IDENTITY_TEXT, out=tmp_path / "run")))
        engine = DiagnosticsEngine(sim.params, sim.bathymetry)
        initial = solver.State(sim.grid, sim.eta0, sim.u0, sim.t_start)
        snap_r, snap_w = os.pipe()
        back_r, back_w = os.pipe()
        with open(snap_w, "wb") as fh:
            fh.write(stream(initial.coeffs.tobytes()))
        serve = threading.Thread(target=cli._EngineWorker._serve,
                                 args=(engine, initial, n_frames, snap_r, back_w,
                                       str(tmp_path / "run" / "initial_state.csv")), daemon=True)
        serve.start()
        serve.join(timeout=10.0)
        assert not serve.is_alive(), "the worker hangs on a stream that ended early"
        os.set_blocking(back_r, False)  # a worker that ended without a reply fails, not hangs, the read
        with open(back_r, "rb") as fh:
            return pickle.load(fh)

    @staticmethod
    def _frame(t: float, y: bytes) -> bytes:
        return np.array([t]).tobytes() + y

    def test_a_truncated_frame_ends_the_worker_with_eof(self, tmp_path):
        # t and half the coefficient block
        table, exc, text = self._serve(tmp_path, 2, lambda y: self._frame(0.5, y[: len(y) // 2]))
        assert table is None and isinstance(exc, EOFError)
        assert "EOFError" in text

    def test_a_stream_that_ends_between_frames_ends_the_worker_with_eof(self, tmp_path):
        # two whole frames of a run that has three: with no end frame, the
        # count of frames is what tells a finished stream from a cut one
        def two_frames(y):
            return self._frame(0.5, y) + self._frame(1.0, y)

        table, exc, text = self._serve(tmp_path, 3, two_frames)
        assert table is None and isinstance(exc, EOFError) and "EOFError" in text
        table, exc, _ = self._serve(tmp_path, 2, two_frames)
        assert exc is None and table["t"].tolist() == [0.0, 0.5, 1.0]
        assert (tmp_path / "run" / "initial_state.csv").read_bytes().startswith(b"x,eta,u\n")

    def test_one_cpu_runs_in_process(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("forked on one CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", no_fork, raising=False)
        out = tmp_path / "run"
        assert main(["run", _write_cfg(tmp_path, IDENTITY_TEXT, out=out)]) == 0
        assert (out / "diagnostics.csv").exists()

    def test_a_failed_fork_runs_in_process(self, tmp_path, capsys, monkeypatch, worker_forks):
        forked = self._run(tmp_path, capsys, "forked", IDENTITY_TEXT, False)
        assert len(worker_forks.pids) == 1 and len(worker_forks.pins) == 3

        def failed_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failed_fork)
        # the lowest free descriptors: the same pair after the run if it
        # closed both of its pipes
        free = os.pipe()
        for fd in free:
            os.close(fd)
        in_process = self._run(tmp_path, capsys, "in-process", IDENTITY_TEXT, False)
        after = os.pipe()
        for fd in after:
            os.close(fd)
        assert after == free
        assert len(worker_forks.pins) == 3  # a failed fork pins nothing
        assert forked[0] == in_process[0] == [0]
        assert forked[1].out == in_process[1].out and forked[2] == in_process[2]

    @pytest.mark.parametrize("text", [IDENTITY_TEXT, SCHEDULED_FROM_ZERO_TEXT],
                             ids=["at-the-table", "mid-run"])
    def test_worker_exception_reaches_the_caller(self, tmp_path, monkeypatch, worker_forks, text):
        # blocks of 16 snapshots at N = 128: IDENTITY_TEXT's second block is
        # its last (evaluated for the table), the scheduled suite's is mid-run
        def spoil(n):
            if n == 2:
                raise ValueError("spoiled second block")

        _spoil_worker_blocks(monkeypatch, spoil)
        out = tmp_path / "run"
        with pytest.raises(ValueError, match="spoiled second block") as info:
            main(["run", _write_cfg(tmp_path, text, out=out)])
        assert len(worker_forks.pids) == 1
        # the worker's traceback is attached as the cause
        assert isinstance(info.value.__cause__, cli._WorkerTraceback)
        assert "in spoil" in str(info.value.__cause__)
        assert (out / "initial_state.csv").exists()
        assert not (out / "diagnostics.csv").exists() and not (out / "summary.json").exists()

    @pytest.mark.parametrize("die, words", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {int(signal.SIGKILL)}"),
        (lambda: os._exit(5), "exited with status 5"),
    ], ids=["sigkill", "exit-5"])
    def test_worker_that_dies_aborts_the_run(self, tmp_path, capsys, monkeypatch, worker_forks,
                                             die, words):
        _spoil_worker_blocks(monkeypatch, lambda n: die())
        out = tmp_path / "run"
        assert main(["run", _write_cfg(tmp_path, IDENTITY_TEXT, out=out)]) == 2
        err = capsys.readouterr().err
        assert "run aborted (diagnostics-worker)" in err and words in err
        assert not (out / "diagnostics.csv").exists()

    @pytest.mark.parametrize("text, reason, forks", [
        (CFL_ABORT_TEXT, "cfl", 0),  # refused before the initial snapshot: nothing to reap
        (BLOWUP_TEXT, "blowup", 1),
    ], ids=["cfl", "blowup"])
    def test_an_aborted_run_reaps_the_worker(self, tmp_path, capsys, worker_forks, text, reason, forks):
        assert main(["run", _write_cfg(tmp_path, text, out=tmp_path / "run")]) == 2
        assert f"run aborted ({reason})" in capsys.readouterr().err
        assert len(worker_forks.pids) == forks

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["worker", "in-process"])
    def test_a_run_refused_by_the_cfl_guard_forks_pins_and_writes_nothing(self, tmp_path, capsys,
                                                                          monkeypatch, worker_forks, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        out = tmp_path / "run"
        assert main(["run", _write_cfg(tmp_path, CFL_ABORT_TEXT, out=out)]) == 2
        assert "run aborted (cfl)" in capsys.readouterr().err
        assert worker_forks.pids == [] and worker_forks.pins == []
        assert not (out / "initial_state.csv").exists()

    def test_an_interrupted_run_reaps_the_worker(self, tmp_path, monkeypatch, worker_forks):
        _interrupt_stepping(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            main(["run", _write_cfg(tmp_path, IDENTITY_TEXT, out=tmp_path / "run")])
        assert len(worker_forks.pids) == 1

    @pytest.mark.parametrize("text, spoil, outcome", [
        (IDENTITY_TEXT, lambda monkeypatch: None, 0),
        (IDENTITY_TEXT, _raise_in_worker, ValueError),
        (IDENTITY_TEXT, _kill_worker_at_second_block, 2),
        (SCHEDULED_FROM_ZERO_TEXT, _kill_worker_at_second_block, 2),
        (IDENTITY_TEXT, _interrupt_stepping, KeyboardInterrupt),
        (BLOWUP_TEXT, lambda monkeypatch: None, 2),
    ], ids=["pass", "worker-exception", "killed-at-the-table", "killed-mid-run", "interrupt", "abort"])
    def test_the_pins_split_the_mask_and_are_put_back(self, tmp_path, capsys, monkeypatch, worker_forks,
                                                      text, spoil, outcome):
        allowed = {1, 4, 6}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: allowed)
        spoil(monkeypatch)
        execute, at_exit = cli._execute, []

        def watched(*args):
            try:
                return execute(*args)
            finally:
                at_exit.append(list(worker_forks.pins))

        monkeypatch.setattr(cli, "_execute", watched)
        argv = ["run", _write_cfg(tmp_path, text, out=tmp_path / "run")]
        if isinstance(outcome, int):
            assert main(argv) == outcome
        else:
            with pytest.raises(outcome):
                main(argv)
        (pid,) = worker_forks.pids
        # the worker alone on the highest CPU, this process on the others,
        # then its own mask back before _execute returns or raises
        assert at_exit == [worker_forks.pins] == [[(pid, {6}), (0, {1, 4}), (0, allowed)]]

    @pytest.mark.parametrize("refused", ["worker", "parent", "missing"])
    def test_pinning_is_best_effort(self, tmp_path, capsys, monkeypatch, worker_forks, refused):
        calls = []

        def einval(pid, mask):
            calls.append(pid)
            if (pid == 0) == (refused == "parent"):
                raise OSError(errno.EINVAL, "Invalid argument")

        if refused == "missing":
            monkeypatch.delattr(os, "sched_setaffinity")
        else:
            monkeypatch.setattr(os, "sched_setaffinity", einval)
        forked = self._run(tmp_path, capsys, "forked", IDENTITY_TEXT, False)
        (pid,) = worker_forks.pids
        # a refused pin of this process leaves its mask as it was: nothing to put back
        assert calls == {"worker": [pid], "parent": [pid, 0], "missing": []}[refused]
        monkeypatch.delattr(os, "fork")
        in_process = self._run(tmp_path, capsys, "in-process", IDENTITY_TEXT, False)
        assert forked[0] == in_process[0] == [0]
        assert forked[1] == in_process[1] and forked[2] == in_process[2]

    def test_the_worker_writes_the_initial_csv_with_the_in_process_bytes(self, tmp_path, capsys,
                                                                        monkeypatch, worker_forks):
        # each process that writes a state CSV leaves a marker naming itself
        writers, write = tmp_path / "writers", cli._write_state_csv
        writers.mkdir()

        def marked(path, state):
            (writers / f"{os.getpid()}-{os.path.basename(path)}").touch()
            write(path, state)

        monkeypatch.setattr(cli, "_write_state_csv", marked)
        forked = self._run(tmp_path, capsys, "forked", SCHEDULED_FROM_ZERO_TEXT, False)
        (pid,) = worker_forks.pids
        assert sorted(p.name for p in writers.iterdir()) == sorted(
            [f"{pid}-initial_state.csv", f"{os.getpid()}-final_state.csv"])
        monkeypatch.delattr(os, "fork")
        in_process = self._run(tmp_path, capsys, "in-process", SCHEDULED_FROM_ZERO_TEXT, False)
        assert forked[0] == in_process[0] == [3] and forked[2] == in_process[2]
        assert forked[2]["initial_state.csv"].startswith(b"x,eta,u\n")

    def test_the_parent_transforms_no_stepped_snapshot(self, tmp_path, capsys, worker_forks,
                                                       transform_calls):
        # the parent steps and sends coefficients: its one inverse transform
        # on the coarse grid builds the final state's fields for final_state.csv
        codes, _, files = self._run(tmp_path, capsys, "forked", IDENTITY_TEXT, False)
        assert codes == [0] and len(worker_forks.pids) == 1 and "final_state.csv" in files
        coarse = [a.shape for name, a in transform_calls if name == "_irfft" and a.shape[-1] == 128 // 2 + 1]
        assert coarse == [(2, 65)]

    def test_a_failed_initial_csv_write_in_the_worker_reaches_the_caller(self, tmp_path, monkeypatch,
                                                                         worker_forks):
        parent, write = os.getpid(), cli._write_state_csv

        def full_disk(path, state):
            if os.getpid() != parent:
                raise OSError(errno.ENOSPC, "No space left on device")
            write(path, state)

        monkeypatch.setattr(cli, "_write_state_csv", full_disk)
        out = tmp_path / "run"
        with pytest.raises(OSError, match="No space left on device") as info:
            main(["run", _write_cfg(tmp_path, IDENTITY_TEXT, out=out)])
        assert len(worker_forks.pids) == 1
        assert isinstance(info.value.__cause__, cli._WorkerTraceback)
        assert "in full_disk" in str(info.value.__cause__)
        assert not (out / "initial_state.csv").exists() and not (out / "diagnostics.csv").exists()

    @pytest.mark.parametrize("how", ["refused", "no-constant", "no-fcntl"])
    def test_a_refused_pipe_size_writes_the_same_bytes(self, tmp_path, capsys, monkeypatch,
                                                        worker_forks, how):
        # frames over a default pipe: every send then waits for the worker's read
        calls = []

        def refuse(fd, cmd, size):
            calls.append(size)
            raise OSError(errno.EPERM, "Operation not permitted")

        fake = {"refused": types.SimpleNamespace(F_SETPIPE_SZ=1031, fcntl=refuse),
                "no-constant": types.SimpleNamespace(fcntl=refuse),
                "no-fcntl": None}[how]
        monkeypatch.setattr(cli, "fcntl", fake)
        forked = self._run(tmp_path, capsys, "forked", FRAMES_OVER_THE_PIPE_TEXT, False)
        assert len(worker_forks.pids) == 1
        assert calls == ([cli.SNAPSHOT_PIPE_BYTES] if how == "refused" else [])
        monkeypatch.delattr(os, "fork")
        in_process = self._run(tmp_path, capsys, "in-process", FRAMES_OVER_THE_PIPE_TEXT, False)
        assert forked[0] == in_process[0] == [0]
        assert forked[1] == in_process[1] and forked[2] == in_process[2]

    def test_a_granted_pipe_holds_two_frames_at_n4096(self, tmp_path, capsys, monkeypatch, worker_forks):
        getsize = getattr(cli.fcntl, "F_GETPIPE_SZ", None)
        if getsize is None:
            pytest.skip("no F_GETPIPE_SZ to read a pipe's size")
        sizes, widen = [], cli._widen_pipe

        def measured(fd):
            widen(fd)
            sizes.append(cli.fcntl.fcntl(fd, getsize))

        monkeypatch.setattr(cli, "_widen_pipe", measured)
        codes, _, _ = self._run(tmp_path, capsys, "forked", FRAMES_OVER_THE_PIPE_TEXT, False)
        assert codes == [0] and len(sizes) == 1
        if sizes[0] < cli.SNAPSHOT_PIPE_BYTES:
            pytest.skip(f"the kernel kept the pipe at {sizes[0]} bytes")
        frame = 8 * (1 + 4 * (4096 // 2 + 1))  # t, then (2, 2049) complex128
        assert frame == 65576 and sizes[0] >= 2 * frame

    def test_this_process_steps_off_the_worker_cpu_and_gets_its_mask_back(self, tmp_path, monkeypatch):
        if not hasattr(os, "fork") or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2:
            pytest.skip("needs os.fork and at least two allowed CPUs")
        before = os.sched_getaffinity(0)
        step, during = solver._Kernel.step, []

        def watched(kernel, *args):
            if not during:  # the first step: the worker was forked at the initial snapshot
                during.append(os.sched_getaffinity(0))
            return step(kernel, *args)

        monkeypatch.setattr(solver._Kernel, "step", watched)
        assert main(["run", _write_cfg(tmp_path, IDENTITY_TEXT, out=tmp_path / "run")]) == 0
        assert during == [before - {max(before)}]
        assert os.sched_getaffinity(0) == before


def _fmt_float_csv(header, rows) -> bytes:
    """A CSV built one value at a time with fmt_float: the reference text."""
    lines = [",".join(header)] + [",".join(fmt_float(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


class TestCsvWriter:
    def test_block_writer_is_the_per_value_formatter_byte_for_byte(self, tmp_path):
        floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 1.0, np.float64(0.1)]
        words = ["", "main-inequality", "x"]
        n = 2 * CSV_BLOCK_ROWS + 37  # more than one block, not a whole number of blocks
        rows = [[floats[i % 8], i % 3 == 0, words[i % 3], floats[i % 7]] for i in range(n)]
        columns = [np.array([row[0] for row in rows]), np.array([row[1] for row in rows]),
                   [row[2] for row in rows], np.array([row[3] for row in rows])]
        path = tmp_path / "edge.csv"
        _write_csv(str(path), ["f", "b", "s", "g"], columns)
        expected = "f,b,s,g\n" + "".join(",".join(map(fmt_value, row)) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode()

    def test_run_csvs_are_fmt_float_joined_references(self, tmp_path):
        out = tmp_path / "run"
        cfg_path = _write_cfg(tmp_path, IDENTITY_TEXT, out=out)
        assert main(["run", cfg_path]) == 0
        # the same run again, outside the CLI, with every value formatted on its own
        cfg = parse_config(cfg_path)
        sim = build_sim_config(cfg)
        d = cfg.diag
        engine = DiagnosticsEngine(cfg.params, sim.bathymetry, alpha=d.alpha,
                                   weight_mode=d.weight_mode, fixed_lambda=d.fixed_lambda)
        initial = []

        def observer(state):
            if not initial:
                initial.append(_fmt_float_csv(["x", "eta", "u"], zip(state.grid.x, state.eta, state.u)))
            engine.observe(state)

        final = run(sim, observer=observer).final_state
        assert (out / "initial_state.csv").read_bytes() == initial[0]
        assert (out / "final_state.csv").read_bytes() == _fmt_float_csv(
            ["x", "eta", "u"], zip(final.grid.x, final.eta, final.u))
        cols = engine.table()
        assert (out / "diagnostics.csv").read_bytes() == _fmt_float_csv(
            list(cols), zip(*(c.tolist() for c in cols.values())))


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
        # the report rebuilt from the artifacts reaches the same verdict
        assert main(["report", str(out)]) == 3
        assert "FAIL" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        report = json.loads((out / "report.json").read_text())
        assert report["out_of_region"] is False
        assert "observed" not in report
        assert report["flags"] == summary["flags"]


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

    @pytest.mark.parametrize("text, violations", [
        (None, False),  # the shipped configs/region_map.ini
        (_region_text(a_min=-0.5, a_max=0.3, c_min=-1.4, c_max=0.2, step=0.1), True),
        (_region_text(a_min=-1.0, a_max=-0.01, c_min=-1.0, c_max=-0.01, step=0.03).replace(
            "with_alpha = true", "with_alpha = false"), False),
    ], ids=["shipped", "domain-crossing", "without-alpha"])
    def test_csv_is_the_per_cell_classifier_byte_for_byte(self, tmp_path, monkeypatch, capsys,
                                                          text, violations):
        if text is None:
            cfg = str(SHIPPED_REGION_MAP)
            monkeypatch.setenv("ABCDSIM_OUT_ROOT", str(tmp_path))
            out = tmp_path / "out" / "region_map"
        else:
            out = tmp_path / "map"
            cfg = _write_cfg(tmp_path, text, out=out)
        r = parse_config(cfg).region
        a_vals, c_vals = build_region_axes(parse_config(cfg))
        rows, n_acc, branches = ["a,c,accepted,branch,margin,alpha_if_any"], 0, set()
        for a in map(float, a_vals):
            for c in map(float, c_vals):
                try:
                    v = satisfies_refined_dispersion(a, c, r.b)
                    accepted, branch, margin = v.accepted, v.branch, v.margin
                except ValueError:
                    accepted, branch, margin = False, "domain-violation", math.nan
                found = None
                if r.with_alpha and branch != "domain-violation":
                    found = find_admissible_alpha(a, c)
                alpha = "" if found is None else fmt_float(found[0])
                rows.append(",".join([fmt_float(a), fmt_float(c), "true" if accepted else "false",
                                      branch, fmt_float(margin), alpha]))
                n_acc += accepted
                branches.add((branch, alpha != ""))
        # what each config is there to cover: cells with and without an alpha,
        # domain violations (which never get one), and a map without the column
        assert (("domain-violation", False) in branches) == violations
        if r.with_alpha:
            assert ("main-inequality", True) in branches and ("rejected", False) in branches
        else:
            assert all(not has for _, has in branches)

        assert main(["region-map", cfg]) == 0
        assert (out / "region_map.csv").read_bytes() == ("\n".join(rows) + "\n").encode()
        cells = len(rows) - 1
        assert capsys.readouterr().out == f"region-map: {cells} cells, {n_acc} accepted\n"
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["cells"], summary["accepted_cells"]) == (cells, n_acc)

    def test_region_map_does_not_import_numpy_ma(self, tmp_path):
        # np.unique without a return_* flag imports numpy.ma lazily, 8-9 ms of every map
        code = ("import sys; from abcdsim.cli import main; rc = main(['region-map', sys.argv[1]]); "
                "print(rc, 'numpy.ma' in sys.modules)")
        src = str(pathlib.Path(abcdsim.__file__).resolve().parent.parent)
        env = dict(os.environ, ABCDSIM_OUT_ROOT=str(tmp_path),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code, str(SHIPPED_REGION_MAP)], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines()[-1] == "0 False"
        assert (tmp_path / "out" / "region_map" / "region_map.csv").exists()

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


# the two files of a decay-run directory that `report` reads, well formed
REPORT_DIAGNOSTICS_CSV = "t,h1_norm,windowed_h1,running_decay_integral\n0,1.0,1.0,\n1,0.5,0.25,0.5\n"
REPORT_SUMMARY_JSON = '{"kind": "decay-run", "out_of_region": false}'


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

    def test_report_refuses_a_run_that_is_not_a_decay_run(self, tmp_path, capsys):
        out = tmp_path / "suite"
        assert main(["run", _write_cfg(tmp_path, IDENTITY_TEXT, out=out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and '"identity-suite"' in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("diagnostics, summary, names", [
        (REPORT_DIAGNOSTICS_CSV.split("\n")[0] + "\n", REPORT_SUMMARY_JSON, ["diagnostics.csv", "'h1_norm'"]),
        (REPORT_DIAGNOSTICS_CSV.replace("windowed_h1", "windowed"), REPORT_SUMMARY_JSON,
         ["diagnostics.csv", "'windowed_h1'"]),
        ("", REPORT_SUMMARY_JSON, ["diagnostics.csv", "'t'"]),
        (REPORT_DIAGNOSTICS_CSV.replace("0.25", "abc"), REPORT_SUMMARY_JSON,
         ["diagnostics.csv", "'windowed_h1'"]),
        (REPORT_DIAGNOSTICS_CSV.replace("0.25,0.5", "0.25"), REPORT_SUMMARY_JSON,
         ["diagnostics.csv", "'running_decay_integral'"]),
        (REPORT_DIAGNOSTICS_CSV, '{"kind": "decay-run",', ["summary.json"]),
        (REPORT_DIAGNOSTICS_CSV, '["decay-run"]', ["summary.json"]),
    ], ids=["no-rows", "no-windowed-column", "empty-file", "non-numeric-cell", "short-row",
            "summary-not-json", "summary-not-an-object"])
    def test_report_on_a_malformed_run_directory_is_a_config_error(self, tmp_path, capsys,
                                                                   diagnostics, summary, names):
        # the well-formed directory reports; each spoiled one is refused by name
        (tmp_path / "diagnostics.csv").write_text(REPORT_DIAGNOSTICS_CSV)
        (tmp_path / "summary.json").write_text(REPORT_SUMMARY_JSON)
        assert main(["report", str(tmp_path)]) in (EXIT_PASS, EXIT_FAIL)
        (tmp_path / "report.json").unlink()
        (tmp_path / "diagnostics.csv").write_text(diagnostics)
        (tmp_path / "summary.json").write_text(summary)
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and all(name in err for name in names), err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("text, key", [
        (_region_text(a_max=-1.5), "a_max"),
        (IDENTITY_TEXT.replace("t_end = 0.06", "t_end = 0.0605"), "t_end"),
        (IDENTITY_TEXT.replace("t_end = 0.06", "t_end = inf"), "t_end"),
        (IDENTITY_TEXT.replace("t_end = 0.06", "t_end = nan"), "t_end"),
        (IDENTITY_TEXT.replace("[diagnostics]", "blowup_factor = nan\n\n[diagnostics]"), "blowup_factor"),
        (IDENTITY_TEXT.replace("[diagnostics]", "blowup_factor = inf\n\n[diagnostics]"), "blowup_factor"),
        (IDENTITY_TEXT.replace("fixed_lambda = 10.0", "fixed_lambda = 0"), "fixed_lambda"),
        (IDENTITY_TEXT.replace("fixed_lambda = 10.0", "fixed_lambda = -10"), "fixed_lambda"),
        (IDENTITY_TEXT.replace("fixed_lambda = 10.0", "fixed_lambda = inf"), "fixed_lambda"),
        (IDENTITY_TEXT.replace("residual_threshold = 1e-6", "residual_threshold = nan"), "residual_threshold"),
        (IDENTITY_TEXT.replace("residual_threshold = 1e-6", "residual_threshold = -1"), "residual_threshold"),
        (IDENTITY_TEXT.replace("alpha = 0.5", "alpha = nan"), "alpha"),
    ], ids=["reversed-region", "partial-step", "inf-t_end", "nan-t_end", "nan-blowup", "inf-blowup",
            "zero-lambda", "negative-lambda", "inf-lambda", "nan-threshold", "negative-threshold",
            "nan-alpha"])
    def test_config_error_leaves_no_output_dir(self, tmp_path, capsys, text, key):
        out = tmp_path / "never"
        cfg = _write_cfg(tmp_path, text, out=out)
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not out.exists()

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


class TestAuditValidation:
    @pytest.mark.parametrize("key, value", [
        ("t_max", 0.0), ("t_max", -50.0), ("eps", -1e-3), ("eps", 0.0),
        ("c_const", 0.0), ("c_const", -8.0), ("eps", math.nan),
    ])
    def test_bad_audit_value_is_a_config_error_naming_the_key(self, tmp_path, capsys, key, value):
        text = "\n".join(f"{key} = {value!r}" if line.startswith(f"{key} = ") else line
                         for line in AUDIT_TEXT.split("\n"))
        out = tmp_path / "aud"
        cfg = _write_cfg(tmp_path, text, out=out, preset="flat")
        assert main(["audit-bathymetry", cfg]) == 1
        assert f'"{key}" in [audit]' in capsys.readouterr().err
        assert not out.exists()


class TestOutputRoot:
    def test_env_root_redirects_relative_dirs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ABCDSIM_OUT_ROOT", str(tmp_path / "root"))
        cfg = _write_cfg(tmp_path, REGION_TEXT, out="rel/map")
        assert main(["run", cfg]) == 0
        assert (tmp_path / "root" / "rel" / "map" / "region_map.csv").exists()
