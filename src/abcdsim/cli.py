"""Batch experiment runner.

Subcommands: run, report, region-map, audit-bathymetry.  Exit codes:
0 pass, 1 usage/config error, 2 runtime abort, 3 acceptance failure.
All artifacts are byte-deterministic for a fixed config and seed on one
platform: floats use 17 significant digits, JSON keys are sorted, and
nothing timestamp-like is emitted.

A run that writes diagnostics (identity suite, decay run) evaluates them
in one forked worker process when `os.fork` exists and the process may
run on more than one CPU: the parent only steps, guards and writes each
snapshot to a pipe asked for 1 MiB as one raw frame (its kind and t,
then the stacked rfft coefficients; the initial frame the fields too).
The worker writes `initial_state.csv` from the initial frame, hands each
snapshot to the same `DiagnosticsEngine` as the State `run` hands over,
whose fields the engine's ladder builds, and pipes back its table, so
the diagnostics of one snapshot overlap the steps to the next and every
artifact keeps its bytes.  Right after the fork the parent pins the
worker to the highest-numbered CPU of its affinity mask and itself to
the rest, and puts its mask back once the worker is reaped: left to the
scheduler, the woken worker often shared the parent's CPU and its blocks
stalled the stepping once a block.  Pinning is best effort: where it is
missing or refused the run goes on unpinned.  A frame cut short ends the
worker with EOFError.  Otherwise, or when the fork fails, the engine
runs in process, as in library use.  A worker exception is raised again
in the parent; a worker that dies without a result aborts the run (exit
2, reason "diagnostics-worker"); no run leaves a child process behind.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import pickle
import signal
import sys
import traceback

import numpy as np

try:
    import fcntl
except ImportError:  # no fcntl: the snapshot pipe keeps its default size
    fcntl = None

from .bathymetry import hypothesis_report
from .classifier import admissible_alphas, satisfies_refined_dispersion
from .config import (
    FLOAT_FORMAT,
    ConfigError,
    ExperimentConfig,
    fmt_float,
    build_bathymetry,
    build_grid,
    build_region_axes,
    build_sim_config,
    parse_config,
    resolve_output_dir,
)
from .diagnostics import DiagnosticsEngine
from .solver import SimulationAbort, State, _carrying, _state, run

__all__ = ["main"]

EXIT_PASS = 0
EXIT_CONFIG = 1
EXIT_ABORT = 2
EXIT_FAIL = 3

CSV_BLOCK_ROWS = 4096          # rows formatted and written per block of a CSV artifact
SNAPSHOT_PIPE_BYTES = 1 << 20  # the size asked for the worker's snapshot pipe: 16 frames at N = 4096
DECAY_SUP_RATIO = 2.0          # sup H1 norm over the run vs initial
DECAY_FINAL_RATIO = 0.5        # final windowed norm vs its running max
DECAY_GROWTH_LIMIT = 0.05      # running-integral growth over the final fifth

# residual_maxima keys an identity suite must report with a finite value
PROMISED_RESIDUALS = (
    "decomposition", "change_of_variables", "canonical_l2", "canonical_nonlocal",
    "hamiltonian_rate", "virial_i_rate", "virial_j_rate", "local_energy_rate",
)

PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Render decay curves and residual histories from diagnostics.csv.
# Usage: python plot_diagnostics.py [run_dir]
import csv
import os
import sys

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

run_dir = sys.argv[1] if len(sys.argv) > 1 else "."
with open(os.path.join(run_dir, "diagnostics.csv"), newline="") as fh:
    rows = list(csv.DictReader(fh))

def col(name):
    return [float(r[name]) for r in rows]

t = col("t")
fig, axes = plt.subplots(2, 2, figsize=(11, 7))

ax = axes[0][0]
ax.plot(t, col("h1_norm"), label="H1 norm")
ax.set_title("norm history")
ax.set_xlabel("t")
ax.legend()

ax = axes[0][1]
ax.plot(t, col("windowed_h1"), label="windowed H1")
ax.plot(t, col("interval_h1"), label="interval H1")
ax.set_title("decay curves")
ax.set_xlabel("t")
ax.legend()

ax = axes[1][0]
ax.plot(t, col("running_decay_integral"), label="running virial integral")
ax.set_title("cumulative decay integral")
ax.set_xlabel("t")
ax.legend()

ax = axes[1][1]
for name in ("hamiltonian_residual", "virial_i_residual",
             "virial_j_residual", "local_energy_residual"):
    ax.plot(t, col(name), label=name)
ax.set_yscale("log")
ax.set_title("rate-law residual histories")
ax.set_xlabel("t")
ax.legend(fontsize=7)

fig.tight_layout()
out = os.path.join(run_dir, "diagnostics.png")
fig.savefig(out, dpi=130)
print(out)
"""


# -- deterministic writers -----------------------------------------------

def _create(path: str):
    """Open path for writing; the output directory is made at the first
    write, so a config rejected while building leaves nothing behind."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="")


def _float_texts(values: np.ndarray) -> list:
    return list(map(FLOAT_FORMAT.format, values.tolist()))


def _column_texts(column) -> list:
    """The cells of one CSV column: a float array at FLOAT_FORMAT, a bool
    array as true/false, a list of str as it is."""
    if not isinstance(column, np.ndarray):
        return column
    return [("false", "true")[v] for v in column.tolist()] if column.dtype == bool else _float_texts(column)


def _write_csv(path: str, header: list, columns) -> None:
    """Write equal-length columns (a list, or the rows of a 2-D array) under header,
    formatting and writing one block of rows at a time: the text is never held whole."""
    n_rows = len(columns[0])
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, CSV_BLOCK_ROWS):
            cells = [_column_texts(col[lo:lo + CSV_BLOCK_ROWS]) for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_json(path: str, obj) -> None:
    with _create(path) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2))
        fh.write("\n")


def _write_text(path: str, text: str) -> None:
    with _create(path) as fh:
        fh.write(text)


def _write_state_csv(path: str, state: State) -> None:
    _write_csv(path, ["x", "eta", "u"], [state.grid.x, state.eta, state.u])


def _writing_initial(path: str, feed):
    """An observer that writes the first State it is given to path, as
    `_write_state_csv` does, and passes every State on to feed."""
    first = True

    def observer(state: State) -> None:
        # a flag, not an engine read: that would evaluate the pending block
        nonlocal first
        if first:
            _write_state_csv(path, state)
            first = False
        feed(state)

    return observer


def _nanmax(values) -> float | None:
    """The largest value, NaN (stencil edges, t < T_MIN) skipped; None if
    no value is left or the largest is not finite."""
    arr = np.asarray(values, dtype=float)
    top = float(arr[~np.isnan(arr)].max(initial=-math.inf))
    return top if math.isfinite(top) else None


# -- shared run machinery ------------------------------------------------

def _params_meta(p) -> dict:
    return {"a": p.a, "c": p.c, "a1": p.a1, "c1": p.c1, "origin": p.origin}


class DiagnosticsWorkerDied(SimulationAbort):
    """The diagnostics worker ended without returning the table or an exception."""

    reason = "diagnostics-worker"


class _WorkerTraceback(Exception):
    """The traceback text of an exception raised in the diagnostics worker;
    the cause of that exception when it is raised again in the parent."""


# the kind in the header of a frame of the snapshot stream (see _EngineWorker)
FRAME_END, FRAME_INITIAL, FRAME_STEPPED = 0.0, 1.0, 2.0


def _widen_pipe(fd: int) -> None:
    """Ask for a pipe of SNAPSHOT_PIPE_BYTES behind fd, best effort: without
    fcntl or F_SETPIPE_SZ, or when the kernel refuses (EPERM over a pipe
    quota or cap, EBUSY), the pipe keeps its default size."""
    setsize = getattr(fcntl, "F_SETPIPE_SZ", None)
    if setsize is None:
        return
    try:
        fcntl.fcntl(fd, setsize, SNAPSHOT_PIPE_BYTES)
    except OSError:
        pass


def _read_exactly(src, a: np.ndarray) -> None:
    """Fill a from src; EOFError if the stream ends first."""
    if src.readinto(a) != a.nbytes:
        raise EOFError("the snapshot stream ended inside a frame")


class _EngineWorker:
    """A DiagnosticsEngine fed in a forked child process.

    `send` writes each snapshot to the child as one raw frame, with no
    pickle: a header of two float64, the frame kind and t, then the
    stacked rfft coefficients (u_hat, eta_hat), (2, N/2 + 1) complex128,
    in one write from a buffer of fixed size.  The child knows N from the
    grid it inherited, so it reads each frame into arrays of known size.
    It hands each stepped snapshot to the engine as `solver._state` does
    in `run`, a State that holds the coefficients alone, whose fields the
    engine's ladder builds (see `diagnostics._Snap`): neither process
    transforms a stepped snapshot for its fields.  The initial frame also
    carries the fields (u, eta), (2, N) float64, since the initial State
    holds the caller's fields and irfft(rfft(u0)) is not bitwise u0; the
    child writes them to `initial_csv` (`_writing_initial`) before it
    feeds the engine, so the parent formats no CSV while it steps.
    `send(None)` writes the end frame, a header alone, so the parent does
    not wait for the child to finish its last snapshot.  A short read (the
    parent gone) ends the child with EOFError, which it returns in place
    of the table.

    The snapshot pipe is asked for SNAPSHOT_PIPE_BYTES (`_widen_pipe`)
    before the fork: a default 64 KiB pipe holds less than one N = 4096
    frame (65 584 bytes), so each send waited for the child's read.

    `table` reads back `engine.table()`, pickled once with any exception
    the child raised (a failed write of `initial_csv` included); `close`
    closes both pipes and reaps the child, whatever happened.  The child
    leaves only through os._exit, so it never flushes the parent's stdio
    buffers nor runs its atexit hooks.

    Right after the fork the parent pins the child to the highest CPU of
    `allowed` (the mask the parent read from `os.sched_getaffinity(0)`)
    and its own thread to the rest, so the two never share a CPU.
    Unpinned, the scheduler often woke the child on the parent's CPU,
    where its block of diagnostics (about 2 ms at N = 512) ran instead
    of the stepping: the parent's `send` stalled once a block, 36-48 of
    the 202 sends of an N = 512 identity suite for 55-120 ms a run.
    Pinning is best effort and never decides whether the child runs:
    without `os.sched_setaffinity`, or when it raises OSError (EINVAL,
    ESRCH, a cpuset that forbids it), both run unpinned.  `close` puts
    the parent's mask back after reaping the child, on every exit path.
    """

    def __init__(self, engine: DiagnosticsEngine, grid, allowed: set | None, initial_csv: str):
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            _widen_pipe(fds[1])
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        snap_r, snap_w, back_r, back_w = fds
        if self.pid == 0:
            status = 1  # no reply sent
            try:
                os.close(snap_w)
                os.close(back_r)
                self._serve(engine, grid, snap_r, back_w, initial_csv)
                status = 0
            finally:
                os._exit(status)
        os.close(snap_r)
        os.close(back_w)
        self._to = open(snap_w, "wb")
        self._from = open(back_r, "rb")
        # one buffer, written whole: the header (kind, t), then the coefficients
        self._frame = np.empty(2 + 4 * (grid.N // 2 + 1))
        self._head, self._coeffs = self._frame[:2], self._frame[2:].view(complex).reshape(2, -1)
        self._kind = FRAME_INITIAL
        self._mask = self._pin(allowed)

    def _pin(self, allowed: set | None) -> set | None:
        """Pin the child to max(allowed) and this thread to the rest, best
        effort; the mask for `close` to put back, None if it is unchanged."""
        if allowed is None or not hasattr(os, "sched_setaffinity"):
            return None
        cpu = max(allowed)
        try:
            os.sched_setaffinity(self.pid, {cpu})
            os.sched_setaffinity(0, allowed - {cpu})
        except OSError:  # EINVAL, ESRCH, a cpuset that forbids it: run unpinned
            return None
        return allowed

    @staticmethod
    def _serve(engine: DiagnosticsEngine, grid, snap_r: int, back_w: int, initial_csv: str) -> None:
        feed = _writing_initial(initial_csv, engine)
        with open(snap_r, "rb") as src, open(back_w, "wb") as dst:
            try:
                head = np.empty(2)
                while True:
                    _read_exactly(src, head)
                    kind, t = head[0], float(head[1])
                    if kind == FRAME_END:
                        break
                    y = np.empty((2, grid.N // 2 + 1), complex)  # fresh: the engine keeps a block of States
                    _read_exactly(src, y)
                    if kind == FRAME_INITIAL:
                        fields = np.empty((2, grid.N))
                        _read_exactly(src, fields)
                        feed(_carrying(State(grid, fields[1], fields[0], t), y))
                    else:
                        feed(_state(grid, y, t))
                reply = (engine.table(), None, None)
            except Exception as exc:
                reply = (None, exc, traceback.format_exc())
            pickle.dump(reply, dst, pickle.HIGHEST_PROTOCOL)

    def send(self, state: State | None) -> None:
        if state is None:  # a header alone, which fits in the pipe while the child works
            self._head[0] = FRAME_END
            parts = [self._head]
        else:
            self._head[:] = self._kind, state.t
            self._coeffs[...] = state.coeffs
            parts = [self._frame]
            if self._kind == FRAME_INITIAL:
                parts.append(np.stack((state.u, state.eta)))
                self._kind = FRAME_STEPPED
        try:
            for part in parts:
                self._to.write(part)
            self._to.flush()
        except BrokenPipeError:  # the child has ended: say why
            self.table()

    def table(self) -> dict:
        try:
            table, exc, text = pickle.load(self._from)
        except (EOFError, pickle.UnpicklingError):
            raise DiagnosticsWorkerDied(self._ended()) from None
        if exc is not None:
            raise exc from _WorkerTraceback(text)
        return table

    def _ended(self) -> str:
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        how = (f"was killed by signal {-code} ({signal.strsignal(-code)})" if code < 0
               else f"exited with status {code}")
        return f"the diagnostics worker {how} before it returned the table"

    def close(self) -> None:
        # the child sees EOF (or a broken pipe) at its next read or write and exits
        for fh in (self._to, self._from):
            try:
                fh.close()
            except BrokenPipeError:  # unflushed bytes the child will never read
                pass
        if self.pid is not None:
            os.waitpid(self.pid, 0)
            self.pid = None
        if self._mask is not None:
            try:
                os.sched_setaffinity(0, self._mask)
            except OSError:  # the cpuset changed under the run: leave the mask as it is
                pass
            self._mask = None


def _start_worker(engine: DiagnosticsEngine, grid, initial_csv: str) -> _EngineWorker | None:
    """A diagnostics worker, which also writes initial_csv, where one can
    run beside the stepping: with os.fork, on more than one CPU this
    process may use, and a pipe and a process to spare.  None otherwise,
    and the engine runs in process."""
    if not hasattr(os, "fork"):
        return None
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    cpus = len(allowed) if allowed is not None else os.cpu_count()
    if (cpus or 1) < 2:
        return None
    try:
        return _EngineWorker(engine, grid, allowed, initial_csv)
    except OSError:  # EMFILE from os.pipe, EAGAIN or ENOMEM from os.fork
        return None


def _execute(cfg: ExperimentConfig, outdir: str):
    """Run cfg, writing its artifacts under outdir; returns the columns of
    diagnostics.csv (name -> array, one value per snapshot) and the RunResult."""
    sim = build_sim_config(cfg)
    d = cfg.diag
    engine = DiagnosticsEngine(
        cfg.params,
        sim.bathymetry,
        alpha=d.alpha,
        weight_mode=d.weight_mode,
        fixed_lambda=d.fixed_lambda if d.weight_mode == "fixed" else None,
    )
    initial_csv = os.path.join(outdir, "initial_state.csv")
    worker = _start_worker(engine, sim.grid, initial_csv)
    try:
        result = run(sim, observer=worker.send if worker else _writing_initial(initial_csv, engine))
        if worker:
            worker.send(None)  # the worker's last block overlaps the write below
        _write_state_csv(os.path.join(outdir, "final_state.csv"), result.final_state)
        columns = (worker or engine).table()
    finally:
        if worker:
            worker.close()
    _write_csv(os.path.join(outdir, "diagnostics.csv"), list(columns), list(columns.values()))
    _write_text(os.path.join(outdir, "plot_diagnostics.py"), PLOT_SCRIPT)
    return columns, result


def _base_summary(cfg: ExperimentConfig, cols: dict, result) -> dict:
    h1 = cols["h1_norm"]
    residual_maxima = {
        "decomposition": _nanmax(cols["decomposition_residual"]),
        "change_of_variables": _nanmax(cols["change_var_residual"]),
        "canonical_l2": _nanmax(cols["canon_l2_residual"]),
        "canonical_nonlocal": _nanmax(cols["canon_nonlocal_residual"]),
    }
    for name in DiagnosticsEngine.RESIDUAL_COLUMNS:  # an FD check that ran left a value
        if not np.isnan(cols[name]).all():
            residual_maxima[name.removesuffix("_residual") + "_rate"] = _nanmax(cols[name])
    return {
        "kind": cfg.kind,
        "seed": cfg.seed,
        "params": _params_meta(cfg.params),
        "grid": {"half_length": cfg.grid.half_length, "n": cfg.grid.n},
        "bathymetry": cfg.bathy.preset,
        "time": {
            "dt": cfg.time.dt,
            "t_start": cfg.time.t_start,
            "t_end": cfg.time.t_end,
            "snapshot_every": cfg.time.snapshot_every,
        },
        "alpha": cfg.diag.alpha,
        "weight_mode": cfg.diag.weight_mode,
        "n_steps": result.n_steps,
        "n_snapshots": h1.size,
        "norms": {
            "initial_h1": float(h1[0]),
            "sup_h1": float(np.max(h1)),
            "final_h1": float(h1[-1]),
            "sup_ratio": _sup_ratio(h1),
        },
        "residual_maxima": residual_maxima,
    }


# -- experiment kinds ----------------------------------------------------

def _run_identity_suite(cfg: ExperimentConfig, outdir: str) -> int:
    summary = _base_summary(cfg, *_execute(cfg, outdir))
    threshold = cfg.diag.residual_threshold
    maxima = summary["residual_maxima"]
    # a promised check with no finite value did not run: that fails the suite
    missing = [k for k in PROMISED_RESIDUALS if maxima.get(k) is None]
    worst = _nanmax([v for v in maxima.values() if v is not None])
    ok = not missing and worst is not None and worst < threshold
    summary["flags"] = {"residuals_ok": bool(ok)}
    summary["residual_threshold"] = threshold
    _write_json(os.path.join(outdir, "summary.json"), summary)
    note = f"; no finite value for {', '.join(missing)}" if missing else ""
    print(f"identity-suite: worst residual {fmt_float(worst if worst is not None else math.nan)}"
          f" vs threshold {fmt_float(threshold)}{note} -> {'pass' if ok else 'FAIL'}")
    return EXIT_PASS if ok else EXIT_FAIL


def _sup_ratio(h1) -> float:
    """sup of the H1 norm over the run vs its initial value (0 for zero data)."""
    initial = float(h1[0])
    return float(np.max(h1)) / initial if initial > 0.0 else 0.0


def _decay_verdict(out: dict, cols: dict, out_of_region: bool) -> bool:
    """Put the decay flags of the diagnostics.csv columns cols into out (a
    summary or a report); True if the run passes.

    Outside the classifier region no decay conclusion applies: the flags
    are reported under "observed" and not asserted.
    """
    t, windowed, running = cols["t"], cols["windowed_h1"], cols["running_decay_integral"]
    w = windowed[np.isfinite(windowed)]
    flags = {
        "bounded": bool(_sup_ratio(cols["h1_norm"]) <= DECAY_SUP_RATIO),
        "windowed_final_ok": bool(w.size and w[-1] <= DECAY_FINAL_RATIO * float(np.max(w))),
        "integral_converged": False,
    }
    done = np.isfinite(running)
    rfin = running[done]
    if rfin.size:
        r_end, growth = float(rfin[-1]), 0.0
        if r_end > 0.0:  # a running integral that is not positive has not grown
            t_fin = t[done]
            i_cut = int(np.searchsorted(t_fin, t_fin[0] + 0.8 * (t_fin[-1] - t_fin[0])))
            growth = (r_end - float(rfin[min(i_cut, rfin.size - 1)])) / r_end
        flags["integral_converged"] = bool(growth < DECAY_GROWTH_LIMIT)
        flags["integral_growth"] = growth
    if out_of_region:
        out["flags"] = {"out_of_region": True}
        out["observed"] = flags
        return True
    out["flags"] = flags
    return flags["bounded"] and flags["windowed_final_ok"] and flags["integral_converged"]


def _run_decay(cfg: ExperimentConfig, outdir: str) -> int:
    cols, result = _execute(cfg, outdir)
    summary = _base_summary(cfg, cols, result)

    p = cfg.params
    try:
        verdict = satisfies_refined_dispersion(p.a, p.c)
        region = {"accepted": verdict.accepted, "branch": verdict.branch, "margin": verdict.margin}
    except ValueError as exc:
        region = {"accepted": False, "branch": "domain-violation", "margin": math.nan,
                  "note": str(exc)}
    summary["region"] = region
    out_of_region = not region["accepted"]
    summary["out_of_region"] = out_of_region

    ok = _decay_verdict(summary, cols, out_of_region)
    _write_json(os.path.join(outdir, "summary.json"), summary)
    if out_of_region:
        print(f"decay-run: params (a={fmt_float(p.a)}, c={fmt_float(p.c)}) out-of-region;"
              " metrics reported without decay assertion")
    else:
        print("decay-run: bounded={bounded} windowed_final_ok={windowed_final_ok} "
              "integral_converged={integral_converged}".format(**summary["flags"])
              + f" -> {'pass' if ok else 'FAIL'}")
    return EXIT_PASS if ok else EXIT_FAIL


def _run_region_map(cfg: ExperimentConfig, outdir: str) -> int:
    r = cfg.region
    a_vals, c_vals = build_region_axes(cfg)
    # one elementwise test over the grid; cells run over c within each a
    v = satisfies_refined_dispersion(a_vals[:, None], c_vals[None, :], r.b)
    accepted, branch, margin = v.accepted.ravel(), v.branch.ravel(), v.margin.ravel()
    alpha = np.full(branch.size, "", dtype=object)
    if r.with_alpha:  # one array search over every cell inside the domain
        inside = np.flatnonzero(branch != "domain-violation")
        i_a, i_c = np.divmod(inside, c_vals.size)
        distinct, which = np.unique(admissible_alphas(a_vals[i_a], c_vals[i_c])[0], return_inverse=True)
        texts = [s if s != "nan" else "" for s in _float_texts(distinct)]  # each distinct α formatted once
        alpha[inside] = np.array(texts, dtype=object)[which]
    _write_csv(os.path.join(outdir, "region_map.csv"),  # each axis value formatted once
               ["a", "c", "accepted", "branch", "margin", "alpha_if_any"],
               [[s for s in _float_texts(a_vals) for _ in range(c_vals.size)],
                _float_texts(c_vals) * a_vals.size, accepted, branch.tolist(), margin, alpha.tolist()])
    n_acc = int(np.count_nonzero(accepted))
    _write_json(os.path.join(outdir, "summary.json"), {
        "kind": cfg.kind,
        "cells": branch.size,
        "accepted_cells": n_acc,
        "grid": {"a_min": r.a_min, "a_max": r.a_max, "c_min": r.c_min,
                 "c_max": r.c_max, "step": r.step, "b": r.b},
    })
    print(f"region-map: {branch.size} cells, {n_acc} accepted")
    return EXIT_PASS


def _run_audit(cfg: ExperimentConfig, outdir: str) -> int:
    grid = build_grid(cfg)
    bathy = build_bathymetry(cfg)
    rep = hypothesis_report(bathy, grid, cfg.audit.t_max, cfg.audit.eps, cfg.audit.c_const)
    payload = rep.as_dict()
    payload["preset"] = cfg.bathy.preset
    _write_json(os.path.join(outdir, "audit.json"), payload)
    print(f"audit-bathymetry: preset {cfg.bathy.preset} "
          f"{'passes' if rep.passed else 'FAILS'} the bottom hypotheses")
    return EXIT_PASS if rep.passed else EXIT_FAIL


_RUNNERS = {
    "identity-suite": _run_identity_suite,
    "decay-run": _run_decay,
    "region-map": _run_region_map,
    "hypothesis-audit": _run_audit,
}


def _dispatch_run(cfg: ExperimentConfig) -> int:
    return _RUNNERS[cfg.kind](cfg, resolve_output_dir(cfg))


# -- report command ------------------------------------------------------

def _read_csv_columns(path: str) -> dict:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        cols: dict = {name: [] for name in reader.fieldnames}
        for row in reader:
            for name, val in row.items():
                cols[name].append(val)
    return {name: np.array([float(v) if v != "" else math.nan for v in vals])
            for name, vals in cols.items()}


def _make_report(run_dir: str) -> int:
    diag_path = os.path.join(run_dir, "diagnostics.csv")
    summary_path = os.path.join(run_dir, "summary.json")
    if not os.path.exists(diag_path) or not os.path.exists(summary_path):
        raise ConfigError(f"run directory {run_dir!r} is missing diagnostics.csv or summary.json")
    with open(summary_path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    kind = summary.get("kind")
    if kind != "decay-run":  # the decay gate means nothing for another kind
        raise ConfigError(f'run directory {run_dir!r} holds a run of kind "{kind}"; '
                          'report takes a decay-run only')
    cols = _read_csv_columns(diag_path)

    windowed, running = cols["windowed_h1"], cols["running_decay_integral"]
    finite = np.isfinite(windowed)
    envelope = np.maximum.accumulate(windowed[finite]) if finite.any() else np.array([])
    report = {
        "run_dir_kind": kind,
        "n_snapshots": int(cols["t"].size),
        "sup_ratio": _sup_ratio(cols["h1_norm"]),
        "windowed_final": float(windowed[finite][-1]) if finite.any() else None,
        "windowed_max": float(envelope[-1]) if envelope.size else None,
        "windowed_final_over_max": (
            float(windowed[finite][-1] / envelope[-1])
            if envelope.size and envelope[-1] > 0.0 else 0.0
        ),
        "running_integral_final": float(running[np.isfinite(running)][-1])
        if np.isfinite(running).any() else None,
    }
    out_of_region = bool(summary.get("out_of_region", False))
    report["out_of_region"] = out_of_region
    ok = _decay_verdict(report, cols, out_of_region)
    _write_json(os.path.join(run_dir, "report.json"), report)
    print(f"report: {'out-of-region, no decay assertion' if out_of_region else ('pass' if ok else 'FAIL')}")
    return EXIT_PASS if ok else EXIT_FAIL


# -- argument parsing ----------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="abcdsim", description="Dispersive wave simulation harness")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run the experiment described by a config file")
    p_run.add_argument("config")

    p_rep = sub.add_parser("report", help="summarize a completed decay run directory")
    p_rep.add_argument("run_dir")

    p_map = sub.add_parser("region-map", help="sweep the (a, c) admissibility region")
    p_map.add_argument("config")

    p_aud = sub.add_parser("audit-bathymetry", help="check a bottom preset against the hypotheses")
    p_aud.add_argument("config")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "report":
            return _make_report(args.run_dir)
        cfg = parse_config(args.config)
        if args.command == "region-map" and cfg.kind != "region-map":
            raise ConfigError(f'config kind is "{cfg.kind}", expected "region-map"')
        if args.command == "audit-bathymetry" and cfg.kind != "hypothesis-audit":
            raise ConfigError(f'config kind is "{cfg.kind}", expected "hypothesis-audit"')
        return _dispatch_run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationAbort as exc:
        print(f"run aborted ({exc.reason}): {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
