"""abcdsim benchmark: end-to-end timings of real CLI runs, gated on correctness.

Usage (from the repository root):

    python3 perfbench/run.py --workload identity_n512 --seed 0 --seconds 24 --trace 0

Every run is one `abcdsim` command line in a fresh single-threaded Python
process (BLAS/OpenMP thread variables pinned to 1), one at a time, on a
config generated from --seed (see workloads.py).  Every run is checked
(workloads.py) and counts as failed when a check does not hold.

--trace 0: one warm-up run, then untraced runs for --seconds, with the
speed probe (speed.py) run before the first and after each; prints the
end-to-end medians, each run's times scaled to the probe's reference
speed.  The raw medians are in the details line.  --trace 1: untraced runs for half of --seconds,
then two traced runs; prints the per-layer metrics of the traced runs
(times as their median, counts required to repeat exactly), the
tracing overhead, the share of failed runs and the minor page faults
of the untraced runs.  Metric names and units, and why each workload
exists, are read from BENCHMARK.json.  The last line of stdout is the
JSON result; the line before it holds percentiles, sample counts and
the environment.  Artifacts go to .bench_out/ under the current
directory.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
from metrics import per_layer, summarize  # noqa: E402
from workloads import (DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, observed_reference,  # noqa: E402
                       stored_reference)

SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TRACED_RUNS = 2
MIN_RUNS = 3
DEADLINE_S = 170.0  # the whole benchmark must exit within 180 s


@dataclass
class Sample:
    wall: float | None = None
    setup: float | None = None
    work: int = 0
    rss_mb: float = 0.0
    minflt: int = 0
    n_steps: int = 0
    n_snapshots: int = 0
    bytes_written: int = 0
    import_s: float = 0.0
    scale: float = 1.0  # speed.REFERENCE_S / probe time around the run
    trace: dict | None = None
    observed: dict | None = None  # what reference.json would store for this run
    problems: list = field(default_factory=list)


class Bench:
    def __init__(self, root: str, workload, seed: int, trace: int, started: float):
        self.root = root
        self.src = os.path.join(root, "src")
        self.wl = workload
        self.seed = seed
        self.started = started
        # the seed stays out of every path the run sees: the region map's
        # page-fault count (most of its time) shifts with the heap layout,
        # which path lengths change
        self.out = os.path.join(root, ".bench_out", f"{workload.name}-trace{trace}")
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        self.config = workload.make(seed)
        self.ref = stored_reference(workload.name, seed)
        self.config_path = os.path.join(self.out, "config.ini")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(workload.config_text(seed))
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        # bytecode is cached as for an installed package, but inside the checkout
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(root, ".bench_out", "pycache")
        self.env.update({k: "1" for k in THREAD_VARS})
        self.env["PYTHONPATH"] = self.src
        self.samples: list[Sample] = []

    def time_left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def invoke(self, traced: bool = False) -> Sample:
        """One CLI run in a fresh process, timed and checked."""
        run_dir = os.path.join(self.out, "run")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        result_path = os.path.join(run_dir, "child.json")
        argv = [sys.executable, os.path.join(HERE, "child.py"), "--result", result_path]
        if traced:
            argv += ["--spans", os.path.join(self.out, "spans.json.gz")]
        argv += ["--", self.wl.command, self.config_path]
        env = dict(self.env, ABCDSIM_OUT_ROOT=run_dir)
        s = Sample()
        with open(os.path.join(run_dir, "stdout.txt"), "wb") as out, \
                open(os.path.join(run_dir, "stderr.txt"), "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=run_dir)
            status, rusage = self._wait(proc)
        if rusage:
            s.rss_mb = rusage.ru_maxrss / 1024.0
            s.minflt = rusage.ru_minflt
        self.samples.append(s)
        if status is None:
            s.problems.append("run killed at the benchmark deadline")
            return s
        if not os.path.exists(result_path):
            s.problems.append(f"run process exited with status {status} and no result")
            return s
        with open(result_path, encoding="utf-8") as fh:
            child = json.load(fh)
        s.wall = child["end"] - start
        s.setup = child["setup_end"] - start if child["setup_end"] is not None else None
        s.import_s = child["import_s"]
        s.trace = child.get("trace")
        if not os.path.realpath(child["package_file"]).startswith(os.path.realpath(self.src) + os.sep):
            s.problems.append(f"abcdsim imported from {child['package_file']}, not from {self.src}")
        if child["rc"] != 0 or s.setup is None:
            s.problems.append(f"exit code {child['rc']}, setup mark {s.setup}")
            return s
        s.problems += self._check(s, run_dir)
        shutil.rmtree(run_dir, ignore_errors=True)
        return s

    def _wait(self, proc):
        """Reap the child with its own rusage; kill it at the deadline."""
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, rusage
            if self.time_left() <= 0:
                proc.kill()
                _, _, rusage = os.wait4(proc.pid, 0)
                proc.returncode = -9
                return None, rusage
            time.sleep(0.005)

    def _check(self, s: Sample, run_dir: str) -> list:
        outdir = os.path.join(run_dir, "out")
        try:
            with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
            with open(os.path.join(run_dir, "stdout.txt"), encoding="utf-8") as fh:
                stdout = fh.read()
            problems = self.wl.check(self.config, outdir, summary, stdout, self.ref)
            s.observed = observed_reference(self.config, outdir, summary)
        except (OSError, ValueError, KeyError) as exc:
            return [f"artifacts unreadable: {exc!r}"]
        s.n_steps = summary.get("n_steps", 0)
        s.n_snapshots = summary.get("n_snapshots", 0)
        s.work = s.n_steps if self.wl.work_unit == "rk4_step" else summary.get("cells", 0)
        s.bytes_written = sum(os.path.getsize(p) for p in glob.glob(os.path.join(outdir, "*")))
        if s.work <= 0:
            problems.append("no work reported")
        return problems

    def untraced(self, seconds: float, min_runs: int) -> list:
        """Untraced runs until `seconds` have passed (at least min_runs),
        each between two speed probes."""
        speed.probe()  # warm-up
        t0 = time.monotonic()
        before = speed.probe()
        runs = []
        while len(runs) < min_runs or time.monotonic() - t0 < seconds:
            if self.time_left() < 2.0 * max([(r.wall or 0.0) + before for r in runs] + [1.0]):
                break
            run = self.invoke()
            after = speed.probe()
            run.scale = speed.REFERENCE_S / (0.5 * (before + after))
            before = after
            runs.append(run)
        return runs


def end_to_end(runs: list) -> dict:
    timed = [r for r in runs if r.wall is not None and r.setup is not None]
    if not timed:
        return {}
    series = {
        "wall_s": [r.wall * r.scale for r in timed],
        "setup_s": [r.setup * r.scale for r in timed],
        "work_per_s": [r.work / ((r.wall - r.setup) * r.scale) for r in timed],
        "peak_rss_mb": [r.rss_mb for r in timed],
        "raw_wall_s": [r.wall for r in timed],
        "raw_setup_s": [r.setup for r in timed],
        "speed_scale": [r.scale for r in timed],
        "minor_faults": [r.minflt for r in timed],
    }
    return {name: summarize(values) for name, values in series.items()}


def layer_metrics(traced: list, untraced_wall: float) -> tuple:
    """Median per-layer metrics over the traced runs, and count mismatches."""
    per_run = [per_layer(r.trace, r.n_steps, r.n_snapshots, r.wall, r.bytes_written, r.import_s)
               for r in traced if r.trace is not None and r.wall is not None]
    problems = []
    counts = [r.trace["counts"] for r in traced if r.trace is not None]
    if len(counts) != len(traced) or any(c != counts[0] for c in counts[1:]):
        problems.append("call counts differ between traced runs of the same code")
    if not per_run:
        return {}, problems
    merged = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    merged["trace.overhead_s"] = merged["trace.wall_s"] - untraced_wall
    return merged, problems


def environment(root: str) -> dict:
    import numpy

    src = os.path.join(root, "src", "abcdsim")
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.basename(path).encode() + b"\0" + data)
        lines += data.count(b"\n")
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_vars": {k: "1" for k in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "abcdsim", "cli.py")):
        print(f"benchmark: no abcdsim sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2

    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    bench = Bench(root, WORKLOADS[args.workload], args.seed, args.trace, started)
    bench.invoke()  # warm-up: bytecode and file caches; checked but not timed
    if args.trace:
        baseline = bench.untraced(args.seconds / 2.0, min_runs=2)
        traced = [bench.invoke(traced=True) for _ in range(TRACED_RUNS)]
        e2e = end_to_end(baseline)
        values, extra_problems = layer_metrics(traced, e2e["raw_wall_s"]["median"] if e2e else 0.0)
        if e2e:
            values["process.minor_faults"] = e2e["minor_faults"]["median"]
    else:
        e2e = end_to_end(bench.untraced(args.seconds, min_runs=MIN_RUNS))
        values = {name: v["median"] for name, v in e2e.items() if name in units}
        extra_problems = []
    if not e2e or not values:
        print("benchmark: no run produced timings; see " + bench.out, file=sys.stderr)
        return 1

    failed = sum(1 for s in bench.samples if s.problems)
    if args.trace:
        values["gate.failed_share"] = failed / len(bench.samples)
    if values.keys() != units.keys():
        print(f"benchmark: metrics {sorted(values.keys() ^ units.keys())} are measured but not "
              f"declared in {SPEC_PATH}, or declared but not measured", file=sys.stderr)
        return 1
    problems = [p for s in bench.samples for p in s.problems] + extra_problems
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "work_unit": bench.wl.work_unit, "failed_share": failed / len(bench.samples),
        "end_to_end": e2e, "problems": problems[:20], "environment": environment(root),
    }
    result = {
        "correct": not problems,
        "attempted": len(bench.samples),
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(bench.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
