"""The benchmark's workloads: seeded configs and the correctness gate.

Each workload is one `abcdsim` command line on a config the benchmark
writes.  The seed moves only what cannot change the cost or break a
check: the Gaussian's center and width, the bump's center, and the
region grid's offset within one step.  Run lengths are cut from the
shipped configs so that several runs fit in one measurement; grid size,
time step, snapshot cadence and weights are the shipped ones, so the
cost per step and per snapshot is unchanged.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919  # later claims are re-checked on this seed too

RESIDUAL_THRESHOLD = 1e-6
# the eight checks an identity suite promises in summary.json
PROMISED_RESIDUALS = (
    "decomposition", "change_of_variables", "canonical_l2", "canonical_nonlocal",
    "hamiltonian_rate", "virial_i_rate", "virial_j_rate", "local_energy_rate",
)
NORM_RTOL = 1e-9          # summary norms vs the stored reference, and vs closed form
FLAT_ENERGY_DRIFT = 1e-8  # max |H - H0| / |H0| on a flat bottom (criterion 3 bound)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _ini(sections: dict) -> str:
    lines = []
    for name, pairs in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}" for k, v in pairs.items()]
        lines.append("")
    return "\n".join(lines)


def _gaussian(rng: random.Random) -> dict:
    return {"kind": "gaussian", "eps": 1e-2, "width": rng.uniform(4.5, 5.5),
            "center": rng.uniform(-2.0, 2.0)}


def identity_n512(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "experiment": {"kind": "identity-suite", "output_dir": "out", "seed": 7},
        "params": {"mode": "direct", "a": -1.0, "c": -1.0, "a1": 0.0, "c1": 0.0},
        "grid": {"half_length": "40*pi", "n": 512},
        "bathymetry": {"preset": "flat"},
        "initial": _gaussian(rng),
        "time": {"dt": 1e-3, "t_end": 1.0, "snapshot_every": 5},
        "diagnostics": {"alpha": 0.0, "weight_mode": "fixed", "fixed_lambda": 10.0,
                        "residual_threshold": RESIDUAL_THRESHOLD},
    }


def decay_n4096(seed: int) -> dict:
    rng = random.Random(seed)
    initial = _gaussian(rng)
    initial["ratio"] = 1.0
    return {
        "experiment": {"kind": "decay-run", "output_dir": "out", "seed": 11},
        "params": {"mode": "direct", "a": -1.0, "c": -1.0},
        "grid": {"half_length": "200*pi", "n": 4096},
        "bathymetry": {"preset": "flat"},
        "initial": initial,
        "time": {"dt": 0.05, "t_start": 11.0, "t_end": 31.0, "snapshot_every": 10},
        "diagnostics": {"alpha": 0.0, "weight_mode": "schedule"},
    }


def bump_n512(seed: int) -> dict:
    rng = random.Random(seed)
    initial = _gaussian(rng)
    return {
        "experiment": {"kind": "identity-suite", "output_dir": "out", "seed": 0},
        "params": {"mode": "physical", "theta": math.sqrt(0.6), "lambda_p": -2.0,
                   "mu_p": -1.0, "b": 0.4},
        "grid": {"half_length": "40*pi", "n": 512},
        "bathymetry": {"preset": "decaying-bump", "amplitude": 1e-2, "width": 2.0,
                       "center": rng.uniform(-1.0, 1.0), "t0": 11.0},
        "initial": initial,
        "time": {"dt": 1e-3, "t_start": 11.0, "t_end": 12.0, "snapshot_every": 20},
        "diagnostics": {"alpha": 0.5, "weight_mode": "schedule",
                        "residual_threshold": RESIDUAL_THRESHOLD},
    }


def region_map(seed: int) -> dict:
    step = 0.01
    offset = random.Random(seed).uniform(0.0, 0.5) * step
    return {
        "experiment": {"kind": "region-map", "output_dir": "out", "seed": 0},
        "region": {"a_min": -1.0 + offset, "a_max": -0.01 + offset, "c_min": -1.0 + offset,
                   "c_max": -0.01 + offset, "step": step, "b": 1.0, "with_alpha": "true"},
    }


# -- correctness gate ----------------------------------------------------

def _gaussian_h1(initial: dict) -> float:
    """H1 x H1 norm of eta = eps exp(-((x-x0)/w)^2), u = ratio * eta on the line."""
    w = initial["width"]
    ratio = initial.get("ratio", 1.0)
    return initial["eps"] * math.sqrt((1.0 + ratio**2) * math.sqrt(math.pi / 2.0) * (w + 1.0 / w))


def _close(got, want) -> bool:
    return got is not None and math.isfinite(got) and abs(got - want) <= NORM_RTOL * abs(want)


def stored_reference(workload: str, seed: int):
    """What reference.json holds for this workload and seed, or None."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def _csv_column(path: str, name: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


def _check_norms(problems, config, summary, ref):
    norms = summary.get("norms", {})
    if not _close(norms.get("initial_h1"), _gaussian_h1(config["initial"])):
        problems.append(f"initial_h1 {norms.get('initial_h1')} != closed form")
    if ref is not None:
        for key, want in ref["norms"].items():
            if not _close(norms.get(key), want):
                problems.append(f"norm {key} {norms.get(key)} != reference {want}")


def _check_flat_energy(problems, outdir):
    h = _csv_column(os.path.join(outdir, "diagnostics.csv"), "hamiltonian")
    drift = max(abs(v - h[0]) for v in h) / abs(h[0])
    if not drift < FLAT_ENERGY_DRIFT:
        problems.append(f"flat-bottom energy drift {drift} >= {FLAT_ENERGY_DRIFT}")


def check_identity(config, outdir, summary, stdout, ref) -> list:
    problems = []
    if "-> pass" not in stdout or summary.get("flags") != {"residuals_ok": True}:
        problems.append("identity suite verdict is not pass")
    maxima = summary.get("residual_maxima", {})
    for key in PROMISED_RESIDUALS:
        v = maxima.get(key)
        if not (isinstance(v, float) and math.isfinite(v) and v < RESIDUAL_THRESHOLD):
            problems.append(f"residual {key} = {v!r} missing, non-finite or >= {RESIDUAL_THRESHOLD}")
    _check_norms(problems, config, summary, ref)
    if config["bathymetry"]["preset"] == "flat":
        _check_flat_energy(problems, outdir)
    return problems


def check_decay(config, outdir, summary, stdout, ref) -> list:
    problems = []
    flags = summary.get("flags", {})
    if "-> pass" not in stdout:
        problems.append("decay run verdict is not pass")
    for key in ("bounded", "windowed_final_ok", "integral_converged"):
        if flags.get(key) is not True:
            problems.append(f"decay flag {key} is {flags.get(key)!r}")
    if summary.get("out_of_region") is not False:
        problems.append("decay run reports out_of_region")
    _check_norms(problems, config, summary, ref)
    _check_flat_energy(problems, outdir)
    return problems


def _region_accepts(a: float, c: float) -> bool:
    """Independent transcription of the admissibility test (b = 1)."""
    if 8.0 * a * c - 3.0 * (a + c) - 2.0 > 0.0:
        return True
    th = -(19.0 + math.sqrt(181.0)) / 90.0
    if c <= a:
        if -1.0 <= c < th:
            return 45.0 * a * c - (1.0 - a) > 0.0
        if th <= c < -1.0 / 3.0:
            return 18.0 * a * c + a + c > 0.0
        if -1.0 / 3.0 <= c < -1.0 / 9.0:
            return 27.0 * a * c - (6.0 * a + 1.0) > 0.0
        return False
    if -1.0 - 1.0 / 6.0 <= a < th:
        return 45.0 * a * c - (1.0 - c) > 0.0
    if th <= a < -1.0 / 3.0:
        return 18.0 * a * c + a + c > 0.0
    if -1.0 / 3.0 <= a < -1.0 / 9.0:
        return 27.0 * a * c - (6.0 * c + 1.0) > 0.0
    return False


def _alpha_certifies(a: float, c: float, alpha: float) -> bool:
    coeffs = (-alpha - 1.5 * a, -(1.0 - a) * alpha - 2.0 * a - 0.5, a * (alpha - 0.5),
              alpha - 1.5 * c, (1.0 - c) * alpha - 2.0 * c - 0.5, -c * (alpha + 0.5))
    return min(coeffs) >= 0.0


# the alpha grid the region map scans: k * ALPHA_STEP for |k| <= ALPHA_K
# (find_admissible_alpha's defaults, which the CLI uses)
ALPHA_STEP = 1e-3
ALPHA_K = 4000


def _alpha_exists(a: float, c: float) -> bool:
    """Whether some scanned alpha makes the six leading coefficients nonnegative.

    Each coefficient is p * alpha + q, so the admissible alphas form one
    interval, found in closed form.  A grid point at least one step
    inside it certifies with room to spare; a grid point within rounding
    of an end is decided by evaluating the coefficients there.
    """
    lo, hi = -ALPHA_K * ALPHA_STEP, ALPHA_K * ALPHA_STEP
    for p, q in ((-1.0, -1.5 * a), (-(1.0 - a), -2.0 * a - 0.5), (a, -0.5 * a),
                 (1.0, -1.5 * c), (1.0 - c, -2.0 * c - 0.5), (-c, -0.5 * c)):
        if p > 0.0:
            lo = max(lo, -q / p)
        elif p < 0.0:
            hi = min(hi, -q / p)
        elif q < 0.0:
            return False
    k_lo, k_hi = math.ceil(lo / ALPHA_STEP), math.floor(hi / ALPHA_STEP)
    if k_lo + 1 < k_hi:
        return True
    return any(_alpha_certifies(a, c, k * ALPHA_STEP)
               for k in range(max(k_lo - 1, -ALPHA_K), min(k_hi + 1, ALPHA_K) + 1))


def _region_rows(outdir: str) -> list:
    with open(os.path.join(outdir, "region_map.csv"), newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _region_counts(rows: list) -> dict:
    return {"cells": len(rows),
            "accepted_cells": sum(r["accepted"] == "true" for r in rows),
            "alpha_cells": sum(bool(r["alpha_if_any"]) for r in rows)}


def check_region(config, outdir, summary, stdout, ref) -> list:
    problems = []
    rows = _region_rows(outdir)
    for row in rows:
        a, c = float(row["a"]), float(row["c"])
        if (row["accepted"] == "true") != _region_accepts(a, c):
            problems.append(f"cell ({a!r}, {c!r}) accepted={row['accepted']} disagrees with the reference test")
        alpha = row["alpha_if_any"]
        if bool(alpha) != _alpha_exists(a, c):
            problems.append(f"cell ({a!r}, {c!r}) alpha {alpha!r}, but an admissible alpha "
                            f"{'exists' if not alpha else 'does not exist'}")
        elif alpha and not _alpha_certifies(a, c, float(alpha)):
            problems.append(f"cell ({a!r}, {c!r}) alpha {alpha} is not admissible")
    counts = _region_counts(rows)
    r = config["region"]
    # numpy.arange(a_min, a_max + step / 2, step) cells per axis
    n_axis = math.ceil((r["a_max"] + 0.5 * r["step"] - r["a_min"]) / r["step"])
    if counts["cells"] != n_axis * n_axis or summary.get("cells") != counts["cells"]:
        problems.append(f"{counts['cells']} cells written, summary {summary.get('cells')}, "
                        f"expected {n_axis ** 2}")
    if summary.get("accepted_cells") != counts["accepted_cells"]:
        problems.append(f"summary accepted_cells {summary.get('accepted_cells')} != {counts['accepted_cells']}")
    if f"region-map: {counts['cells']} cells, {counts['accepted_cells']} accepted" not in stdout:
        problems.append("region-map verdict line missing")
    if ref is not None and ref["counts"] != counts:
        problems.append(f"counts {counts} != reference {ref['counts']}")
    return problems[:20]


def observed_reference(config: dict, outdir: str, summary: dict) -> dict:
    """What reference.json stores for one run: norms or region counts."""
    if "region" in config:
        return {"counts": _region_counts(_region_rows(outdir))}
    return {"norms": {k: summary["norms"][k] for k in ("initial_h1", "sup_h1", "final_h1")}}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each exists is stated in BENCHMARK.json."""

    name: str
    command: str                       # abcdsim subcommand
    work_unit: str                     # what work_per_s counts
    make: Callable[[int], dict]        # seed -> config sections
    check: Callable[..., list]         # (config, outdir, summary, stdout, stored reference or None) -> problems

    def config_text(self, seed: int) -> str:
        return _ini(self.make(seed))


WORKLOADS = {w.name: w for w in (
    Workload("identity_n512", "run", "rk4_step", identity_n512, check_identity),
    Workload("decay_n4096", "run", "rk4_step", decay_n4096, check_decay),
    Workload("bump_n512", "run", "rk4_step", bump_n512, check_identity),
    Workload("region_map", "region-map", "cell", region_map, check_region),
)}
