"""How each metric is derived from the runs.

Names, units and directions are declared in BENCHMARK.json; run.py
refuses to print a result whose metrics differ from those declared.

End-to-end metrics come from untraced runs, one fresh process each.
Per-layer metrics come from the aggregates of a traced run (see
tracer.py).  A layer a workload does not exercise reads 0.

Caveats for reading the per-layer numbers:

* `_Snap` (diagnostics) computes its spectral scratch lazily, so each
  diagnostics family's self time includes the shared work charged to
  the first family that touches it.  Use diagnostics.observe_s for the
  diagnostics total.
* Transform counts are calls to numpy.fft.rfft / numpy.fft.irfft.  A
  change that stops calling a wrapped public function (rhs, step_rk4,
  observe, ...) or moves to another FFT entry point leaves the metrics
  built on it at 0 and has to say so.
"""

from __future__ import annotations

import statistics

from tracer import FFT_NAMES

FAMILIES = {
    "global": ("hamiltonian_h", "hamiltonian_rate_terms", "hamiltonian_rate_rhs",
               "hamiltonian_rate_rhs_alt", "momentum"),
    "virial": ("virial_I", "virial_J", "moving_weight_I", "moving_weight_J",
               "virial_rate_I_terms", "virial_rate_I_rhs", "virial_rate_J_terms",
               "virial_rate_J_rhs"),
    "decomposition": ("virial_rate_decomposition", "nh_bound_parts"),
    "canonical": ("quadratic_form_fg", "quadratic_form_scale", "canonical_identity_residuals"),
    "local_energy": ("local_energy", "local_energy_rate_terms", "local_energy_rate_rhs"),
    "decay": ("windowed_h1", "interval_h1", "decay_metrics"),
}

PER_CALL = {  # metric stem -> traced function
    "solver.rhs": "solver.rhs",
    "bathymetry.sample": "bathymetry.Bathymetry.sample",
    "diagnostics.observe": "diagnostics.DiagnosticsEngine.observe",
    "classifier.dispersion": "classifier.satisfies_refined_dispersion",
    "classifier.alpha_search": "classifier.find_admissible_alpha",
}


def high_percentile(values: list):
    """(value, percentile) of the highest percentile with >= 10 samples
    beyond it; (max, 100) when that percentile would not lie above the
    median (20 samples or fewer)."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, None
    if n <= 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def summarize(values: list) -> dict:
    hi, pct = high_percentile(values)
    return {"median": statistics.median(values), "hi": hi, "hi_percentile": pct, "n": len(values),
            "samples": values}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _count(counts: dict, name: str, tag: str | None = None, last: bool = False) -> int:
    """Calls of `name`, optionally only inside contexts carrying `tag`
    (or, with last=True, whose innermost tag is `tag`)."""
    total = 0
    for ctx, per_name in counts.items():
        tags = ctx.split("/") if ctx else []
        if tag is None or (tags[-1:] == [tag] if last else tag in tags):
            total += per_name.get(name, 0)
    return total


def per_layer(trace: dict, n_steps: int, n_snapshots: int, wall: float, bytes_written: int,
              import_s: float) -> dict:
    """Per-layer metrics of one traced run (trace.overhead_s is added by the caller).

    import_s is the time to import abcdsim (numpy included); it is the
    one layer measured outside the tracer, which is installed after it.
    """
    stats, counts, layer = trace["stats"], trace["counts"], trace["layer_self"]
    tag_time = trace["tag_time"]

    def self_s(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def ffts(tag=None, last=False):
        return sum(_count(counts, n, tag, last) for n in FFT_NAMES)

    rhs_calls = stats.get("solver.rhs", (0,))[0]
    stepping = tag_time.get("run", 0.0) - tag_time.get("observer", 0.0)
    m = {f"{name}.s": layer[name] for name in ("grid", "solver", "bathymetry", "weights",
                                                 "diagnostics", "classifier", "config", "cli")}
    m.update({
        "grid.transform_s": self_s(*FFT_NAMES),
        "grid.transforms_per_step": _ratio(ffts("step"), n_steps),
        "grid.rhs_transforms_per_call": _ratio(ffts("rhs"), rhs_calls),
        "grid.transforms_per_snapshot": _ratio(ffts("observe"), n_snapshots),
        "grid.guard_transforms_per_snapshot": _ratio(ffts("run", last=True), n_snapshots),
        "grid.integrate_calls_per_snapshot": _ratio(_count(counts, "grid.Grid.integrate", "observe"),
                                                    n_snapshots),
        "solver.stepping_s": stepping,
        "solver.step_us": 1e6 * _ratio(stepping, n_steps),
        "solver.rhs_calls_per_step": _ratio(rhs_calls, n_steps),
        "bathymetry.sample_calls_per_step": _ratio(
            _count(counts, "bathymetry.Bathymetry.sample", "step"), n_steps),
        "weights.calls_per_snapshot": _ratio(trace["tag_calls"].get("weights", 0), n_snapshots),
        "diagnostics.observe_s": tag_time.get("observe", 0.0),
        "diagnostics.finalize_s": tag_time.get("finalize", 0.0),
        "config.parse_s": tag_time.get("parse", 0.0),
        "config.build_s": tag_time.get("build", 0.0),
        "cli.bytes_written": bytes_written,
    })
    for fam, names in FAMILIES.items():
        m[f"diagnostics.{fam}_s"] = self_s(*(f"diagnostics.{n}" for n in names))
    for stem, fn in PER_CALL.items():
        calls = trace["durations"].get(fn, [])
        m[f"{stem}_p50_us"] = 1e6 * statistics.median(calls) if calls else 0.0
        m[f"{stem}_hi_us"] = 1e6 * high_percentile(calls)[0]
    m["import.s"] = import_s
    named = sum(layer.values()) + import_s
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - named
    m["trace.covered_share"] = _ratio(named, wall)
    return m
