"""Out-of-program tracer for the abcdsim package.

`Tracer.install` replaces the public functions and public methods of
every `abcdsim` module (and `numpy.fft.rfft` / `numpy.fft.irfft`) with
wrappers that time each call, and `Tracer.uninstall` puts every original
object back.  Nothing inside `src/` is edited.

Each call opens a frame on one stack (the program is single-threaded).
When the frame closes its inclusive time is added to the parent's child
time, so a function's self time is inclusive minus children, and each
layer's self time is the sum over the functions that belong to it.

Two kinds of wrapped call:

* spans: recorded as (id, name, start, end, parent id) and their
  per-call durations kept for percentiles;
* light calls (grid methods, FFTs, float formatting): counted and timed
  in aggregate only, because they run hundreds of times per snapshot.

Calls are counted per context, the tuple of context tags of the spans
that enclose them ("step", "rhs", "observe", ...), which is how the
benchmark tells stepping transforms from diagnostics transforms.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time

# module -> layer; initial and params do O(1)-per-run work inside config's builders
LAYER_OF_MODULE = {
    "grid": "grid",
    "solver": "solver",
    "bathymetry": "bathymetry",
    "weights": "weights",
    "diagnostics": "diagnostics",
    "classifier": "classifier",
    "config": "config",
    "initial": "config",
    "params": "config",
    "cli": "cli",
}
LAYERS = ("grid", "solver", "bathymetry", "weights", "diagnostics", "classifier", "config", "cli")

FFT_NAMES = ("numpy.fft.rfft", "numpy.fft.irfft")

# context tags: a call inside a tagged span is counted under that tag
TAGS = {
    "cli.main": "main",
    "config.parse_config": "parse",
    "config.build_sim_config": "build",
    "solver.run": "run",
    "solver.step_rk4": "step",
    "solver.rhs": "rhs",
    "cli.observer": "observer",
    "diagnostics.DiagnosticsEngine.observe": "observe",
    "diagnostics.DiagnosticsEngine.table": "finalize",
    "diagnostics.DiagnosticsEngine.rate_residuals": "finalize",
    "weights.weight_set": "weights",
    "weights.scheduled_weights": "weights",
    "weights.uniform_psi_weights": "weights",
}


def _is_light(name: str) -> bool:
    return name.startswith(("grid.", "numpy.fft.")) or name == "config.fmt_float"


# frame fields, kept in a list for speed
_NAME, _CTX, _ID, _START, _CHILD = range(5)


class Tracer:
    """Call tracer; `clock` is injectable so tests can drive it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = [["<process>", (), 0, 0.0, 0.0]]
        self._next_id = 0
        self._patches: list = []
        self._layer_of: dict = {}      # traced name -> layer
        self.spans: list = []          # (id, name, start, end, parent id)
        self.calls: dict = {}          # (ctx, name) -> [calls, inclusive s, self s]
        self.durations: dict = {}      # span name -> inclusive s per call
        self.tag_time: dict = {}       # tag -> inclusive s of outermost tagged spans
        self.tag_calls: dict = {}      # tag -> number of outermost tagged spans

    # -- recording -------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1]
        tag = TAGS.get(name)
        ctx = parent[_CTX] + (tag,) if tag is not None and tag not in parent[_CTX] else parent[_CTX]
        self._next_id += 1
        frame = [name, ctx, self._next_id, 0.0, 0.0]
        self._stack.append(frame)
        frame[_START] = self.clock()
        return frame

    def _exit(self, frame, light):
        end = self.clock()
        stack = self._stack
        if stack.pop() is not frame:
            raise RuntimeError(f"unbalanced trace stack closing {frame[_NAME]}")
        start = frame[_START]
        incl = end - start
        parent = stack[-1]
        parent[_CHILD] += incl
        key = (frame[_CTX], frame[_NAME])
        agg = self.calls.get(key)
        if agg is None:
            agg = self.calls[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += incl
        agg[2] += incl - frame[_CHILD]
        if light:
            return
        name = frame[_NAME]
        self.spans.append((frame[_ID], name, start, end, parent[_ID]))
        self.durations.setdefault(name, []).append(incl)
        if frame[_CTX] is not parent[_CTX]:  # outermost span carrying its tag
            tag = frame[_CTX][-1]
            self.tag_time[tag] = self.tag_time.get(tag, 0.0) + incl
            self.tag_calls[tag] = self.tag_calls.get(tag, 0) + 1

    def wrap(self, fn, name: str, layer: str):
        """Return a traced stand-in for fn, recorded as `name` in `layer`."""
        light = _is_light(name)
        self._layer_of[name] = layer
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame, light)

        return traced

    def _wrap_run(self, fn):
        """solver.run also traces the observer callback it is handed."""
        traced = self.wrap(fn, "solver.run", "solver")

        @functools.wraps(fn)
        def run(cfg, observer=None):
            if observer is not None:
                observer = self.wrap(observer, "cli.observer", "cli")
            return traced(cfg, observer=observer)

        return run

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public function and method of the abcdsim modules."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        import numpy.fft

        import abcdsim as pkg

        mods = {m: importlib.import_module(f"abcdsim.{m}") for m in LAYER_OF_MODULE}
        replaced: dict = {}
        for short, mod in mods.items():
            layer = LAYER_OF_MODULE[short]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    replaced[obj] = self._wrap_run(obj) if name == "solver.run" else self.wrap(obj, name, layer)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self.wrap(fn, f"{short}.{attr}.{meth}", layer))
        # rebind the module attribute and every `from .x import f` copy of it
        for mod in (pkg, *mods.values()):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in replaced:
                    self._patch(mod, attr, replaced[val])
        for name in FFT_NAMES:
            attr = name.rsplit(".", 1)[1]
            self._patch(numpy.fft, attr, self.wrap(getattr(numpy.fft, attr), name, "grid"))

    def uninstall(self) -> None:
        """Put back every original object, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """JSON-ready aggregates; contexts are joined with '/'."""
        stats: dict = {}
        counts: dict = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for (ctx, name), (n, incl, self_time) in self.calls.items():
            st = stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += n
            st[1] += incl
            st[2] += self_time
            counts.setdefault("/".join(ctx), {})[name] = n
            layer_self[self._layer_of[name]] += self_time
        return {
            "stats": stats,
            "durations": self.durations,
            "layer_self": layer_self,
            "counts": counts,
            "tag_time": self.tag_time,
            "tag_calls": self.tag_calls,
        }

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"], "spans": self.spans}, fh)
