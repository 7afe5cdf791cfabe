"""Shared pytest hooks: verdict lines for the acceptance criteria, a
counter of the package's transforms, a switch of their binding, and a
check that a test leaves no child process behind."""

import os
import re
import sys

import pytest


@pytest.fixture
def transform_calls(monkeypatch):
    """The (name, input) of every transform the package makes from here on,
    named "_rfft" or "_irfft".

    Every transform goes through the pair `abcdsim.grid` binds,
    `_rfft_bound` and `_irfft_bound` (see
    `tests/test_grid.py::TestTransformBinding`): `Grid._rfft` and
    `Grid._irfft` call them, and so do the dealiased products.  Patching
    the two counts them all; clear the list to start a new count.  Binding
    the transforms anew (`bind_transforms`) replaces the counters.
    """
    import abcdsim.grid as grid_module

    calls = []
    for name in ("_rfft", "_irfft"):
        def counted(a, *args, _name=name, _fn=getattr(grid_module, name + "_bound")):
            calls.append((_name, a))
            return _fn(a, *args)

        monkeypatch.setattr(grid_module, name + "_bound", counted)
    return calls


@pytest.fixture
def bind_transforms(monkeypatch):
    """bind(name) binds the package's transforms until the test ends, as
    `abcdsim.grid._bind_transforms` binds them: "scipy" (skipped where its
    extension is not installed), "numpy" (the extension hidden) or "np.fft"
    (numpy's ufuncs hidden as well)."""
    import abcdsim.grid as grid_module

    def bind(name):
        if name == "scipy" and grid_module._load_pypocketfft() is None:
            pytest.skip("scipy's pocketfft extension is not installed")
        if name != "scipy":
            monkeypatch.setattr(grid_module, "_load_pypocketfft", lambda: None)
        if name == "np.fft":
            # np.fft keeps the module it already holds, so only the binding falls back
            monkeypatch.setitem(sys.modules, "numpy.fft._pocketfft_umath", None)
        bound = grid_module._bind_transforms()
        assert bound[0] == name
        for attr, value in zip(("_BINDING", "_rfft_bound", "_irfft_bound"), bound):
            monkeypatch.setattr(grid_module, attr, value)

    return bind


@pytest.fixture
def no_child_left():
    """Fail a test that leaves a child process behind, running or not reaped."""
    yield
    if hasattr(os, "WNOHANG"):
        with pytest.raises(ChildProcessError):  # no child at all
            os.waitpid(-1, os.WNOHANG)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = []
    for outcome in ("passed", "failed"):
        for rep in terminalreporter.stats.get(outcome, []):
            if getattr(rep, "when", None) != "call":
                continue
            name = rep.location[2]
            m = re.search(r"test_criterion_(\d+)_(\w+)", name)
            if m:
                verdicts.append((int(m.group(1)), m.group(2), outcome == "passed"))
    if not verdicts:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num, slug, ok in sorted(verdicts):
        label = slug.replace("_", " ")
        terminalreporter.write_line(
            f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
        )
