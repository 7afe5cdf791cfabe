"""Shared pytest hooks: verdict lines for the acceptance criteria, and a
counter of the package's transforms."""

import re

import pytest

from abcdsim import Grid


@pytest.fixture
def transform_calls(monkeypatch):
    """The (name, input) of every transform the package makes from here on.

    Every transform goes through `Grid._rfft` or `Grid._irfft` (see
    `tests/test_grid.py::TestTransformBinding`), so patching the two counts
    them all; clear the list to start a new count.
    """
    calls = []
    for name in ("_rfft", "_irfft"):
        def counted(grid, a, *args, _name=name, _fn=getattr(Grid, name), **kwargs):
            calls.append((_name, a))
            return _fn(grid, a, *args, **kwargs)

        monkeypatch.setattr(Grid, name, counted)
    return calls


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
