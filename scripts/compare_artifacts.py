#!/usr/bin/env python3
"""Compare two artifact roots written by scripts/artifacts.sh, number by number.

    scripts/compare_artifacts.py OLD NEW

For a change that moves floats by design, where `diff -r` of the two
roots cannot be empty.  Every difference that is not a finite number
moving is a failure: a file on one side only, a CSV header, a row or
cell count, a JSON key or type, a word (a verdict, a flag, a preset), an
integer in a text file (an exit status, a count), nan or inf.  Floats
may move: CSV cells, JSON floats and the floats of text lines.  For each
file and column (a CSV column, a JSON key path, a text line) whose
numbers moved, it prints the largest absolute deviation max |new - old|
and the relative one, that over the column's largest magnitude on
either side (per cell, a value near 0 that moves reads as a relative
deviation near 2, which tells nothing).

Exit status: 0 when the roots differ in floats at most, 1 otherwise
(each failure is printed), 2 on a usage error.
"""

from __future__ import annotations

import csv
import json
import math
import pathlib
import re
import sys

_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_IS_NUMBER = re.compile(_NUMBER + r"\Z")
_IS_FLOAT = re.compile(r".*[.eE]")  # a number written with a point or an exponent
_SPLIT = re.compile(f"({_NUMBER})")


class Comparison:
    """The failures and the per-column deviations of one pair of roots."""

    def __init__(self):
        self.failures: list = []
        self.columns: dict = {}  # (file, column) -> [max |new - old|, max |old| and |new|]

    def fail(self, where, what, old, new) -> None:
        self.failures.append(f"{where}: {what} differs: {old!r} != {new!r}")

    def number(self, where, column, old: float, new: float) -> None:
        dev = self.columns.setdefault((where, column), [0.0, 0.0])
        dev[0] = max(dev[0], abs(new - old))
        dev[1] = max(dev[1], abs(old), abs(new))

    def token(self, where, column, old: str, new: str, floats_only=False) -> None:
        """Two tokens: finite numbers compared as numbers (integers exactly
        where floats_only), anything else as text."""
        if old == new:
            if _IS_NUMBER.match(old):
                self.number(where, column, float(old), float(old))
            return
        numeric = all(_IS_NUMBER.match(t) and (not floats_only or _IS_FLOAT.match(t))
                      for t in (old, new))
        if numeric and math.isfinite(float(old)) and math.isfinite(float(new)):
            self.number(where, column, float(old), float(new))
        else:
            self.fail(where, column, old, new)


def _csv(cmp: Comparison, where, old: str, new: str) -> None:
    a, b = (list(csv.reader(text.splitlines())) for text in (old, new))
    if not a or not b or a[0] != b[0]:
        return cmp.fail(where, "header", a[:1], b[:1])
    if len(a) != len(b):
        return cmp.fail(where, "row count", len(a) - 1, len(b) - 1)
    header = a[0]
    for i, (x, y) in enumerate(zip(a[1:], b[1:]), start=1):
        if len(x) != len(header) or len(y) != len(header):
            cmp.fail(where, f"cell count of row {i}", len(x), len(y))
            continue
        for column, u, v in zip(header, x, y):
            cmp.token(where, column, u, v)


def _json(cmp: Comparison, where, old, new, path="") -> None:
    if type(old) is not type(new):
        return cmp.fail(where, f"type of {path or '/'}", old, new)
    if isinstance(old, dict):
        if list(old) != list(new):
            return cmp.fail(where, f"keys of {path or '/'}", list(old), list(new))
        for key in old:
            _json(cmp, where, old[key], new[key], f"{path}.{key}" if path else key)
    elif isinstance(old, list):
        if len(old) != len(new):
            return cmp.fail(where, f"length of {path}", len(old), len(new))
        for i, (x, y) in enumerate(zip(old, new)):
            _json(cmp, where, x, y, f"{path}[{i}]")
    elif isinstance(old, float) and math.isfinite(old) and math.isfinite(new):
        cmp.number(where, path, old, new)
    elif old != new:  # ints, bools, strings, None, nan and inf
        cmp.fail(where, path, old, new)


def _text(cmp: Comparison, where, old: str, new: str) -> None:
    a, b = old.splitlines(), new.splitlines()
    if len(a) != len(b):
        return cmp.fail(where, "line count", len(a), len(b))
    for i, (x, y) in enumerate(zip(a, b), start=1):
        # odd pieces are numbers, even pieces the text between them
        xs, ys = _SPLIT.split(x), _SPLIT.split(y)
        if len(xs) != len(ys) or xs[::2] != ys[::2]:
            cmp.fail(where, f"line {i}", x, y)
            continue
        for u, v in zip(xs[1::2], ys[1::2]):
            cmp.token(where, f"line {i}", u, v, floats_only=True)


def compare(old_root: pathlib.Path, new_root: pathlib.Path) -> Comparison:
    cmp = Comparison()
    files = [{p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
             for root in (old_root, new_root)]
    for name in sorted(files[0] ^ files[1]):
        cmp.failures.append(f"{name}: only in {old_root if name in files[0] else new_root}")
    for name in sorted(files[0] & files[1]):
        old, new = ((root / name).read_text(encoding="utf-8") for root in (old_root, new_root))
        if old == new and not name.endswith(".csv"):
            continue
        if name.endswith(".csv"):
            _csv(cmp, name, old, new)
        elif name.endswith(".json"):
            try:
                a, b = json.loads(old), json.loads(new)
            except ValueError as exc:
                cmp.fail(name, "JSON", str(exc), "")
                continue
            _json(cmp, name, a, b)
        else:
            _text(cmp, name, old, new)
    cmp.n_files = len(files[0] | files[1])
    return cmp


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(pathlib.Path(a).is_dir() for a in args):
        print(f"usage: {pathlib.Path(sys.argv[0]).name} OLD NEW (two artifact roots)", file=sys.stderr)
        return 2
    cmp = compare(*(pathlib.Path(a) for a in args))
    moved = {key: dev for key, dev in cmp.columns.items() if dev[0]}
    if moved:
        width = max(len(f"{f}  {c}") for f, c in moved)
        print(f"{'file  column':<{width}}  {'max abs':>10}  {'max rel':>10}")
        for (name, column), (dev, scale) in sorted(moved.items()):
            print(f"{f'{name}  {column}':<{width}}  {dev:10.3e}  {dev / scale:10.3e}")
    for line in cmp.failures:
        print(f"DIFFERS {line}")
    files_moved = len({name for name, _ in moved})
    print(f"{cmp.n_files} files: floats moved in {files_moved} files ({len(moved)} columns); "
          f"{len(cmp.failures)} other differences")
    return 1 if cmp.failures else 0


if __name__ == "__main__":
    sys.exit(main())
