"""Run one `abcdsim` command line in this process and record its time marks.

Usage: python3 child.py --result R.json [--spans S.json.gz] -- run config.ini

The parent notes CLOCK_MONOTONIC before it starts this interpreter; this
script reports, on the same clock, when set-up ended (the first entry of
`solver.run` or, for a region map, of the first classifier call) and when
the CLI returned its exit code, plus how long importing the package
(numpy included) took.  With --spans the tracer wraps the
package for the run and its aggregates go into the result file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _mark_first_call(owner, attr, marks):
    """Record the first entry of owner.attr, then put the original back."""
    original = getattr(owner, attr)

    def first_call(*args, **kwargs):
        marks.setdefault("setup_end", time.monotonic())
        setattr(owner, attr, original)
        return original(*args, **kwargs)

    setattr(owner, attr, first_call)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import_start = time.monotonic()
    import abcdsim.cli as cli
    import_s = time.monotonic() - import_start

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    marks: dict = {}
    _mark_first_call(cli, "run", marks)
    _mark_first_call(cli, "satisfies_refined_dispersion", marks)
    rc = cli.main(cli_args)
    end = time.monotonic()
    result = {"rc": rc, "end": end, "setup_end": marks.get("setup_end"),
              "import_s": import_s, "package_file": cli.__file__}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.write_spans(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
