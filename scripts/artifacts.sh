#!/usr/bin/env bash
# Write every artifact that the byte-identity check compares under OUT,
# made by the abcdsim code of TREE (default: this checkout):
#
#   scripts/artifacts.sh [--numpy] OUT [TREE]
#
# --numpy writes the root of numpy's FFT binding on a host where scipy is
# installed: every run sees a directory holding an empty `scipy` package
# first on PYTHONPATH, so scipy's pocketfft extension is not found and the
# package binds numpy's transforms (checked before the first run).  Without
# it the binding is whichever the package picks on this host.
#
#   OUT/configs/<name>/         each shipped config: out/<name>/ (its files),
#                               stdout.txt and exit_status; the decay run also
#                               report.stdout.txt and report.exit_status of
#                               `report` on its run directory
#   OUT/workloads/<w>-<seed>/   each benchmark workload at seeds 0 and 7919:
#                               config.ini, out/ (its files), stdout.txt and
#                               exit_status
#
# The inputs (configs/ and perfbench/workloads.py, imported read only) are
# always this checkout's, so two OUT roots differ only where the code of
# their trees does.  A change keeps every artifact when `diff -r` of its
# root and its parent's is empty:
#
#   git archive --prefix=parent/ HEAD~1 | tar x -C /tmp
#   scripts/artifacts.sh /tmp/art-parent /tmp/parent
#   scripts/artifacts.sh /tmp/art-change
#   diff -r /tmp/art-parent /tmp/art-change
#
# and the same with --numpy (two more roots) for numpy's binding.
#
# stderr is not kept (Python 3.12 warns there when the CLI forks its
# diagnostics worker).  Takes about a minute on two CPUs.

set -euo pipefail

numpy_binding=0
if [ "${1:-}" = --numpy ]; then
    numpy_binding=1
    shift
fi
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 [--numpy] OUT [TREE]" >&2
    exit 1
fi
here=$(cd "$(dirname "$0")/.." && pwd)
tree=$(cd "${2:-$here}" && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
if [ -n "$(ls -A "$out")" ]; then
    echo "$0: $out is not empty" >&2
    exit 1
fi
export PYTHONDONTWRITEBYTECODE=1  # leave both trees as they are

# what every run puts on PYTHONPATH: TREE's src, after the empty scipy with --numpy
path="$tree/src"
if [ "$numpy_binding" = 1 ]; then
    hide=$(mktemp -d)
    trap 'rm -rf "$hide"' EXIT
    mkdir "$hide/scipy"
    : >"$hide/scipy/__init__.py"
    path="$hide:$path"
fi

# the abcdsim that runs must be TREE's, not one installed elsewhere
found=$(PYTHONPATH="$path" python3 -c 'import abcdsim; print(abcdsim.__file__)')
if [ "$found" != "$tree/src/abcdsim/__init__.py" ]; then
    echo "$0: imported abcdsim from $found, not from $tree/src" >&2
    exit 1
fi
binding=$(PYTHONPATH="$path" python3 -c 'from abcdsim import grid; print(grid._BINDING)')
if [ "$numpy_binding" = 1 ] && [ "$binding" != numpy ]; then
    echo "$0: --numpy, but the package bound \"$binding\"" >&2
    exit 1
fi

# abcdsim DIR PREFIX ARGS...: run the CLI of TREE in DIR, output under DIR/out,
# keeping its stdout and exit status in DIR/PREFIXstdout.txt and DIR/PREFIXexit_status
abcdsim() {
    local dir=$1 prefix=$2 code=0
    shift 2
    (cd "$dir" && ABCDSIM_OUT_ROOT="$dir" PYTHONPATH="$path" \
        python3 -m abcdsim.cli "$@" >"${prefix}stdout.txt") || code=$?
    echo "$code" >"$dir/${prefix}exit_status"
}

for config in "$here"/configs/*.ini; do
    name=$(basename "$config" .ini)
    dir="$out/configs/$name"
    mkdir -p "$dir"
    case $name in
        region_map) abcdsim "$dir" "" region-map "$config" ;;
        bathy_audit) abcdsim "$dir" "" audit-bathymetry "$config" ;;
        *) abcdsim "$dir" "" run "$config" ;;
    esac
done
abcdsim "$out/configs/decay_run" report. report "$out/configs/decay_run/out/decay_run"

for seed in 0 7919; do
    for workload in identity_n512 decay_n4096 bump_n512 region_map; do
        dir="$out/workloads/$workload-$seed"
        mkdir -p "$dir"
        command=$(cd "$here/perfbench" && python3 -c '
import sys
from workloads import WORKLOADS
w = WORKLOADS[sys.argv[1]]
with open(sys.argv[3], "w", encoding="utf-8") as fh:
    fh.write(w.config_text(int(sys.argv[2])))
print(w.command)' "$workload" "$seed" "$dir/config.ini")
        abcdsim "$dir" "" "$command" config.ini
    done
done
echo "artifacts of $tree ($binding binding) written under $out ($(find "$out" -type f | wc -l) files)"
