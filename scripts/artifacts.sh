#!/usr/bin/env bash
# Write every artifact that the byte-identity check compares under OUT,
# made by the abcdsim code of TREE (default: this checkout):
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
# stderr is not kept (Python 3.12 warns there when the CLI forks its
# diagnostics worker).  Takes about a minute on two CPUs.

set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 OUT [TREE]" >&2
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

# the abcdsim that runs must be TREE's, not one installed elsewhere
found=$(PYTHONPATH="$tree/src" python3 -c 'import abcdsim; print(abcdsim.__file__)')
if [ "$found" != "$tree/src/abcdsim/__init__.py" ]; then
    echo "$0: imported abcdsim from $found, not from $tree/src" >&2
    exit 1
fi

# abcdsim DIR PREFIX ARGS...: run the CLI of TREE in DIR, output under DIR/out,
# keeping its stdout and exit status in DIR/PREFIXstdout.txt and DIR/PREFIXexit_status
abcdsim() {
    local dir=$1 prefix=$2 code=0
    shift 2
    (cd "$dir" && ABCDSIM_OUT_ROOT="$dir" PYTHONPATH="$tree/src" \
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
echo "artifacts of $tree written under $out ($(find "$out" -type f | wc -l) files)"
