#!/usr/bin/env bash
# Byte-identity gate for changes that must not move a simulated output:
# runs the same 17 simulations with two builds and stops at the first
# difference.
#
#   * 15 `sim sweep --no-memo --json` grids: tiny, small and paper scale,
#     each plain and with --large, --write-through, --prefetch 4 and
#     --lease-renewal. Rows are compared with scripts/sweep_diff.py, which
#     drops the host fields (wall time, queue delay, refs/s, memo).
#   * `tables all small 1` and `tables all paper 1`, compared with `cmp`.
#
# Each directory holds a release build's `sim` and `tables` binaries,
# e.g. a checkout of the base commit built with `cargo build --release
# -p fusion-bench` and this tree's `target/release`.
#
# Usage: scripts/outputs_identical.sh <base-bin-dir> <change-bin-dir>
# Exits 0 when all 17 outputs match, 1 at the first difference and 2 on
# a usage error.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 2 ]; then
  echo "usage: $0 <base-bin-dir> <change-bin-dir>" >&2
  exit 2
fi
BASE="$1"
CHANGE="$2"
for dir in "$BASE" "$CHANGE"; do
  for bin in sim tables; do
    if [ ! -x "$dir/$bin" ]; then
      echo "$0: no executable '$bin' in $dir" >&2
      exit 2
    fi
  done
done
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

for scale in tiny small paper; do
  for variant in plain large write-through prefetch lease-renewal; do
    case "$variant" in
      plain) flags=() ;;
      prefetch) flags=(--prefetch 4) ;;
      *) flags=("--$variant") ;;
    esac
    name="sweep $scale $variant"
    for side in base change; do
      if [ "$side" = base ]; then dir="$BASE"; else dir="$CHANGE"; fi
      "$dir/sim" sweep --scale "$scale" --no-memo --json "${flags[@]}" > "$WORK/$side.json"
    done
    if ! python3 scripts/sweep_diff.py "$WORK/base.json" "$WORK/change.json" > "$WORK/diff.txt" 2>&1; then
      echo "DIFFERS: $name" >&2
      cat "$WORK/diff.txt" >&2
      exit 1
    fi
    echo "identical: $name ($(cut -d';' -f1 "$WORK/diff.txt"))"
  done
done

for scale in small paper; do
  name="tables all $scale 1"
  "$BASE/tables" all "$scale" 1 > "$WORK/base.txt"
  "$CHANGE/tables" all "$scale" 1 > "$WORK/change.txt"
  if ! cmp "$WORK/base.txt" "$WORK/change.txt" >&2; then
    echo "DIFFERS: $name" >&2
    exit 1
  fi
  echo "identical: $name ($(wc -c < "$WORK/base.txt") bytes)"
done
echo "all 17 outputs identical"
