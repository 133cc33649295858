#!/usr/bin/env bash
# Builds the simulator's `sim` and `tables` binaries and the `perf`
# harness from source, then runs the harness with the given arguments:
#
#   bash perf/run.sh --workload grid_paper --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Cargo output goes to stderr; the last
# line of stdout is the run's result. CARGO_TARGET_DIR (default
# `target`) holds every build.
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -d crates/bench ] || [ ! -f perf/Cargo.toml ]; then
  echo "perf/run.sh: run from the repository root (Cargo.toml, crates/ and perf/ needed)" >&2
  exit 2
fi

target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet -p fusion-bench --bin sim --bin tables >&2
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml >&2
exec "$target/release/perf" run --bin-dir "$target/release" "$@"
