#!/usr/bin/env bash
# Chaos gate for the durable-sweep invariant (DESIGN.md §13): start a
# journaled full-grid sweep, SIGKILL it mid-run, resume from the journal,
# and diff the resumed JSON against an uninterrupted reference with the
# host fields stripped (scripts/sweep_diff.py, the diff the memo A/B gates
# use: wall_ms, queue_delay_ms, refs_per_sec, memo).
#
# Two victims, each with its own kill, resume and diff:
#   * memo off: every point replays, so the sweep is slow and the kill
#     reliably lands mid-run, between single-row batches;
#   * memo on: a memo group's rows are one journal batch, so the kill can
#     land inside a multi-row batch's write.
# Both run single-threaded; the memo and the thread count are
# results-invariant (proven by the A/B gates).
#
# The kill is keyed to journal progress, not to a fixed delay: the script
# polls the journal and sends SIGKILL once it holds the header and at
# least one row, so the kill lands mid-run at every scale. Race-safe by
# design: should the sweep still finish before the kill lands, the run
# degenerates to resume-of-a-complete journal — which must *also* be
# byte-identical, so the gate still bites.
#
# Usage: [SCALE=small] scripts/chaos_resume.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SIM="${SIM:-./target/release/sim}"
SCALE="${SCALE:-tiny}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== uninterrupted reference (scale $SCALE) =="
"$SIM" sweep --scale "$SCALE" --json > "$WORK/ref.json"

# sealed_lines FILE: newline-terminated lines in FILE (0 if absent).
sealed_lines() {
  if [ -f "$1" ]; then wc -l < "$1"; else echo 0; fi
}

# victim NAME [SWEEP FLAGS...]: journaled sweep, SIGKILL, resume, diff.
victim() {
  local name="$1"
  shift
  local wal="$WORK/$name.jsonl"
  echo "== $name victim: journaled sweep, SIGKILL after its first row =="
  "$SIM" sweep --scale "$SCALE" --threads 1 "$@" --json --journal "$wal" \
    > "$WORK/$name.killed.json" 2> "$WORK/$name.killed.err" &
  local pid=$!
  # Header plus at least one row sealed: the sweep is past set-up.
  while kill -0 "$pid" 2> /dev/null && [ "$(sealed_lines "$wal")" -lt 2 ]; do
    sleep 0.01
  done
  if kill -9 "$pid" 2> /dev/null; then
    echo "killed sweep (pid $pid) mid-run"
  else
    echo "sweep finished before the kill; resuming a complete journal instead"
  fi
  wait "$pid" 2> /dev/null || true
  echo "journal holds $(sealed_lines "$wal") sealed line(s) at the crash point"

  echo "== $name victim: resume =="
  "$SIM" sweep --scale "$SCALE" --json --journal "$wal" --resume \
    > "$WORK/$name.resumed.json"

  echo "== $name victim: diff (timing fields stripped) =="
  python3 scripts/sweep_diff.py "$WORK/ref.json" "$WORK/$name.resumed.json"
}

victim no-memo --no-memo
victim memo
