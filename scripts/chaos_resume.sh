#!/usr/bin/env bash
# Chaos gate for the durable-sweep invariant (DESIGN.md §13): start a
# journaled full-grid sweep, SIGKILL it mid-run, resume from the journal,
# and diff the stitched JSON against an uninterrupted reference with the
# timing fields stripped (the same set the memo A/B gate ignores:
# wall_ms, queue_delay_ms, refs_per_sec, memo).
#
# Race-safe by design: on a machine fast enough to finish the sweep
# before the kill lands, the run degenerates to resume-of-a-complete
# journal — which must *also* be byte-identical, so the gate still bites.
#
# Usage: [SCALE=small] [KILL_AFTER=1] scripts/chaos_resume.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SIM="${SIM:-./target/release/sim}"
SCALE="${SCALE:-tiny}"
KILL_AFTER="${KILL_AFTER:-0.5}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== uninterrupted reference (scale $SCALE) =="
"$SIM" sweep --scale "$SCALE" --json > "$WORK/ref.json"

echo "== journaled sweep, SIGKILL after ${KILL_AFTER}s =="
# The victim runs single-threaded with the memo off — both knobs are
# results-invariant (proven by the A/B gates) but slow the sweep down so
# the kill reliably lands mid-run instead of after the finish line.
"$SIM" sweep --scale "$SCALE" --threads 1 --no-memo --json \
  --journal "$WORK/wal.jsonl" \
  > "$WORK/killed.json" 2> "$WORK/killed.err" &
pid=$!
sleep "$KILL_AFTER"
if kill -9 "$pid" 2> /dev/null; then
  echo "killed sweep (pid $pid) mid-run"
else
  echo "sweep finished before the kill; resuming a complete journal instead"
fi
wait "$pid" 2> /dev/null || true
lines=0
[ -f "$WORK/wal.jsonl" ] && lines="$(wc -l < "$WORK/wal.jsonl")"
echo "journal holds $lines sealed line(s) at the crash point"

echo "== resume =="
"$SIM" sweep --scale "$SCALE" --json --journal "$WORK/wal.jsonl" --resume \
  > "$WORK/resumed.json"

echo "== diff (timing fields stripped) =="
python3 - "$WORK/ref.json" "$WORK/resumed.json" <<'EOF'
import json, sys
def strip(path):
    out = []
    for r in json.load(open(path)):
        r = dict(r)
        for k in ("wall_ms", "queue_delay_ms", "refs_per_sec", "memo"):
            r.pop(k, None)
        out.append(r)
    return out
ref, res = strip(sys.argv[1]), strip(sys.argv[2])
assert len(ref) == len(res), f"row count {len(ref)} vs {len(res)}"
for i, (a, b) in enumerate(zip(ref, res)):
    if a != b:
        raise SystemExit(
            f"row {i} ({a.get('suite')}/{a.get('system')}@{a.get('config')}) "
            "diverged after SIGKILL + resume")
print(f"{len(ref)} rows byte-identical after SIGKILL + resume")
EOF
