#!/usr/bin/env bash
# Regenerates the committed sweep-throughput baseline.
#
# Runs the memoized design-grid sweep (single worker, stdout redirected —
# never pipe the sweep while timing) several times, keeps the fastest
# run as BENCH_sweep.json and appends one line to BENCH_history.jsonl
# recording the new aggregate. CI's regression gate compares fresh runs
# against BENCH_sweep.json, so commit both files together whenever a perf
# PR moves the number.
#
# BENCH_sweep.json keeps one row per grid point, one per line: suite,
# system, config, refs, wall_ms and memo. The gate reads only refs and
# wall_ms; tests/golden_stats.rs pins the simulated results themselves.
#
# Each history line carries two rates for the kept run:
#   mrefs_per_sec         every row, memo-spliced ones included (the only
#                         rate of the older lines tagged memo_inclusive);
#   replay_mrefs_per_sec  only the rows the memo did not splice: the
#                         references actually replayed per replay second.
#
# Usage: scripts/bench_baseline.sh [runs]   (default 8)
set -euo pipefail
cd "$(dirname "$0")/.."

runs="${1:-8}"
cargo build --release -p fusion-bench

best=0
for i in $(seq 1 "$runs"); do
  out="$(mktemp)"
  ./target/release/sim sweep --scale small --threads 1 --json > "$out"
  rps=$(python3 - "$out" <<'EOF'
import json, sys
rows = json.load(open(sys.argv[1]))
print(int(sum(r['refs'] for r in rows) * 1000 / sum(r['wall_ms'] for r in rows)))
EOF
)
  echo "run $i: $rps refs/sec"
  if [ "$rps" -gt "$best" ]; then
    best=$rps
    python3 - "$out" > BENCH_sweep.json <<'EOF'
import json, sys
keep = ("suite", "system", "config", "refs", "wall_ms", "memo")
rows = [{k: r[k] for k in keep} for r in json.load(open(sys.argv[1]))]
print("[\n" + ",\n".join(json.dumps(r, separators=(",", ":")) for r in rows) + "\n]")
EOF
  fi
  rm -f "$out"
done

replay_mrefs=$(python3 - BENCH_sweep.json <<'EOF'
import json, sys
rows = [r for r in json.load(open(sys.argv[1])) if r.get('memo') != 'hit']
print(round(sum(r['refs'] for r in rows) / sum(r['wall_ms'] for r in rows) / 1000, 1))
EOF
)

# rev records the tree the measurement ran on: HEAD, suffixed -dirty when
# uncommitted changes were measured (the regenerated baseline itself
# lands in the *next* commit).
rev=$(git describe --always --dirty)
today=$(date -u +%F)
mrefs=$(python3 -c "print(round($best / 1e6, 1))")
printf '{"date":"%s","rev":"%s","mrefs_per_sec":%s,"replay_mrefs_per_sec":%s}\n' \
  "$today" "$rev" "$mrefs" "$replay_mrefs" >> BENCH_history.jsonl
echo "baseline: $mrefs Mrefs/s, $replay_mrefs Mrefs/s replayed -> BENCH_sweep.json (+ BENCH_history.jsonl)"
