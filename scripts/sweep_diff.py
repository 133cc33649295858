#!/usr/bin/env python3
"""Compare two `sim sweep --json` files row by row, host fields aside.

Usage: scripts/sweep_diff.py A.json B.json [--hits N] [--hit-rate-out FILE]

Drops wall_ms, queue_delay_ms, refs_per_sec and memo, then requires equal
row counts and equal rows. --hits N requires exactly N memo-copied rows in
A; --hit-rate-out writes A's memo hit rate as JSON.
"""
import argparse
import json
import sys

HOST_FIELDS = ("wall_ms", "queue_delay_ms", "refs_per_sec", "memo")

ap = argparse.ArgumentParser()
for arg in ("a", "b", "--hit-rate-out"):
    ap.add_argument(arg)
ap.add_argument("--hits", type=int)
args = ap.parse_args()

rows_a, rows_b = json.load(open(args.a)), json.load(open(args.b))
a, b = ([{k: v for k, v in r.items() if k not in HOST_FIELDS} for r in rows]
        for rows in (rows_a, rows_b))
if len(a) != len(b):
    sys.exit(f"row count {len(a)} in {args.a} vs {len(b)} in {args.b}")
for i, (x, y) in enumerate(zip(a, b)):
    if x != y:
        sys.exit(f"row {i} ({x.get('suite')}/{x.get('system')}@{x.get('config')}) "
                 f"of {args.b} differs from {args.a}")

marks = [r.get("memo") for r in rows_a]
hits = marks.count("hit")
eligible = sum(1 for m in marks if m not in (None, "off"))
rate = hits / max(eligible, 1)
print(f"{len(a)} rows identical; {args.a}: memo hit rate {hits}/{eligible} = {rate:.0%}")
if args.hit_rate_out:
    with open(args.hit_rate_out, "w") as f:
        json.dump({"hits": hits, "eligible": eligible, "hit_rate": rate}, f)
if args.hits is not None and hits != args.hits:
    sys.exit(f"{hits} copied rows in {args.a}, expected {args.hits}")
