#!/usr/bin/env bash
# Lint-coverage gate for the determinism rules (DESIGN.md §14): clippy,
# configured by clippy.toml, must flag every line of the dirty fixtures
# in lint-fixtures/ that lint-fixtures/expected.txt lists, and nothing
# else — in particular no line of the clean fixtures.
#
# The fixture package sits outside the workspace, so it carries its own
# copy of the denied-lint list; the gate first checks that the copy
# equals the root Cargo.toml's [workspace.lints.clippy] table.
#
# On a mismatch it exits 1 and leaves the diff in lint_fixtures.diff.
#
# Usage: scripts/lint_fixtures.sh
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - <<'PY'
import sys, tomllib
root = tomllib.load(open("Cargo.toml", "rb"))["workspace"]["lints"]["clippy"]
fixtures = tomllib.load(open("lint-fixtures/Cargo.toml", "rb"))["lints"]["clippy"]
if root != fixtures:
    sys.exit(f"lint lists differ:\n  Cargo.toml:               {root}\n"
             f"  lint-fixtures/Cargo.toml: {fixtures}")
print(f"lint lists agree: {', '.join(sorted(root))}")
PY

# The dirty fixtures fail the build by design; only the findings matter.
mkdir -p target
(cd lint-fixtures && cargo clippy --all-targets --target-dir ../target/lint-fixtures \
  --message-format=json 2> /dev/null || true) > target/lint_fixtures.json

# One `<file>:<line> <lint>` row per finding in the fixture package (the
# workspace's own clippy run covers fusion-types): the lib and its test
# build report the same spans, so findings are deduplicated by column too.
python3 - > target/lint_fixtures.found <<'PY'
import json
found = set()
for line in open("target/lint_fixtures.json"):
    msg = json.loads(line)
    if (msg.get("reason") != "compiler-message" or not msg["message"].get("code")
            or not msg["manifest_path"].endswith("lint-fixtures/Cargo.toml")):
        continue
    for span in msg["message"]["spans"]:
        if span["is_primary"]:
            found.add((span["file_name"], span["line_start"], span["column_start"],
                       msg["message"]["code"]["code"]))
for file, line, _, lint in sorted(found):
    print(f"{file}:{line} {lint}")
PY

if diff -u lint-fixtures/expected.txt target/lint_fixtures.found > lint_fixtures.diff; then
  rm lint_fixtures.diff
  echo "lint fixtures: $(wc -l < target/lint_fixtures.found) expected findings, no others"
else
  cat lint_fixtures.diff
  echo "lint fixtures: clippy's findings differ from lint-fixtures/expected.txt"
  exit 1
fi
