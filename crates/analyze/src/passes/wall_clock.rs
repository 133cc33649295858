//! `wall-clock`: no `Instant::now` / `SystemTime` in library sim logic.
//!
//! Invariant (PRs 2/6/7): simulated time is the only clock the model may
//! observe. Wall-clock reads in sim logic make replay outcomes depend on
//! host scheduling, which breaks golden-stats byte-identity, memo copies
//! and crash-resume equivalence. Measurement belongs in the
//! sanctioned timing shim (`crates/criterion/src/lib.rs`) or in binaries;
//! the few library sites that legitimately time *host-side* work (queue
//! wait, deadline monitoring) carry a justified `lint:allow-wall-clock`
//! marker stating why the reading never influences simulated state.

use super::{diag, seq, t};
use crate::{Diagnostic, Pass, SourceFile};

/// The vendored criterion stand-in exists to measure wall time.
const SANCTIONED: &str = "crates/criterion/src/lib.rs";

const HINT: &str = "wall-clock in sim logic breaks replay determinism and journal resume; \
use simulated time, move measurement to the criterion shim, or justify with lint:allow-wall-clock";

pub struct WallClock;

impl Pass for WallClock {
    fn id(&self) -> &'static str {
        "wall-clock"
    }

    fn description(&self) -> &'static str {
        "Instant::now/SystemTime outside sanctioned timing modules (breaks determinism)"
    }

    fn run(&self, files: &[SourceFile], out: &mut Vec<Diagnostic>) {
        for f in files {
            if f.is_bin || f.rel == SANCTIONED {
                continue;
            }
            for i in 0..f.tokens.len() {
                if f.in_test[i] {
                    continue;
                }
                let hit = seq(f, i, &["Instant", "::", "now"])
                    || ((t(f, i) == "SystemTime" || t(f, i) == "UNIX_EPOCH")
                        // Allow naming the types in `use` lines; only
                        // flag actual reads (`SystemTime::now()` etc.).
                        && !in_use_stmt(f, i));
                if hit && !f.suppressed("wall-clock", f.tokens[i].line) {
                    out.push(diag(f, i, "wall-clock", HINT));
                }
            }
        }
    }
}

/// Walks back to the previous `;` (crossing `{…}` import groups and
/// commas) looking for a `use` keyword — `stmt_start` would stop at the
/// `,` inside `use std::time::{Instant, SystemTime};`.
fn in_use_stmt(f: &SourceFile, i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        match t(f, j - 1) {
            ";" => return false,
            "use" => return true,
            _ => j -= 1,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::super::{parse_one, run_pass};
    use super::*;
    use crate::SourceFile;

    #[test]
    fn flags_reads_not_imports() {
        let f = parse_one(
            "use std::time::{Instant, SystemTime};\nfn a() { let t = Instant::now(); let s = SystemTime::now(); }\n",
        );
        let ds = run_pass(&WallClock, &[f]);
        assert_eq!(ds.len(), 2);
        assert!(ds.iter().all(|d| d.line == 2));
    }

    #[test]
    fn sanctioned_module_bins_tests_and_markers() {
        let shim = SourceFile::parse(
            SANCTIONED.into(),
            "pub fn now() -> Instant { Instant::now() }".into(),
        );
        assert!(run_pass(&WallClock, &[shim]).is_empty());
        let b = SourceFile::parse(
            "crates/x/src/bin/tool.rs".into(),
            "fn main() { let t = Instant::now(); }".into(),
        );
        assert!(run_pass(&WallClock, &[b]).is_empty());
        let f = parse_one(
            "#[cfg(test)]\nmod t { fn x() { let t = Instant::now(); } }\n// lint:allow-wall-clock host-side queue timing, never observed by the model\nfn a() { let t = Instant::now(); }\n",
        );
        assert!(run_pass(&WallClock, &[f]).is_empty());
    }
}
