//! `tables all small 1` must print exactly the committed golden
//! (`tests/golden/tables_all_small.txt`): every table and figure at small
//! scale, pinned byte for byte. A change that moves any rendered number
//! must regenerate the golden on purpose:
//!
//! ```sh
//! cargo run --release -p fusion-bench --bin tables -- all small 1 \
//!     > crates/bench/tests/golden/tables_all_small.txt
//! ```

use std::process::Command;

#[test]
fn tables_all_small_matches_the_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["all", "small", "1"])
        .output()
        .expect("tables binary must run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = include_str!("golden/tables_all_small.txt");
    let got = String::from_utf8(out.stdout).expect("tables prints UTF-8");
    if got != golden {
        let (line, (g, w)) = got
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .unwrap_or((got.lines().count().min(golden.lines().count()), ("", "")));
        panic!(
            "tables all small 1 diverged from the golden at line {}:\n  got:    {g}\n  golden: {w}",
            line + 1
        );
    }
}
