//! Exit-code and output contract of the `sim` binary's durability paths
//! (`--journal` / `--resume`, DESIGN.md §13), exercised end-to-end
//! against the real executable: 0 on full completion, 1 with a salvage
//! report on partial completion, 2 on usage errors such as resuming
//! against a journal from a different code version or calling a retired
//! subcommand or option. The `tables` binary reports an unknown section
//! or scale the same way, before it simulates. A trace written by
//! `sim trace` replays to exactly the live `sim run` result.

#![allow(clippy::expect_used, reason = "a test fails by panicking")]

use std::path::PathBuf;
use std::process::{Command, Output};

use fusion_core::journal;

fn sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sim"))
        .args(args)
        .output()
        .expect("sim binary must run")
}

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("tables binary must run")
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fusion_cli_{}_{name}", std::process::id()))
}

fn exit_code(out: &Output) -> i32 {
    out.status
        .code()
        .expect("the binary must exit, not die on a signal")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The `<point> [<error kind>]` of each failed job `sim sweep` reports.
fn failed_points(out: &Output) -> Vec<String> {
    stderr(out)
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("FAILED "))
        .map(|l| l.split_once(':').map_or(l, |(point, _)| point).to_string())
        .collect()
}

/// Removes `"key":<value>,` from a JSON row — the timing/memo fields the
/// byte-identity comparison deliberately ignores (the same set the memo
/// A/B CI gate strips).
fn strip_field(line: &str, key: &str) -> String {
    let pat = format!("\"{key}\":");
    let Some(start) = line.find(&pat) else {
        return line.to_string();
    };
    let rest = &line[start..];
    let end = rest.find(',').map(|i| i + 1).unwrap_or(rest.len());
    format!("{}{}", &line[..start], &rest[end..])
}

fn strip_timing(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .map(|l| {
            let mut l = l.to_string();
            for key in ["wall_ms", "queue_delay_ms", "refs_per_sec", "memo"] {
                l = strip_field(&l, key);
            }
            l
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn resume_without_journal_is_a_usage_error() {
    let out = sim(&["sweep", "--scale", "tiny", "--resume"]);
    assert_eq!(exit_code(&out), 2);
    assert!(
        stderr(&out).contains("--resume requires --journal"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn retired_tile_threads_option_is_a_usage_error() {
    // The per-job tile-thread reservation is gone; old scripts that still
    // pass it must fail loudly instead of silently losing the flag.
    let out = sim(&["sweep", "--tile-threads", "2"]);
    assert_eq!(exit_code(&out), 2, "{}", stderr(&out));
    assert!(
        stderr(&out).contains("unknown option '--tile-threads'"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn retired_retry_and_deadline_options_are_usage_errors() {
    // Each job runs once and no outcome reads the wall clock or thread
    // timing; scripts that still ask for a retry, a deadline or fail-fast
    // must fail loudly.
    for (args, option) in [
        (&["sweep", "--retries", "1"][..], "--retries"),
        (&["sweep", "--fail-fast"][..], "--fail-fast"),
        (
            &["compare", "--suite", "fft", "--deadline-ms", "5"][..],
            "--deadline-ms",
        ),
    ] {
        let out = sim(args);
        assert_eq!(exit_code(&out), 2, "{}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("unknown option '{option}'")),
            "{}",
            stderr(&out)
        );
    }
}

#[test]
fn retired_lint_subcommand_is_a_usage_error() {
    // The bespoke analyzer is gone (clippy enforces its rules, DESIGN.md
    // §14); scripts that still call it must fail loudly.
    for args in [&["lint"][..], &["lint", "--json"][..]] {
        let out = sim(args);
        assert_eq!(exit_code(&out), 2, "{}", stderr(&out));
        assert!(
            stderr(&out).contains("unknown subcommand 'lint'"),
            "{}",
            stderr(&out)
        );
    }
}

#[test]
fn options_a_subcommand_ignores_are_usage_errors() {
    // Each subcommand accepts only what it reads; a known option passed to
    // the wrong subcommand used to be dropped silently with exit 0.
    for (args, option, cmd) in [
        (
            &[
                "run",
                "--system",
                "fu",
                "--suite",
                "fft",
                "--scale",
                "tiny",
                "--threads",
                "4",
            ][..],
            "--threads",
            "run",
        ),
        (
            &["run", "--system", "fu", "--suite", "fft", "--resume"][..],
            "--resume",
            "run",
        ),
        (&["run", "--protocol", "mesi"][..], "--protocol", "run"),
        (
            &["trace", "--suite", "fft", "--scale", "tiny", "--json"][..],
            "--json",
            "trace",
        ),
        (
            &["trace", "--suite", "fft", "--large"][..],
            "--large",
            "trace",
        ),
        (
            &["compare", "--suite", "fft", "--no-memo"][..],
            "--no-memo",
            "compare",
        ),
        (&["sweep", "--system", "fu"][..], "--system", "sweep"),
        (&["verify", "--scale", "tiny"][..], "--scale", "verify"),
    ] {
        let out = sim(args);
        assert_eq!(exit_code(&out), 2, "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("option '{option}' is not accepted by 'sim {cmd}'")),
            "{}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn journal_then_resume_round_trips_byte_identical() {
    let wal = temp("roundtrip.jsonl");
    let wal_s = wal.to_str().unwrap();
    let first = sim(&["sweep", "--scale", "tiny", "--json", "--journal", wal_s]);
    assert_eq!(exit_code(&first), 0, "{}", stderr(&first));

    let resumed = sim(&[
        "sweep",
        "--scale",
        "tiny",
        "--json",
        "--journal",
        wal_s,
        "--resume",
    ]);
    assert_eq!(exit_code(&resumed), 0, "{}", stderr(&resumed));
    assert!(
        stderr(&resumed).contains("grid point(s) resumed"),
        "{}",
        stderr(&resumed)
    );
    assert_eq!(
        strip_timing(&first.stdout),
        strip_timing(&resumed.stdout),
        "resumed sweep diverged from the journaled run"
    );
    std::fs::remove_file(&wal).ok();
}

#[test]
fn partial_sweep_exits_one_with_salvage_then_resume_completes() {
    let wal = temp("partial.jsonl");
    let wal_s = wal.to_str().unwrap();
    let partial = sim(&[
        "sweep",
        "--scale",
        "tiny",
        "--json",
        "--journal",
        wal_s,
        "--inject",
        "7:3",
    ]);
    assert_eq!(exit_code(&partial), 1, "{}", stderr(&partial));
    let err = stderr(&partial);
    assert!(err.contains("salvage"), "{err}");
    assert!(err.contains("\"salvage\":1"), "{err}");
    assert!(
        err.contains(&format!("--journal {wal_s} --resume")),
        "{err}"
    );

    let salvage_path = format!("{wal_s}.salvage.json");
    let salvage = std::fs::read_to_string(&salvage_path).expect("salvage file must exist");
    assert!(salvage.contains("\"salvage\":1"), "{salvage}");
    assert!(salvage.contains("\"failures\":["), "{salvage}");
    assert!(salvage.contains("\"journal_lost\":false"), "{salvage}");

    // Resuming with the same faults re-runs only the failed points, and
    // the plan lands on the same grid points as before.
    let failed = failed_points(&partial);
    assert_eq!(failed.len(), 3, "{}", stderr(&partial));
    let refaulted = sim(&[
        "sweep",
        "--scale",
        "tiny",
        "--json",
        "--journal",
        wal_s,
        "--resume",
        "--inject",
        "7:3",
    ]);
    assert_eq!(exit_code(&refaulted), 1, "{}", stderr(&refaulted));
    assert_eq!(failed_points(&refaulted), failed, "{}", stderr(&refaulted));

    // The advertised resume command finishes the job: only the failed
    // points re-run, and this time they come back clean.
    let resumed = sim(&[
        "sweep",
        "--scale",
        "tiny",
        "--json",
        "--journal",
        wal_s,
        "--resume",
    ]);
    assert_eq!(exit_code(&resumed), 0, "{}", stderr(&resumed));
    std::fs::remove_file(&wal).ok();
    std::fs::remove_file(&salvage_path).ok();
}

#[test]
fn a_recorded_trace_replays_to_the_live_result() {
    let trace = temp("fft_tiny.trace");
    let trace_s = trace.to_str().unwrap();
    let wrote = sim(&[
        "trace", "--suite", "fft", "--scale", "tiny", "--out", trace_s,
    ]);
    assert_eq!(exit_code(&wrote), 0, "{}", stderr(&wrote));
    for system in ["sc", "sh", "fu", "fu-dx"] {
        let live = sim(&[
            "run", "--system", system, "--suite", "fft", "--scale", "tiny", "--json",
        ]);
        let replayed = sim(&["replay", "--system", system, "--trace", trace_s, "--json"]);
        assert_eq!(exit_code(&live), 0, "{}", stderr(&live));
        assert_eq!(exit_code(&replayed), 0, "{}", stderr(&replayed));
        assert!(!live.stdout.is_empty());
        assert_eq!(
            String::from_utf8_lossy(&replayed.stdout),
            String::from_utf8_lossy(&live.stdout),
            "{system}: the replayed trace diverged from the live run"
        );
    }
    // A version-1 file (the format before the recorder wrote lanes) is a
    // decode error: a runtime failure, not a silent misread.
    let mut bytes = std::fs::read(&trace).unwrap();
    bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
    std::fs::write(&trace, bytes).unwrap();
    let old = sim(&["replay", "--system", "fu", "--trace", trace_s]);
    assert_eq!(exit_code(&old), 1, "{}", stderr(&old));
    assert!(
        stderr(&old).contains("unsupported trace version 1"),
        "{}",
        stderr(&old)
    );
    std::fs::remove_file(&trace).ok();
}

#[test]
fn mismatched_code_version_resume_is_a_usage_error() {
    let wal = temp("codever.jsonl");
    let wal_s = wal.to_str().unwrap();
    let first = sim(&["sweep", "--scale", "tiny", "--json", "--journal", wal_s]);
    assert_eq!(exit_code(&first), 0, "{}", stderr(&first));

    // Forge a journal from "another" binary: same rows, header resealed
    // with a bogus code version.
    let text = std::fs::read_to_string(&wal).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let bogus = journal::encode_header(&journal::JournalHeader {
        scale: "tiny".to_string(),
        code_version: "9.9.9+wal999".to_string(),
        grid: 196,
    });
    lines[0] = bogus;
    std::fs::write(&wal, format!("{}\n", lines.join("\n"))).unwrap();

    let resumed = sim(&[
        "sweep",
        "--scale",
        "tiny",
        "--json",
        "--journal",
        wal_s,
        "--resume",
    ]);
    assert_eq!(exit_code(&resumed), 2, "{}", stderr(&resumed));
    assert!(
        stderr(&resumed).contains("code version"),
        "{}",
        stderr(&resumed)
    );
    std::fs::remove_file(&wal).ok();
}

#[test]
fn tables_unknown_scale_is_a_usage_error_before_simulating() {
    // A misspelt scale used to fall back to a full paper-scale run.
    let out = tables(&["all", "smal", "1"]);
    assert_eq!(exit_code(&out), 2, "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("unknown scale 'smal'"), "{err}");
    assert!(err.contains("usage: tables"), "{err}");
    assert!(!err.contains("simulating"), "{err}");
    assert!(out.stdout.is_empty());
}

#[test]
fn tables_unknown_section_is_a_usage_error_before_simulating() {
    let out = tables(&["bogus", "tiny"]);
    assert_eq!(exit_code(&out), 2, "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("unknown section 'bogus'"), "{err}");
    assert!(err.contains("usage: tables"), "{err}");
    assert!(!err.contains("simulating"), "{err}");
    assert!(out.stdout.is_empty());
}
