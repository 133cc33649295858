//! Golden-stats snapshots: the committed `sim run --json` output for every
//! system on four suites at `Scale::Small` must reproduce byte-for-byte.
//!
//! The snapshots under `tests/golden/` were captured before the hot-path
//! overhaul (shared decoded traces, FxHash maps, pow2 index masks), so
//! this suite is the proof that the overhaul is invisible in every
//! simulated statistic — not just the headline cycle counts. `SimResult::
//! to_json` deliberately excludes host-side `RunMetrics`, which is what
//! makes the byte comparison stable across machines and runs.
//!
//! FFT and ADPCM never fill the 32-entry AX-TLB; HIST and TRACK do
//! (SHARED HIST takes 126 AX-TLB misses), so their snapshots pin TLB
//! replacement as well. They were captured before the TLB became an
//! exact LRU stack.

use fusion_core::{run_system, SystemKind};
use fusion_types::{CheckerConfig, SystemConfig};
use fusion_workloads::{build_suite, Scale, SuiteId};

const CASES: [(&str, SuiteId, &str, SystemKind, &str); 16] = [
    (
        "fft",
        SuiteId::Fft,
        "sc",
        SystemKind::Scratch,
        include_str!("golden/fft_sc.json"),
    ),
    (
        "fft",
        SuiteId::Fft,
        "sh",
        SystemKind::Shared,
        include_str!("golden/fft_sh.json"),
    ),
    (
        "fft",
        SuiteId::Fft,
        "fu",
        SystemKind::Fusion,
        include_str!("golden/fft_fu.json"),
    ),
    (
        "fft",
        SuiteId::Fft,
        "fu-dx",
        SystemKind::FusionDx,
        include_str!("golden/fft_fu-dx.json"),
    ),
    (
        "adpcm",
        SuiteId::Adpcm,
        "sc",
        SystemKind::Scratch,
        include_str!("golden/adpcm_sc.json"),
    ),
    (
        "adpcm",
        SuiteId::Adpcm,
        "sh",
        SystemKind::Shared,
        include_str!("golden/adpcm_sh.json"),
    ),
    (
        "adpcm",
        SuiteId::Adpcm,
        "fu",
        SystemKind::Fusion,
        include_str!("golden/adpcm_fu.json"),
    ),
    (
        "adpcm",
        SuiteId::Adpcm,
        "fu-dx",
        SystemKind::FusionDx,
        include_str!("golden/adpcm_fu-dx.json"),
    ),
    (
        "hist",
        SuiteId::Histogram,
        "sc",
        SystemKind::Scratch,
        include_str!("golden/hist_sc.json"),
    ),
    (
        "hist",
        SuiteId::Histogram,
        "sh",
        SystemKind::Shared,
        include_str!("golden/hist_sh.json"),
    ),
    (
        "hist",
        SuiteId::Histogram,
        "fu",
        SystemKind::Fusion,
        include_str!("golden/hist_fu.json"),
    ),
    (
        "hist",
        SuiteId::Histogram,
        "fu-dx",
        SystemKind::FusionDx,
        include_str!("golden/hist_fu-dx.json"),
    ),
    (
        "track",
        SuiteId::Tracking,
        "sc",
        SystemKind::Scratch,
        include_str!("golden/track_sc.json"),
    ),
    (
        "track",
        SuiteId::Tracking,
        "sh",
        SystemKind::Shared,
        include_str!("golden/track_sh.json"),
    ),
    (
        "track",
        SuiteId::Tracking,
        "fu",
        SystemKind::Fusion,
        include_str!("golden/track_fu.json"),
    ),
    (
        "track",
        SuiteId::Tracking,
        "fu-dx",
        SystemKind::FusionDx,
        include_str!("golden/track_fu-dx.json"),
    ),
];

#[test]
fn every_golden_snapshot_reproduces_byte_for_byte() {
    let cfg = SystemConfig::small();
    for (suite_name, suite, sys_name, kind, golden) in CASES {
        let wl = build_suite(suite, Scale::Small);
        let res = run_system(kind, &wl, &cfg).unwrap();
        // Snapshots were written via shell redirection and carry a
        // trailing newline; the JSON bytes themselves must match exactly.
        assert_eq!(
            res.to_json(),
            golden.trim_end(),
            "stats drifted from tests/golden/{suite_name}_{sys_name}.json — \
             the hot path is supposed to be result-invisible"
        );
    }
}

/// The runtime protocol checker is purely observational: a clean
/// checker-on run must reproduce the same golden bytes as the trusted
/// path. This pins the refactor of `acc`/`mesi` onto the shared pure
/// transition functions — if checker-mode validation ever perturbed
/// timing or stats, the snapshots would catch it here.
#[test]
fn checker_enabled_runs_match_the_golden_snapshots() {
    let cfg = SystemConfig::small().with_checker(CheckerConfig::enabled());
    for (suite_name, suite, sys_name, kind, golden) in CASES {
        let wl = build_suite(suite, Scale::Small);
        let res = run_system(kind, &wl, &cfg).unwrap();
        assert_eq!(
            res.to_json(),
            golden.trim_end(),
            "checker-on stats drifted from tests/golden/{suite_name}_{sys_name}.json — \
             the checker is supposed to be observational"
        );
    }
}

#[test]
fn golden_snapshots_cover_every_system_on_every_suite() {
    for suite in ["fft", "adpcm", "hist", "track"] {
        let mut labels: Vec<&str> = CASES
            .iter()
            .filter(|c| c.0 == suite)
            .map(|c| c.3.label())
            .collect();
        labels.sort_unstable();
        assert_eq!(labels, ["FU", "FU-Dx", "SC", "SH"]);
    }
}
