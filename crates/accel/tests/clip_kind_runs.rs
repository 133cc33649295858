//! `clip_kind_runs` against a full-scan reference: every oracle DMA window
//! of every suite, plus hand-built edge cases.

use fusion_accel::{clip_kind_runs, DecodedTrace, KindRun};
use fusion_workloads::{all_suites, build_suite, Scale};

/// The straightforward clip: test every run of the phase against the
/// window. Kept here only as the reference the binary-search clip must
/// reproduce exactly.
fn full_scan(runs: &[KindRun], lo: usize, hi: usize) -> Vec<KindRun> {
    runs.iter()
        .filter(|r| r.end() > lo && r.start < hi)
        .map(|r| {
            let s = r.start.max(lo);
            let e = r.end().min(hi);
            KindRun {
                start: s - lo,
                len: e - s,
                is_write: r.is_write,
            }
        })
        .collect()
}

fn assert_clip_matches(runs: &[KindRun], lo: usize, hi: usize) {
    let got: Vec<KindRun> = clip_kind_runs(runs, lo, hi).collect();
    assert_eq!(got, full_scan(runs, lo, hi), "window [{lo}, {hi})");
}

fn run(start: usize, len: usize, is_write: bool) -> KindRun {
    KindRun {
        start,
        len,
        is_write,
    }
}

#[test]
fn clip_matches_full_scan_on_every_dma_window() {
    // Scratchpad capacities of the design grid: 2, 4, 8 and 16 KB.
    const CAPACITIES: [usize; 4] = [32, 64, 128, 256];
    let mut windows = 0usize;
    for suite in all_suites() {
        let wl = build_suite(suite, Scale::Small);
        let decoded = DecodedTrace::decode(&wl);
        for cap in CAPACITIES {
            let all = decoded.dma_windows(&wl, cap);
            for (phase_idx, phase_windows) in all.iter().enumerate() {
                let runs = decoded.phase_kind_runs(phase_idx);
                for w in phase_windows {
                    let (lo, hi) = w.ref_range;
                    assert_clip_matches(runs, lo, hi);
                    // The clipped runs tile the window exactly.
                    let mut next = 0;
                    for r in clip_kind_runs(runs, lo, hi) {
                        assert_eq!(r.start, next);
                        assert!(r.len > 0);
                        next = r.end();
                    }
                    assert_eq!(next, hi - lo);
                    windows += 1;
                }
            }
        }
    }
    assert!(windows > 0, "no DMA windows exercised");
}

#[test]
fn clip_edge_cases_match_full_scan() {
    // Runs of length 4, 1, 1, 3, 1 tiling [0, 10).
    let runs = [
        run(0, 4, false),
        run(4, 1, true),
        run(5, 1, false),
        run(6, 3, true),
        run(9, 1, false),
    ];
    let n = 10;
    // Every window, including empty ones, over the whole phase.
    for lo in 0..=n {
        for hi in lo..=n {
            assert_clip_matches(&runs, lo, hi);
        }
    }
    // Named cases: starts mid-run, ends mid-run, equals one run, covers a
    // length-1 run, first and last windows.
    let cases: [(usize, usize, Vec<KindRun>); 6] = [
        (2, 5, vec![run(0, 2, false), run(2, 1, true)]),
        (
            0,
            7,
            vec![
                run(0, 4, false),
                run(4, 1, true),
                run(5, 1, false),
                run(6, 1, true),
            ],
        ),
        (6, 9, vec![run(0, 3, true)]),
        (5, 6, vec![run(0, 1, false)]),
        (0, 3, vec![run(0, 3, false)]),
        (7, 10, vec![run(0, 2, true), run(2, 1, false)]),
    ];
    for (lo, hi, want) in cases {
        let got: Vec<KindRun> = clip_kind_runs(&runs, lo, hi).collect();
        assert_eq!(got, want, "window [{lo}, {hi})");
    }
}

#[test]
fn clip_of_empty_runs_is_empty() {
    assert_eq!(clip_kind_runs(&[], 0, 0).count(), 0);
    assert_clip_matches(&[], 0, 0);
}
