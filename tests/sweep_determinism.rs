//! The sweep subsystem's central guarantee: fanning the evaluation grid
//! over the worker pool changes *nothing* about the simulated outcomes.
//!
//! Every simulation is a pure function of `(system, workload, config)`,
//! and `SimResult` equality deliberately ignores the host-side
//! `RunMetrics`, so the guarantee is expressible as plain `==` between
//! the parallel outcomes and sequential `run_system` calls.

mod common;

use std::sync::Arc;

use common::wal_header;
use fusion_core::journal::{JournalRow, JournalSink, JournalWriter};
use fusion_core::{design_grid, full_grid, run_system, GridPoint, MemoMark, Sweep, TraceCache};
use fusion_types::SystemConfig;
use fusion_workloads::{build_suite, Scale};

#[test]
fn parallel_sweep_matches_sequential_runs_over_full_grid() {
    let cfg = SystemConfig::small();
    let jobs = full_grid(&cfg);
    assert_eq!(jobs.len(), 4 * 7, "grid must cover every (system, suite)");

    let outcomes = Sweep::new(Scale::Tiny).run(jobs.clone());
    assert_eq!(outcomes.len(), jobs.len());

    for (job, outcome) in jobs.iter().zip(&outcomes) {
        // Outcomes come back in grid order with the job echoed back.
        assert_eq!(outcome.job.system, job.system);
        assert_eq!(outcome.job.suite, job.suite);

        let wl = build_suite(job.suite, Scale::Tiny);
        let sequential = run_system(job.system, &wl, &job.config);
        assert_eq!(
            outcome.result, sequential,
            "{} on {:?} diverged between pool and sequential run",
            job.system, job.suite
        );
    }
}

#[test]
fn repeated_parallel_sweeps_agree_with_each_other() {
    let cfg = SystemConfig::small();
    let shared = std::sync::Arc::new(TraceCache::new());
    let a = Sweep::new(Scale::Tiny)
        .with_trace_cache(std::sync::Arc::clone(&shared))
        .run(full_grid(&cfg));
    let b = Sweep::new(Scale::Tiny)
        .threads(2)
        .with_trace_cache(shared)
        .run(full_grid(&cfg));
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.result, y.result);
    }
}

/// The dedupe guarantee (DESIGN.md §12): over the full design-space
/// grid, memo-on output is byte-identical to memo-off — every copied grid
/// point carries exactly the stats a full replay would have produced,
/// down to the JSON rendering — and the copies are planned before any job
/// runs, so the hit count is the same at any worker count.
#[test]
fn memo_on_matches_memo_off_over_design_grid() {
    let cfg = SystemConfig::small();
    let jobs = design_grid(&cfg);
    assert_eq!(jobs.len(), 7 * 28, "base grid plus six capacity variants");

    let shared = std::sync::Arc::new(TraceCache::new());
    let off = Sweep::new(Scale::Tiny)
        .memo(false)
        .with_trace_cache(std::sync::Arc::clone(&shared))
        .run(jobs.clone());
    for threads in [1, 4] {
        let on = Sweep::new(Scale::Tiny)
            .threads(threads)
            .with_trace_cache(std::sync::Arc::clone(&shared))
            .run(jobs.clone());
        let mut hits = 0usize;
        for (x, y) in on.iter().zip(&off) {
            let a = x.expect_result();
            let b = y.expect_result();
            assert_eq!(a, b, "{} memo-on diverged from memo-off", x.job.label());
            assert_eq!(
                a.to_json(),
                b.to_json(),
                "{} JSON rendering diverged",
                x.job.label()
            );
            assert_eq!(y.memo.mark, MemoMark::Off);
            if x.memo.mark == MemoMark::Hit {
                hits += 1;
                assert_eq!(a.metrics.wall_nanos, 0, "a copy takes no wall time");
                assert_eq!(a.metrics.refs_simulated, b.metrics.refs_simulated);
                assert_eq!(a.metrics.sim_events, b.metrics.sim_events);
            }
        }
        // SC+SH copy across the L0X axis (2×7×3), SH+FU+FU-Dx across the
        // scratchpad axis (3×7×3): 42 + 63 = 105 copied points.
        assert_eq!(
            hits, 105,
            "threads {threads}: every eligible point is copied"
        );
    }
}

/// The determinism guarantee survives `--journal`: recording the
/// write-ahead journal changes nothing about the outcomes, and the
/// journal it leaves behind resumes the whole grid, with no warning, with
/// payloads byte-identical to what the jobs produced (DESIGN.md §13). Both
/// runs open their journal with `Sweep::open_journal`, as `sim sweep`
/// does. Two workers hand the journal writer interleaved groups.
#[test]
fn journaled_sweep_matches_plain_sweep_and_is_fully_resumable() {
    let cfg = SystemConfig::small();
    let jobs = full_grid(&cfg);
    let traces = Arc::new(TraceCache::new());
    let plain = Sweep::new(Scale::Tiny)
        .with_trace_cache(Arc::clone(&traces))
        .run(jobs.clone());

    for threads in [None, Some(2)] {
        let path = std::env::temp_dir().join(format!(
            "fusion_det_wal_{}_{threads:?}.jsonl",
            std::process::id()
        ));
        let sweep = || Sweep::new(Scale::Tiny).with_trace_cache(Arc::clone(&traces));
        let mut fresh = threads.map_or_else(sweep, |n| sweep().threads(n));
        fresh.open_journal(&path, false, &jobs, |_| {}).unwrap();
        let journaled = fresh.run(jobs.clone());
        assert_eq!(journaled.len(), plain.len());
        for (x, y) in plain.iter().zip(&journaled) {
            assert_eq!(
                x.result,
                y.result,
                "{}: journaling changed a result ({threads:?} threads)",
                x.job.label()
            );
        }

        let mut resume = sweep();
        let slots = resume
            .open_journal(&path, true, &jobs, |w| panic!("resume warned: {w}"))
            .unwrap();
        let resumed = resume.run_points(&jobs, slots);
        std::fs::remove_file(&path).ok();
        for (point, outcome) in resumed.iter().zip(&plain) {
            let GridPoint::Resumed(row) = point else {
                panic!("{}: every point must resume", outcome.job.label());
            };
            assert_eq!(
                row.result_json,
                outcome.expect_result().to_json(),
                "{}: journaled payload diverged ({threads:?} threads)",
                outcome.job.label()
            );
        }
    }
}

/// A journal that holds a memo group's first member but none of its
/// copies still resumes: the resumed point leads no group, so the copies
/// regroup under their next member, and every point they produce equals a
/// memo-off replay.
#[test]
fn resumed_group_leaders_hand_their_copies_to_a_new_leader() {
    let jobs = design_grid(&SystemConfig::small());
    let off = Sweep::new(Scale::Tiny).memo(false).run(jobs.clone());

    // Every group's first member sits in the 28-point base block: journal
    // exactly those rows, then resume the whole grid.
    let path =
        std::env::temp_dir().join(format!("fusion_det_leaders_{}.jsonl", std::process::id()));
    let base = &jobs[..28];
    let mut first = Sweep::new(Scale::Tiny);
    first.open_journal(&path, false, base, |_| {}).unwrap();
    first.run(base.to_vec());
    let mut resume = Sweep::new(Scale::Tiny);
    let slots = resume.open_journal(&path, true, &jobs, |_| {}).unwrap();
    let points = resume.run_points(&jobs, slots);
    std::fs::remove_file(&path).ok();

    let mut hits = 0;
    for (i, (point, reference)) in points.iter().zip(&off).enumerate() {
        let want = reference.expect_result();
        match point {
            GridPoint::Resumed(row) if i < 28 => assert_eq!(row.result_json, want.to_json()),
            GridPoint::Live(o) if i >= 28 => {
                assert_eq!(o.expect_result(), want, "{}", jobs[i].label());
                assert_eq!(o.expect_result().to_json(), want.to_json());
                hits += usize::from(o.memo.mark == MemoMark::Hit);
            }
            _ => panic!("{}: only the base block resumes", jobs[i].label()),
        }
    }
    // Each of the 28 base groups loses its first member to the journal,
    // and its first copy leads the rest: 105 - 28 copies remain.
    assert_eq!(hits, 105 - 28);
}

/// A journaled design-grid sweep fsyncs the header and then at most once
/// per memo group — a group's rows are one batch, and the writer may fold
/// several queued groups into one — instead of once per row. Its journal
/// is byte for byte the one `JournalWriter::append` writes row by row in
/// the worker's claim order.
#[test]
fn journaled_design_grid_syncs_at_most_once_per_memo_group() {
    let jobs = design_grid(&SystemConfig::small());
    let traces = Arc::new(TraceCache::new());
    let tmp = |name: &str| {
        std::env::temp_dir().join(format!("fusion_det_{name}_{}.jsonl", std::process::id()))
    };
    let (batched_path, reference_path) = (tmp("batched"), tmp("row_by_row"));
    let sink = Arc::new(JournalSink::new(
        JournalWriter::create(&batched_path, &wal_header(jobs.len())).unwrap(),
    ));
    let outcomes = Sweep::new(Scale::Tiny)
        .threads(1)
        .with_trace_cache(Arc::clone(&traces))
        .with_journal(Arc::clone(&sink))
        .run(jobs.clone());
    let groups = common::claim_groups(&outcomes);
    assert_eq!(groups.len(), 91, "196 points, 105 of them copies");
    assert!(
        sink.syncs() <= 1 + groups.len() as u64,
        "{} fsyncs for {} groups",
        sink.syncs(),
        groups.len()
    );

    let mut reference = JournalWriter::create(&reference_path, &wal_header(jobs.len())).unwrap();
    for &i in groups.iter().flatten() {
        let o = &outcomes[i];
        reference
            .append(&JournalRow::for_result(
                &o.job,
                Scale::Tiny,
                o.expect_result(),
                1,
                0,
                traces.fingerprint(o.job.suite, Scale::Tiny),
            ))
            .unwrap();
    }
    assert_eq!(reference.syncs(), 1 + jobs.len() as u64);
    let batched = std::fs::read(&batched_path).unwrap();
    let row_by_row = std::fs::read(&reference_path).unwrap();
    std::fs::remove_file(&batched_path).ok();
    std::fs::remove_file(&reference_path).ok();
    assert_eq!(
        batched.iter().filter(|&&b| b == b'\n').count(),
        1 + jobs.len()
    );
    assert!(
        batched == row_by_row,
        "batched journal differs from row-by-row"
    );
}
