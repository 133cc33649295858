//! The sweep subsystem's central guarantee: fanning the evaluation grid
//! over the worker pool changes *nothing* about the simulated outcomes.
//!
//! Every simulation is a pure function of `(system, workload, config)`,
//! and `SimResult` equality deliberately ignores the host-side
//! `RunMetrics`, so the guarantee is expressible as plain `==` between
//! the parallel outcomes and sequential `run_system` calls.

use fusion_core::journal::{self, JournalHeader, JournalSink, JournalWriter};
use fusion_core::{design_grid, full_grid, run_system, MemoMark, Sweep, TraceCache};
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
                assert_eq!((x.attempts, x.backoff), (1, 0));
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
/// journal it leaves behind resumes the whole grid with payloads
/// byte-identical to what the jobs produced (DESIGN.md §13).
#[test]
fn journaled_sweep_matches_plain_sweep_and_is_fully_resumable() {
    let cfg = SystemConfig::small();
    let jobs = full_grid(&cfg);
    let traces = std::sync::Arc::new(TraceCache::new());
    let plain = Sweep::new(Scale::Tiny)
        .with_trace_cache(std::sync::Arc::clone(&traces))
        .run(jobs.clone());

    let path = std::env::temp_dir().join(format!("fusion_det_wal_{}.jsonl", std::process::id()));
    let header = JournalHeader {
        scale: "tiny".to_string(),
        code_version: journal::code_version(),
        grid: jobs.len(),
    };
    let writer = JournalWriter::create(&path, &header).unwrap();
    let journaled = Sweep::new(Scale::Tiny)
        .with_trace_cache(std::sync::Arc::clone(&traces))
        .with_journal(std::sync::Arc::new(JournalSink::new(writer)))
        .run(jobs.clone());

    for (x, y) in plain.iter().zip(&journaled) {
        assert_eq!(
            x.result,
            y.result,
            "{}: journaling changed a result",
            x.job.label()
        );
    }

    let rec = journal::read_journal(&std::fs::read(&path).unwrap());
    std::fs::remove_file(&path).ok();
    assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
    let mut fp = |suite| traces.fingerprint(suite, Scale::Tiny);
    let plan =
        journal::plan_resume(&jobs, Scale::Tiny, &rec, &journal::code_version(), &mut fp).unwrap();
    assert_eq!(plan.resumed_count(), jobs.len(), "every point must resume");
    for (row, outcome) in plan.resumed.iter().zip(&plain) {
        assert_eq!(
            row.as_ref().unwrap().result_json,
            outcome.result.as_ref().unwrap().to_json(),
            "{}: journaled payload diverged",
            outcome.job.label()
        );
    }
}
