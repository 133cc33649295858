//! End-to-end fault injection over the full evaluation grid: the sweep
//! engine's central robustness guarantee (DESIGN.md §10).
//!
//! A 4-system × 7-suite sweep with planted worker panics, trace
//! corruption and livelocks must (1) complete every healthy job with
//! results identical to a fault-free sweep, (2) report every planted
//! fault as the right typed [`SimError`], and (3) behave identically on
//! two runs with the same seed — faults never leak across job isolation
//! boundaries and never introduce nondeterminism.
//!
//! The chaos-harness half (DESIGN.md §13) extends the same machinery to
//! the durability layer: worker kills, cancellation storms, journal
//! truncation/torn-write/corruption and disk-full simulation, pinned by
//! the invariant that (crash anywhere → resume) reproduces the
//! uninterrupted run's result payloads byte for byte.

use std::path::PathBuf;
use std::sync::Arc;

use fusion_core::journal::{self, JournalHeader, JournalSink, JournalWriter};
use fusion_core::TraceCache;
use fusion_core::{full_grid, Fault, FaultPlan, Sweep, SweepJob, SweepOutcome, SweepSummary};
use fusion_types::error::{SimError, TimeoutKind};
use fusion_types::SystemConfig;
use fusion_workloads::Scale;

const GRID: usize = 28;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fusion_chaos_{}_{name}.jsonl", std::process::id()))
}

fn wal_header(grid: usize) -> JournalHeader {
    JournalHeader {
        scale: "tiny".to_string(),
        code_version: journal::code_version(),
        grid,
    }
}

fn run_with(plan: FaultPlan, retries: u32) -> Vec<SweepOutcome> {
    Sweep::new(Scale::Tiny)
        .retries(retries)
        .with_faults(plan)
        .run(full_grid(&SystemConfig::small()))
}

#[test]
fn planted_faults_do_not_disturb_healthy_jobs() {
    let clean = Sweep::new(Scale::Tiny).run(full_grid(&SystemConfig::small()));
    assert_eq!(clean.len(), GRID);
    assert!(clean.iter().all(|o| o.result.is_ok()), "clean grid failed");

    // Four faults across the grid: one panic, one corrupt trace, one
    // livelock, one truncation — the acceptance scenario (>= 3 faults).
    let plan = FaultPlan::new()
        .inject(2, Fault::Panic)
        .inject(9, Fault::CorruptTrace)
        .inject(17, Fault::Livelock)
        .inject(25, Fault::TruncateTrace);
    let faulty = run_with(plan.clone(), 0);
    assert_eq!(faulty.len(), GRID);

    for (i, (f, c)) in faulty.iter().zip(&clean).enumerate() {
        if plan.fault_for(i).is_some() {
            assert!(f.result.is_err(), "job {i} should have failed");
        } else {
            // Healthy neighbors are byte-identical to the fault-free run
            // (SimResult equality covers every simulated statistic).
            assert_eq!(
                f.result.as_ref().unwrap(),
                c.result.as_ref().unwrap(),
                "fault leaked into healthy job {i} ({})",
                f.job.label()
            );
        }
    }

    let summary = SweepSummary::of(&faulty);
    assert_eq!(summary.completed, GRID - 4);
    assert_eq!(summary.failed, 4);
    assert!(!summary.all_ok());
}

#[test]
fn every_planted_fault_surfaces_as_its_typed_error() {
    let plan = FaultPlan::new()
        .inject(2, Fault::Panic)
        .inject(9, Fault::CorruptTrace)
        .inject(17, Fault::Livelock)
        .inject(25, Fault::TruncateTrace);
    let outcomes = run_with(plan, 0);

    match &outcomes[2].result {
        Err(SimError::JobPanicked { job, .. }) => assert_eq!(*job, outcomes[2].job.label()),
        other => panic!("job 2: expected JobPanicked, got {other:?}"),
    }
    for i in [9, 25] {
        match &outcomes[i].result {
            Err(SimError::DecodeError { .. }) => {}
            other => panic!("job {i}: expected DecodeError, got {other:?}"),
        }
        // Trace damage is deterministic, so it must not have been retried.
        assert_eq!(outcomes[i].attempts, 1, "job {i} wasted retries");
    }
    match &outcomes[17].result {
        Err(SimError::Timeout { kind, .. }) => assert_eq!(*kind, TimeoutKind::SimCycleBudget),
        other => panic!("job 17: expected Timeout, got {other:?}"),
    }
}

#[test]
fn same_seed_sweeps_fail_identically() {
    let plan = FaultPlan::seeded(0xFA57, GRID, 4);
    assert_eq!(plan.len(), 4);
    assert_eq!(plan, FaultPlan::seeded(0xFA57, GRID, 4));

    let a = run_with(plan.clone(), 1);
    let b = run_with(plan, 1);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.job.label(), y.job.label());
        assert_eq!(
            x.result,
            y.result,
            "{}: same-seed runs diverged",
            x.job.label()
        );
        assert_eq!(
            x.attempts,
            y.attempts,
            "{}: retry counts diverged",
            x.job.label()
        );
    }
}

#[test]
fn transient_faults_recover_under_retry_with_clean_results() {
    let clean = Sweep::new(Scale::Tiny).run(full_grid(&SystemConfig::small()));
    let plan = FaultPlan::new().inject(5, Fault::TransientPanic { failures: 1 });
    let retried = run_with(plan, 1);

    assert_eq!(retried[5].attempts, 2, "first attempt panics, second runs");
    // The recovered result is indistinguishable from a never-faulted run.
    assert_eq!(
        retried[5].result.as_ref().unwrap(),
        clean[5].result.as_ref().unwrap()
    );
    let summary = SweepSummary::of(&retried);
    assert!(summary.all_ok());
    assert_eq!(summary.retried, 1);
    // The retry spun a deterministic backoff; first-try jobs spun none.
    assert!(retried[5].backoff > 0, "retried job must report backoff");
    assert!(retried
        .iter()
        .enumerate()
        .all(|(i, o)| i == 5 || o.backoff == 0));
    assert_eq!(
        retried[5].backoff,
        run_with(
            FaultPlan::new().inject(5, Fault::TransientPanic { failures: 1 }),
            1
        )[5]
        .backoff,
        "backoff schedule must be deterministic"
    );
}

#[test]
fn cancel_storm_recovers_under_retry_with_clean_results() {
    let clean = Sweep::new(Scale::Tiny).run(full_grid(&SystemConfig::small()));
    let plan = FaultPlan::new().inject(11, Fault::CancelStorm);

    // Without a retry budget the storm is a transient wall-clock timeout.
    let stormed = run_with(plan.clone(), 0);
    match &stormed[11].result {
        Err(SimError::Timeout { kind, .. }) => assert_eq!(*kind, TimeoutKind::WallClock),
        other => panic!("job 11: expected WallClock timeout, got {other:?}"),
    }

    // With one retry the storm clears and the result is byte-identical.
    let retried = run_with(plan, 1);
    assert_eq!(retried[11].attempts, 2);
    assert!(retried[11].backoff > 0);
    assert_eq!(
        retried[11].result.as_ref().unwrap(),
        clean[11].result.as_ref().unwrap()
    );
    assert!(SweepSummary::of(&retried).all_ok());
}

#[test]
fn worker_kill_leaves_a_gap_and_the_journal_resumes_it() {
    let cfg = SystemConfig::small();
    let jobs = full_grid(&cfg);
    let clean = Sweep::new(Scale::Tiny).run(jobs.clone());

    let path = temp_path("worker_kill");
    let traces = Arc::new(TraceCache::new());
    let writer = JournalWriter::create(&path, &wal_header(jobs.len())).unwrap();
    let outcomes = Sweep::new(Scale::Tiny)
        .with_trace_cache(Arc::clone(&traces))
        .with_faults(FaultPlan::new().inject(13, Fault::WorkerKill))
        .with_journal(Arc::new(JournalSink::new(writer)))
        .run(jobs.clone());

    // The killed worker's claim vanished. How much of the rest completed
    // depends on the pool size (a one-worker pool dies with its only
    // worker), but whatever completed is healthy and job 13 is not in it.
    assert!(outcomes.len() < GRID);
    assert!(outcomes.iter().all(|o| o.result.is_ok()));
    assert!(!outcomes.iter().any(|o| o.job.label() == jobs[13].label()));

    // The journal holds exactly the completed points; resume re-runs only
    // the holes and lands on the uninterrupted results.
    let rec = journal::read_journal(&std::fs::read(&path).unwrap());
    std::fs::remove_file(&path).ok();
    let mut fp = |suite| traces.fingerprint(suite, Scale::Tiny);
    let plan =
        journal::plan_resume(&jobs, Scale::Tiny, &rec, &journal::code_version(), &mut fp).unwrap();
    assert_eq!(plan.resumed_count(), outcomes.len());
    assert!(plan.resumed[13].is_none());
    let todo: Vec<SweepJob> = jobs
        .iter()
        .zip(&plan.resumed)
        .filter(|(_, r)| r.is_none())
        .map(|(j, _)| j.clone())
        .collect();
    let rerun = Sweep::new(Scale::Tiny)
        .with_trace_cache(Arc::clone(&traces))
        .run(todo.clone());
    assert_eq!(rerun.len(), todo.len());
    for o in &rerun {
        let i = jobs
            .iter()
            .position(|j| j.label() == o.job.label())
            .unwrap();
        assert_eq!(
            o.result.as_ref().unwrap(),
            clean[i].result.as_ref().unwrap(),
            "{} diverged after kill + resume",
            o.job.label()
        );
    }
}

/// The tentpole invariant: crash *anywhere* — after any number of
/// journaled rows, mid-line, or on a corrupted line — then resume, and
/// the stitched result payloads are byte-identical to the uninterrupted
/// run's.
#[test]
fn crash_anywhere_then_resume_is_byte_identical() {
    let cfg = SystemConfig::small();
    let jobs = full_grid(&cfg);
    let traces = Arc::new(TraceCache::new());

    // Uninterrupted journaled reference run.
    let path = temp_path("crash_anywhere");
    let writer = JournalWriter::create(&path, &wal_header(jobs.len())).unwrap();
    let reference = Sweep::new(Scale::Tiny)
        .with_trace_cache(Arc::clone(&traces))
        .with_journal(Arc::new(JournalSink::new(writer)))
        .run(jobs.clone());
    let ref_json: Vec<String> = reference
        .iter()
        .map(|o| o.result.as_ref().unwrap().to_json())
        .collect();
    let wal = String::from_utf8(std::fs::read(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = wal.lines().collect();
    assert_eq!(lines.len(), GRID + 1, "header + one row per grid point");

    let assert_resume_matches = |bytes: &[u8], expect_resumed: usize| {
        let rec = journal::read_journal(bytes);
        let mut fp = |suite| traces.fingerprint(suite, Scale::Tiny);
        let plan =
            journal::plan_resume(&jobs, Scale::Tiny, &rec, &journal::code_version(), &mut fp)
                .unwrap();
        assert_eq!(plan.resumed_count(), expect_resumed);
        let todo: Vec<SweepJob> = jobs
            .iter()
            .zip(&plan.resumed)
            .filter(|(_, r)| r.is_none())
            .map(|(j, _)| j.clone())
            .collect();
        let outcomes = Sweep::new(Scale::Tiny)
            .with_trace_cache(Arc::clone(&traces))
            .run(todo);
        let mut live = outcomes.iter();
        let stitched: Vec<String> = plan
            .resumed
            .iter()
            .map(|r| match r {
                Some(row) => row.result_json.clone(),
                None => live.next().unwrap().result.as_ref().unwrap().to_json(),
            })
            .collect();
        assert_eq!(stitched, ref_json, "resume diverged from uninterrupted run");
    };

    // Crash after k completed rows (truncation at line boundaries),
    // including the extremes: nothing journaled and everything journaled.
    for k in [0usize, 1, 13, GRID - 1, GRID] {
        let mut crashed = lines[..=k].join("\n");
        crashed.push('\n');
        assert_resume_matches(crashed.as_bytes(), k);
    }
    // Torn tail: the process died mid-write, leaving half a line.
    let torn = &wal.as_bytes()[..wal.len() - 40];
    assert_resume_matches(torn, GRID - 1);
    // A corrupted (bit-flipped) line mid-file fails its seal and re-runs;
    // its neighbors are untouched.
    let mut flipped = wal.clone().into_bytes();
    let mid_line_offset: usize = lines[..=13].iter().map(|l| l.len() + 1).sum::<usize>() + 30;
    flipped[mid_line_offset] ^= 0x10;
    assert_resume_matches(&flipped, GRID - 1);
}

#[test]
fn disk_full_kills_the_journal_softly_but_never_the_sweep() {
    let cfg = SystemConfig::small();
    let jobs = full_grid(&cfg);
    let path = temp_path("disk_full");
    // Room for the header plus roughly two rows, then the device is full.
    let writer = JournalWriter::create(&path, &wal_header(jobs.len()))
        .unwrap()
        .with_quota(4096);
    let sink = Arc::new(JournalSink::new(writer));
    let sweep = Sweep::new(Scale::Tiny)
        .with_journal(Arc::clone(&sink))
        .with_trace_cache(Arc::new(TraceCache::new()));
    let outcomes = sweep.run(jobs);

    // Every job still completed — journal loss degrades durability, not
    // results — and the loss is reported, not silent.
    assert_eq!(outcomes.len(), GRID);
    assert!(outcomes.iter().all(|o| o.result.is_ok()));
    let lost = sink.lost().expect("quota must have killed the journal");
    assert!(lost.contains("quota"), "{lost}");
    assert!(sweep.journal_lost());

    // What made it to disk before the wall is still a valid journal.
    let rec = journal::read_journal(&std::fs::read(&path).unwrap());
    std::fs::remove_file(&path).ok();
    assert!(rec.header.is_some());
    assert!(rec.rows.len() < GRID);
}

#[test]
fn repeated_transients_across_the_grid_recover_with_clean_results() {
    let cfg = SystemConfig::small();
    let clean = Sweep::new(Scale::Tiny).run(full_grid(&cfg));

    // Eight transient panics across the grid, each recovered by one retry.
    let mut plan = FaultPlan::new();
    for job in [0, 3, 6, 9, 12, 15, 18, 21] {
        plan = plan.inject(job, Fault::TransientPanic { failures: 1 });
    }
    let outcomes = Sweep::new(Scale::Tiny)
        .retries(1)
        .with_faults(plan)
        .run(full_grid(&cfg));

    // Every job completed and every result matches the healthy run.
    assert_eq!(outcomes.len(), GRID);
    for (o, c) in outcomes.iter().zip(&clean) {
        assert_eq!(
            o.result.as_ref().unwrap(),
            c.result.as_ref().unwrap(),
            "{} diverged after its retry",
            o.job.label()
        );
    }
}

#[test]
fn seeded_chaos_storms_are_deterministic_end_to_end() {
    let cfg = SystemConfig::small();
    let plan = FaultPlan::seeded_chaos(0xC4A05, GRID, 6);
    let kills = plan
        .entries()
        .iter()
        .filter(|(_, f)| *f == Fault::WorkerKill)
        .count();
    let a = Sweep::new(Scale::Tiny)
        .retries(1)
        .with_faults(plan.clone())
        .run(full_grid(&cfg));
    let b = Sweep::new(Scale::Tiny)
        .retries(1)
        .with_faults(plan)
        .run(full_grid(&cfg));
    // Killed workers leave gaps (more on small pools, where a kill takes
    // the rest of the queue with it); everything that ran is reproducible.
    assert!(a.len() <= GRID - kills);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.job.label(), y.job.label());
        assert_eq!(x.result, y.result, "{}", x.job.label());
        assert_eq!(x.attempts, y.attempts);
        assert_eq!(x.backoff, y.backoff);
    }
}
