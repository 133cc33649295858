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
//! the durability layer: worker kills, journal truncation/torn-write/corruption and disk-full simulation, pinned by
//! the invariant that (crash anywhere → resume) reproduces the
//! uninterrupted run's result payloads byte for byte.

mod common;

use std::path::PathBuf;
use std::sync::Arc;

use common::wal_header;
use fusion_core::journal::{self, JournalSink, JournalWriter};
use fusion_core::TraceCache;
use fusion_core::{
    design_grid, full_grid, Fault, FaultPlan, GridPoint, SimResult, Sweep, SweepOutcome,
};
use fusion_types::error::{JournalError, SimError};
use fusion_types::SystemConfig;
use fusion_workloads::Scale;

const GRID: usize = 28;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fusion_chaos_{}_{name}.jsonl", std::process::id()))
}

fn run_with(plan: FaultPlan) -> Vec<SweepOutcome> {
    Sweep::new(Scale::Tiny)
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
    let faulty = run_with(plan.clone());
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

    let failed = faulty.iter().filter(|o| o.result.is_err()).count();
    assert_eq!(failed, 4);
}

#[test]
fn every_planted_fault_surfaces_as_its_typed_error() {
    let plan = FaultPlan::new()
        .inject(2, Fault::Panic)
        .inject(9, Fault::CorruptTrace)
        .inject(17, Fault::Livelock)
        .inject(25, Fault::TruncateTrace);
    let outcomes = run_with(plan);

    match &outcomes[2].result {
        Err(SimError::JobPanicked { job, .. }) => assert_eq!(*job, outcomes[2].job.label()),
        other => panic!("job 2: expected JobPanicked, got {other:?}"),
    }
    for i in [9, 25] {
        match &outcomes[i].result {
            Err(SimError::DecodeError { .. }) => {}
            other => panic!("job {i}: expected DecodeError, got {other:?}"),
        }
    }
    match &outcomes[17].result {
        Err(SimError::Timeout { limit, .. }) => assert_eq!(*limit, 1),
        other => panic!("job 17: expected Timeout, got {other:?}"),
    }
}

#[test]
fn same_seed_sweeps_fail_identically() {
    let plan = FaultPlan::seeded(0xFA57, GRID, 4);
    assert_eq!(plan.len(), 4);
    assert_eq!(plan, FaultPlan::seeded(0xFA57, GRID, 4));

    let a = run_with(plan.clone());
    let b = run_with(plan);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.job.label(), y.job.label());
        assert_eq!(
            x.result,
            y.result,
            "{}: same-seed runs diverged",
            x.job.label()
        );
    }
}

/// Asserts that `points` land on `reference`, a sweep that resumed
/// nothing and lost no worker: a live point by full result equality, a
/// spliced row by its payload, byte for byte.
fn assert_lands_on(points: &[GridPoint], reference: &[SweepOutcome], what: &str) {
    assert_eq!(points.len(), reference.len());
    for (point, want) in points.iter().zip(reference) {
        let label = want.job.label();
        match point {
            GridPoint::Live(o) => assert_eq!(o.result, want.result, "{label}: {what}"),
            GridPoint::Resumed(row) => assert_eq!(
                Some(&row.result_json),
                want.result.as_ref().ok().map(SimResult::to_json).as_ref(),
                "{label}: {what}"
            ),
            GridPoint::NotRun => panic!("{label} was never run: {what}"),
        }
    }
}

#[test]
fn worker_kill_leaves_a_gap_and_the_journal_resumes_it() {
    let jobs = full_grid(&SystemConfig::small());
    let clean = Sweep::new(Scale::Tiny).run(jobs.clone());
    let path = temp_path("worker_kill");
    let mut kill =
        Sweep::new(Scale::Tiny).with_faults(FaultPlan::new().inject(13, Fault::WorkerKill));
    let slots = kill.open_journal(&path, false, &jobs, |_| {}).unwrap();
    let killed = kill.run_points(&jobs, slots);

    // The killed worker's claim vanished. How much of the rest completed
    // depends on the pool size (a one-worker pool dies with its only
    // worker), but whatever completed is healthy and job 13 is not in it.
    assert!(matches!(killed[13], GridPoint::NotRun));
    let completed: Vec<&SweepOutcome> = killed.iter().filter_map(GridPoint::outcome).collect();
    assert!(completed.iter().all(|o| o.result.is_ok()));

    // The journal holds exactly the completed points; resume re-runs only
    // the holes and lands on the uninterrupted results.
    let mut resume = Sweep::new(Scale::Tiny);
    let slots = resume.open_journal(&path, true, &jobs, |_| {}).unwrap();
    let resumed = resume.run_points(&jobs, slots);
    std::fs::remove_file(&path).ok();
    assert!(
        resumed
            .iter()
            .zip(&killed)
            .all(|(after, before)| after.is_resumed() == matches!(before, GridPoint::Live(_))),
        "only the completed points resume"
    );
    assert_lands_on(&resumed, &clean, "diverged after kill + resume");
}

/// The tentpole invariant: crash *anywhere* — after any number of
/// journaled rows, mid-line, or on a corrupted line — then resume, and
/// the result payloads are byte-identical to the uninterrupted run's.
/// Both runs open their journal with `Sweep::open_journal`, and the
/// resume splices through `Sweep::run_points`: the path `sim sweep` ships.
#[test]
fn crash_anywhere_then_resume_is_byte_identical() {
    let jobs = full_grid(&SystemConfig::small());
    let traces = Arc::new(TraceCache::new());
    let sweep = || Sweep::new(Scale::Tiny).with_trace_cache(Arc::clone(&traces));

    // Uninterrupted journaled reference run.
    let path = temp_path("crash_anywhere");
    let mut fresh = sweep();
    fresh.open_journal(&path, false, &jobs, |_| {}).unwrap();
    let reference = fresh.run(jobs.clone());
    assert!(reference.iter().all(|o| o.result.is_ok()));
    let wal = String::from_utf8(std::fs::read(&path).unwrap()).unwrap();
    let lines: Vec<&str> = wal.lines().collect();
    assert_eq!(lines.len(), GRID + 1, "header + one row per grid point");

    let assert_resume_matches = |bytes: &[u8], expect_resumed: usize| {
        std::fs::write(&path, bytes).unwrap();
        let mut resume = sweep();
        let slots = resume.open_journal(&path, true, &jobs, |_| {}).unwrap();
        let points = resume.run_points(&jobs, slots);
        assert_eq!(
            points.iter().filter(|p| p.is_resumed()).count(),
            expect_resumed
        );
        assert_lands_on(
            &points,
            &reference,
            "resume diverged from uninterrupted run",
        );
        // The resumed sweep journaled what it ran: a second resume
        // splices the whole grid.
        let again = sweep().open_journal(&path, true, &jobs, |_| {}).unwrap();
        assert_eq!(again.iter().flatten().count(), GRID);
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
    std::fs::remove_file(&path).ok();
}

/// Faults are staged by grid position, so a resumed sweep faults exactly
/// the points a fresh sweep faults: the resumed points around them do not
/// shift the plan.
#[test]
fn a_resumed_grid_faults_the_same_points_as_a_fresh_one() {
    let jobs = design_grid(&SystemConfig::small());
    let plan = FaultPlan::seeded(7, jobs.len(), 6);
    let planted: Vec<usize> = plan.entries().iter().map(|&(i, _)| i).collect();
    let faulted = || Sweep::new(Scale::Tiny).with_faults(plan.clone());
    let path = temp_path("resume_faults");
    let mut first = faulted();
    first.open_journal(&path, false, &jobs, |_| {}).unwrap();
    let fresh = first.run(jobs.clone());
    let failed: Vec<usize> = (0..fresh.len())
        .filter(|&i| fresh[i].result.is_err())
        .collect();
    assert_eq!(failed, planted);

    // Resume from the header and the first 60 rows: some of them lie past
    // a planted point.
    let wal = std::fs::read_to_string(&path).unwrap();
    let prefix: String = wal.lines().take(61).map(|l| format!("{l}\n")).collect();
    std::fs::write(&path, prefix).unwrap();
    let mut resume = faulted();
    let slots = resume.open_journal(&path, true, &jobs, |_| {}).unwrap();
    let resumed = resume.run_points(&jobs, slots);
    std::fs::remove_file(&path).ok();
    assert_eq!(resumed.iter().filter(|p| p.is_resumed()).count(), 60);
    assert!(planted[0] < resumed.iter().rposition(GridPoint::is_resumed).unwrap());
    assert_lands_on(&resumed, &fresh, "resume moved a fault");
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

    // A quota inside a multi-row batch. A memo group's rows are one
    // batch, and the batch that crosses the quota writes nothing, so the
    // file ends at a group boundary before the quota and is a byte prefix
    // of the unbounded journal. Every outcome is still published.
    let jobs = design_grid(&cfg);
    let traces = Arc::new(TraceCache::new());
    let journaled = |path: &PathBuf, quota: Option<u64>| {
        let mut writer = JournalWriter::create(path, &wal_header(jobs.len())).unwrap();
        if let Some(q) = quota {
            writer = writer.with_quota(q);
        }
        let sink = Arc::new(JournalSink::new(writer));
        let outcomes = Sweep::new(Scale::Tiny)
            .threads(1)
            .with_trace_cache(Arc::clone(&traces))
            .with_journal(Arc::clone(&sink))
            .run(jobs.clone());
        let bytes = std::fs::read(path).unwrap();
        std::fs::remove_file(path).ok();
        (sink, outcomes, bytes)
    };
    let (_, reference, full) = journaled(&temp_path("disk_full_unbounded"), None);
    // ends[j]: where the header and the first j claimed groups end.
    let line_ends: Vec<usize> = (0..full.len()).filter(|&i| full[i] == b'\n').collect();
    let groups = common::claim_groups(&reference);
    let mut ends = vec![line_ends[0] + 1];
    let mut rows = 0;
    for g in &groups {
        rows += g.len();
        ends.push(line_ends[rows] + 1);
    }
    let k = (0..groups.len())
        .rev()
        .find(|&k| groups[k].len() > 1)
        .unwrap();
    let quota = (ends[k] + ends[k + 1]) / 2;
    let (sink, outcomes, bytes) = journaled(&temp_path("disk_full_batch"), Some(quota as u64));
    assert_eq!(outcomes.len(), jobs.len());
    assert!(outcomes.iter().all(|o| o.result.is_ok()));
    assert!(sink.lost().is_some_and(|l| l.contains("quota")));
    assert!(
        ends[..=k].contains(&bytes.len()),
        "journal of {} bytes ends inside a batch (quota {quota})",
        bytes.len()
    );
    assert!(bytes[..] == full[..bytes.len()]);
}

/// Resume compaction never truncates the journal it compacts: when the
/// compacted write fails, the original journal is untouched, no partial
/// temp file is left beside it, and it still resumes every row; when it
/// succeeds, the rewritten journal holds the same bytes and the temp file
/// is gone.
#[test]
fn failed_compaction_leaves_the_journal_resumable() {
    let jobs = full_grid(&SystemConfig::small());
    let traces = Arc::new(TraceCache::new());
    let path = temp_path("compact");
    let mut tmp = path.clone().into_os_string();
    tmp.push(".compact");
    let tmp = PathBuf::from(tmp);
    // One worker journals in grid order, the order compaction writes.
    let mut sweep = Sweep::new(Scale::Tiny)
        .threads(1)
        .with_trace_cache(Arc::clone(&traces));
    sweep.open_journal(&path, false, &jobs, |_| {}).unwrap();
    sweep.run(jobs.clone());
    let original = std::fs::read(&path).unwrap();
    let resumed = |bytes: &[u8]| {
        let mut fp = |suite| traces.fingerprint(suite, Scale::Tiny);
        let rec = journal::read_journal(bytes);
        journal::plan_resume(&jobs, Scale::Tiny, &rec, &journal::code_version(), &mut fp).unwrap()
    };
    let plan = resumed(&original);
    assert_eq!(plan.resumed_count(), GRID);
    let compact = || {
        journal::compact(
            &path,
            &wal_header(jobs.len()),
            plan.resumed.iter().flatten(),
        )
    };
    let assert_untouched = || {
        let after = std::fs::read(&path).unwrap();
        assert!(after == original, "a failed compaction touched the journal");
        assert_eq!(resumed(&after).resumed_count(), GRID);
    };

    // A directory where the temp file goes: creating it fails (EISDIR,
    // even as root) and nothing is written.
    std::fs::create_dir(&tmp).unwrap();
    let err = compact().unwrap_err();
    assert!(matches!(err, JournalError::Io { .. }), "{err}");
    assert_untouched();
    assert!(
        std::fs::read_dir(&tmp).unwrap().next().is_none(),
        "a failed compaction wrote into the temp path"
    );
    // A resume names the rows it drops before it compacts, so a failed
    // compaction still reports them.
    std::fs::write(&path, [&original[..], b"{\"torn"].concat()).unwrap();
    let mut warnings = Vec::new();
    let err = Sweep::new(Scale::Tiny)
        .with_trace_cache(Arc::clone(&traces))
        .open_journal(&path, true, &jobs, |w| warnings.push(w.to_string()))
        .unwrap_err();
    assert!(matches!(err, JournalError::Io { .. }), "{err}");
    assert_eq!(
        warnings,
        [format!(
            "line {}: torn tail (partial write); dropped, will re-run",
            GRID + 2
        )]
    );
    std::fs::write(&path, &original).unwrap();
    std::fs::remove_dir(&tmp).unwrap();

    // A temp file that opens but whose write fails (ENOSPC from
    // /dev/full): the failed batch's temp file is removed again.
    #[cfg(target_os = "linux")]
    {
        std::os::unix::fs::symlink("/dev/full", &tmp).unwrap();
        let err = compact().unwrap_err();
        assert!(matches!(err, JournalError::Io { .. }), "{err}");
        assert_untouched();
        assert!(tmp.symlink_metadata().is_err(), "temp file left behind");
    }

    let compacted = compact().unwrap();
    assert_eq!(compacted.syncs(), 1, "header and rows in one batch");
    assert!(std::fs::read(&path).unwrap() == original);
    std::fs::remove_file(&path).ok();
    assert!(tmp.symlink_metadata().is_err(), "temp file left behind");
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
        .with_faults(plan.clone())
        .run(full_grid(&cfg));
    let b = Sweep::new(Scale::Tiny)
        .with_faults(plan)
        .run(full_grid(&cfg));
    // Killed workers leave gaps (more on small pools, where a kill takes
    // the rest of the queue with it); everything that ran is reproducible.
    assert!(a.len() <= GRID - kills);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.job.label(), y.job.label());
        assert_eq!(x.result, y.result, "{}", x.job.label());
    }
}

#[test]
fn faulted_sweeps_match_across_worker_counts() {
    // The memo plan and the fault plan are both fixed before any job
    // runs, so a faulted, memoized design grid must not depend on how
    // many workers claim its jobs.
    let jobs = design_grid(&SystemConfig::small());
    let plan = FaultPlan::seeded(0xFA57, jobs.len(), 6);
    assert_eq!(plan.len(), 6);
    let run = |threads: usize| {
        Sweep::new(Scale::Tiny)
            .threads(threads)
            .with_faults(plan.clone())
            .run(jobs.clone())
    };
    let (one, two) = (run(1), run(2));
    assert_eq!(one.len(), jobs.len());
    assert_eq!(two.len(), jobs.len());
    for (i, (x, y)) in one.iter().zip(&two).enumerate() {
        assert_eq!(x.job.label(), y.job.label());
        assert_eq!(x.result, y.result, "job {i} ({})", x.job.label());
        assert_eq!(x.memo.mark, y.memo.mark, "job {i} ({})", x.job.label());
        assert_eq!(x.result.is_err(), plan.fault_for(i).is_some(), "job {i}");
    }
}
