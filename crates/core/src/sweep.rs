//! Parallel, fault-tolerant design-space sweep: the substrate behind
//! `sim sweep`, `sim compare` and the `tables` binary.
//!
//! The paper's evaluation is a grid — 4 systems × 7 suites × configuration
//! knobs (Figures 6–7, Tables 3–6). This module runs such a grid as a set
//! of [`SweepJob`]s over a scoped worker pool:
//!
//! * **Trace sharing** — each distinct `(suite, scale)` workload is
//!   recorded exactly once behind an [`Arc`] (see [`TraceCache`]); every
//!   job replaying that suite shares its phase metadata, its lanes and
//!   their memoized analyses instead of re-running the instrumented
//!   kernels per run.
//! * **Planning-time dedupe** — before any job runs, `memo::plan`
//!   groups the jobs by system, suite and the config slice the system can
//!   observe (on by default, see [`Sweep::memo`] and DESIGN.md §12). Each
//!   group's first member is simulated and its result copied into the
//!   others, so a [`design_grid`] replays only the points each config
//!   knob can actually influence. Faulted, checker-enabled and invalid
//!   jobs are never grouped, and memo-on output is byte-identical to
//!   memo-off.
//! * **Worker pool** — jobs fan out over [`std::thread::scope`] threads,
//!   sized from [`std::thread::available_parallelism`] (capped by the job
//!   count, overridable via [`Sweep::threads`]). Workers claim jobs from a
//!   shared atomic cursor, so long jobs never convoy short ones.
//! * **Job isolation** — every job runs under
//!   [`std::panic::catch_unwind`]: a panicking simulation becomes a
//!   [`SimError::JobPanicked`] in that job's slot instead of tearing down
//!   the pool, and result slots are written with poison recovery so one
//!   casualty never forfeits the rest of the grid (DESIGN.md §10).
//! * **Cycle budget** — [`Sweep::budget`] arms a per-job simulated-cycle
//!   budget (the protocol-livelock guard), checked at phase boundaries; a
//!   run that passes it surfaces as [`SimError::Timeout`]. Each job runs
//!   once: a failure is a pure function of the job's inputs, so there is
//!   nothing a retry could recover, and no outcome depends on the host's
//!   clock.
//! * **Write-ahead journal** — with [`Sweep::with_journal`] every
//!   completed grid point is recorded to a checksummed, fsync'd journal
//!   *before* its result is published (DESIGN.md §13,
//!   [`crate::journal`]). Workers hand each memo group's rows to one
//!   writer thread that appends all queued rows with one fsync, so the
//!   sync overlaps the next replay. A crashed sweep resumes from the
//!   journal instead of restarting: [`Sweep::open_journal`] returns the
//!   verified rows and [`Sweep::run_points`] splices them, running only
//!   the rest and returning one [`GridPoint`] per grid position.
//!   Journal loss mid-sweep is fail-soft: the sweep finishes without it
//!   and [`Sweep::journal_lost`] reports the loss.
//! * **Determinism** — every simulation is a pure function of its
//!   `(system, workload, config)` inputs, and every injected fault is a
//!   pure function of the [`FaultPlan`], indexed by grid position. No
//!   input depends on thread timing. Results are written into per-job
//!   slots, so the output order is the grid order regardless of which
//!   worker finished first, and each successful [`SimResult`] is identical
//!   to what a sequential [`crate::runner::run_system`] call produces
//!   (equality ignores the wall-time metadata; see
//!   [`crate::result::RunMetrics`]).
//!
//! Per-job host-side measurements — wall time, queue delay (submission to
//! worker pickup) and the simulated event count — come back attached to
//! each result's [`SimResult::metrics`].
//!
//! # Examples
//!
//! ```
//! use fusion_core::sweep::{full_grid, Sweep};
//! use fusion_types::SystemConfig;
//! use fusion_workloads::Scale;
//!
//! let jobs = full_grid(&SystemConfig::small());
//! assert_eq!(jobs.len(), 4 * 7);
//! let outcomes = Sweep::new(Scale::Tiny).run(jobs);
//! assert_eq!(outcomes.len(), 4 * 7);
//! // `expect_result` names the grid point and the typed error on
//! // failure — prefer it over unwrapping `o.result` directly.
//! assert!(outcomes.iter().all(|o| o.expect_result().total_cycles > 0));
//! ```

use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Instant;

use fusion_accel::{io as trace_io, Workload};
use fusion_types::error::{JournalError, SimError};
use fusion_types::fault::CheckerConfig;
use fusion_types::hash::FxHashMap;
use fusion_types::{ProtocolFaultKind, SystemConfig};
use fusion_workloads::{all_suites, build_suite, Scale, SuiteId};

use crate::faults::{Fault, FaultPlan};
use crate::journal::{self, JournalRow, JournalSink};
use crate::memo::{self, MemoMark, MemoRow, Role};
use crate::result::{duration_nanos_saturating, SimResult};
use crate::runner::{run_system_guarded, RunControl, SystemKind};

/// One point of the design-space grid: a system, the suite whose trace it
/// replays, and the configuration to simulate under.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Architecture to simulate.
    pub system: SystemKind,
    /// Workload suite to replay.
    pub suite: SuiteId,
    /// Configuration knobs (cache sizes, write policy, prefetch, ...).
    pub config: SystemConfig,
    /// Configuration-variant label of the design-space axis this job sits
    /// on (`"base"` for the reference configuration; [`design_grid`]
    /// stamps `"l0x8k"`, `"sp16k"`, ... on its variant points).
    pub variant: String,
}

impl SweepJob {
    /// Convenience constructor for the common default-config case.
    pub fn new(system: SystemKind, suite: SuiteId, config: SystemConfig) -> SweepJob {
        SweepJob {
            system,
            suite,
            config,
            variant: "base".to_string(),
        }
    }

    /// Human-readable grid-point label ("FFT/FU", "FFT/FU@l0x8k"), used in
    /// timeout and panic diagnostics and the CLI failure report.
    pub fn label(&self) -> String {
        if self.variant == "base" {
            format!("{}/{}", self.suite, self.system.label())
        } else {
            format!("{}/{}@{}", self.suite, self.system.label(), self.variant)
        }
    }
}

/// One finished grid point: the job echoed back plus its simulation
/// result or typed failure, with [`SimResult::metrics`] filled in by the
/// pool on success.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The grid point that was run.
    pub job: SweepJob,
    /// The simulation result (identical to a sequential `run_system`) or
    /// the typed error that stopped the job.
    pub result: Result<SimResult, SimError>,
    /// Whether this job was simulated or copied from its group's first
    /// member (DESIGN.md §12).
    pub memo: MemoRow,
}

impl SweepOutcome {
    /// The successful result, or a panic that names the grid point and
    /// prints the typed [`SimError`] — what tests and examples should
    /// reach for instead of `.result.as_ref().unwrap()`, which drops both
    /// the job label and the error's kind from the failure message.
    ///
    /// # Panics
    ///
    /// Panics when the job failed, with a message like
    /// `job FFT/FU failed [timeout]: ...`.
    pub fn expect_result(&self) -> &SimResult {
        match &self.result {
            Ok(res) => res,
            Err(e) => panic!("job {} failed [{}]: {e}", self.job.label(), e.kind_label()),
        }
    }
}

/// One grid point of a sweep that may resume from a journal
/// ([`Sweep::run_points`]): run live, spliced from the journal, or left
/// unrun because the worker that claimed it was killed
/// ([`Fault::WorkerKill`]).
#[derive(Debug, Clone)]
pub enum GridPoint {
    /// Run by this sweep: a result or a typed failure.
    Live(Box<SweepOutcome>),
    /// Spliced verbatim from the journal; never run.
    Resumed(JournalRow),
    /// Claimed by a worker that died before running it.
    NotRun,
}

impl GridPoint {
    /// The live outcome, if this point ran.
    pub fn outcome(&self) -> Option<&SweepOutcome> {
        match self {
            GridPoint::Live(o) => Some(o),
            _ => None,
        }
    }

    /// Whether this point was spliced from the journal.
    pub fn is_resumed(&self) -> bool {
        matches!(self, GridPoint::Resumed(_))
    }
}

/// The full evaluation grid at one configuration: every system of
/// Section 5 × every suite of Table 1, in deterministic figure order
/// (suites outer, systems inner).
pub fn full_grid(cfg: &SystemConfig) -> Vec<SweepJob> {
    let mut jobs = Vec::with_capacity(4 * 7);
    for suite in all_suites() {
        for system in [
            SystemKind::Scratch,
            SystemKind::Shared,
            SystemKind::Fusion,
            SystemKind::FusionDx,
        ] {
            jobs.push(SweepJob::new(system, suite, cfg.clone()));
        }
    }
    jobs
}

/// Capacity points of the design-space axes (bytes): the paper's
/// sensitivity sweeps walk the private-store size around the 4 KB
/// reference point.
const CAPACITY_POINTS: [usize; 3] = [2048, 8192, 16384];

/// The differential design-space grid: the [`full_grid`] at the base
/// configuration, then the full grid again at each L0X-capacity and each
/// scratchpad-capacity variant (7 × 28 = 196 jobs, base first).
///
/// This is the grid where the memo pays: SCRATCH and SHARED cannot
/// observe the L0X axis, and SHARED/FUSION/FUSION-Dx cannot observe the
/// scratchpad axis, so with the memo on, 105 of the 196 points copy a
/// base result instead of replaying (DESIGN.md §12).
pub fn design_grid(base: &SystemConfig) -> Vec<SweepJob> {
    let mut jobs = full_grid(base);
    for cap in CAPACITY_POINTS {
        let mut cfg = base.clone();
        cfg.l0x.capacity_bytes = cap;
        let variant = format!("l0x{}k", cap / 1024);
        for mut job in full_grid(&cfg) {
            job.variant = variant.clone();
            jobs.push(job);
        }
    }
    for cap in CAPACITY_POINTS {
        let mut cfg = base.clone();
        cfg.scratchpad.capacity_bytes = cap;
        let variant = format!("sp{}k", cap / 1024);
        for mut job in full_grid(&cfg) {
            job.variant = variant.clone();
            jobs.push(job);
        }
    }
    jobs
}

/// Workload traces recorded once per `(suite, scale)` and shared between
/// jobs behind [`Arc`]s, each with its memoized analyses.
///
/// `build_suite` re-runs the instrumented kernels every call; for a full
/// grid that is 4–6 rebuilds per suite. The cache makes it exactly one —
/// even under contention: each key owns a [`OnceLock`] build slot, so the
/// kernels never run while the cache-wide mutex is held and never run
/// twice for the same key (concurrent callers for one key block on the
/// slot, not on each other's builds).
#[derive(Default)]
pub struct TraceCache {
    // Hot-map audit: keyed per (suite, scale) under a mutex; FxHash keeps
    // the critical section short and the iteration order deterministic.
    slots: Mutex<FxHashMap<(SuiteId, Scale), Arc<BuildSlot>>>,
    builds: AtomicUsize,
}

/// One key's build slot: the recorded trace and, once asked for, its
/// fingerprint. Cloned out of the map so initialization runs without
/// holding the cache-wide mutex.
#[derive(Default)]
struct BuildSlot {
    trace: OnceLock<Arc<Workload>>,
    fingerprint: OnceLock<u64>,
}

impl TraceCache {
    /// Creates an empty cache.
    pub fn new() -> TraceCache {
        TraceCache::default()
    }

    /// Returns the shared workload for `(suite, scale)`, recording it on
    /// first use.
    pub fn get(&self, suite: SuiteId, scale: Scale) -> Arc<Workload> {
        Arc::clone(self.slot(suite, scale).trace.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(build_suite(suite, scale))
        }))
    }

    /// FNV-1a fingerprint of `(suite, scale)`'s encoded trace bytes — the
    /// value the result journal stores per row so a resume can prove the
    /// workload generator still produces the same trace (DESIGN.md §13).
    /// Hashed from the cached workload on first use and memoized in the
    /// key's build slot, so later calls only look it up.
    pub fn fingerprint(&self, suite: SuiteId, scale: Scale) -> u64 {
        *self
            .slot(suite, scale)
            .fingerprint
            .get_or_init(|| trace_io::fingerprint(&self.get(suite, scale)))
    }

    /// The build slot for `(suite, scale)`, created empty on first use.
    fn slot(&self, suite: SuiteId, scale: Scale) -> Arc<BuildSlot> {
        // The map mutex only guards slot creation — cheap and O(1). The
        // expensive build happens inside the per-key OnceLock, outside the
        // mutex, so distinct suites materialize concurrently and one key
        // builds exactly once. Poison recovery: the guarded state is a
        // plain map of Arc'd slots, never left half-updated by a panic.
        Arc::clone(
            self.slots
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .entry((suite, scale))
                .or_default(),
        )
    }

    /// Total workload builds performed (each key builds exactly once).
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }
}

/// Sweep executor: owns the scale, the worker-count policy, the trace
/// cache, the cycle budget and the fault plan.
pub struct Sweep {
    scale: Scale,
    threads: Option<usize>,
    traces: Arc<TraceCache>,
    budget: Option<u64>,
    faults: FaultPlan,
    memo: bool,
    journal: Option<Arc<JournalSink>>,
}

impl Sweep {
    /// A sweep at `scale` with the default pool size
    /// (`available_parallelism`, capped by the job count), no cycle
    /// budget, no faults and the memo on (DESIGN.md §12).
    pub fn new(scale: Scale) -> Sweep {
        Sweep {
            scale,
            threads: None,
            traces: Arc::new(TraceCache::new()),
            budget: None,
            faults: FaultPlan::new(),
            memo: true,
            journal: None,
        }
    }

    /// Overrides the worker count (`1` forces the sequential path; values
    /// are clamped to at least one).
    pub fn threads(mut self, threads: usize) -> Sweep {
        self.threads = Some(threads.max(1));
        self
    }

    /// Shares an existing trace cache, so the caller can read the
    /// traces the jobs replayed (the `tables` renderers) and repeated
    /// sweeps skip re-materialization.
    pub fn with_trace_cache(mut self, traces: Arc<TraceCache>) -> Sweep {
        self.traces = traces;
        self
    }

    /// Arms a per-job simulated-cycle budget (DESIGN.md §10): a run that
    /// passes `cycles` simulated cycles is livelocked by definition and
    /// aborts with [`SimError::Timeout`].
    pub fn budget(mut self, cycles: u64) -> Sweep {
        self.budget = Some(cycles);
        self
    }

    /// Stages a deterministic fault plan (see [`crate::faults`]).
    pub fn with_faults(mut self, faults: FaultPlan) -> Sweep {
        self.faults = faults;
        self
    }

    /// Enables or disables planning-time dedupe (on by default; `sim
    /// sweep --no-memo` turns it off). With the memo off every grid point
    /// fully replays — the A/B reference the determinism tests and the CI
    /// gate compare against.
    pub fn memo(mut self, enabled: bool) -> Sweep {
        self.memo = enabled;
        self
    }

    /// Attaches a write-ahead result journal: every completed grid point
    /// is recorded (checksummed, fsync'd) before its result is published
    /// (DESIGN.md §13). A writer thread commits the rows in batches, one
    /// fsync for all the groups queued since its last one. Journal loss
    /// mid-sweep is fail-soft — the sweep finishes, and
    /// [`Sweep::journal_lost`] reports the loss. Each row carries its
    /// trace's fingerprint, hashed once per suite while the sweep
    /// prepares the traces.
    pub fn with_journal(mut self, sink: Arc<JournalSink>) -> Sweep {
        self.journal = Some(sink);
        self
    }

    /// Opens the journal at `path` for the grid `jobs` and attaches it
    /// ([`Sweep::with_journal`]): fresh, it creates the journal (truncating
    /// any file at `path`); with `resume`, it verifies the journaled rows
    /// against this sweep's own traces and compacts the journal to them
    /// (DESIGN.md §13). Returns the slots [`Sweep::run_points`] takes: the
    /// verified row to splice, or `None` to run the point. Dropped rows and
    /// a missing journal go to `warn`. A header of another code version or
    /// scale is a usage error ([`JournalError::is_usage`]).
    pub fn open_journal(
        &mut self,
        path: &Path,
        resume: bool,
        jobs: &[SweepJob],
        mut warn: impl FnMut(&str),
    ) -> Result<Vec<Option<JournalRow>>, JournalError> {
        let (sink, resumed) =
            journal::open(path, resume, jobs, self.scale, &self.traces, &mut warn)?;
        self.journal = Some(Arc::new(sink));
        Ok(resumed)
    }

    /// Whether the attached journal died mid-sweep (fail-soft: the sweep
    /// kept running, but the rows after the loss are not on disk).
    /// `false` when no journal is attached.
    pub fn journal_lost(&self) -> bool {
        self.journal
            .as_ref()
            .is_some_and(|sink| sink.lost().is_some())
    }

    /// The worker count this sweep would use for `jobs` jobs:
    /// `available_parallelism` unless [`Sweep::threads`] overrides it,
    /// capped by the job count and at least one.
    pub fn pool_size(&self, jobs: usize) -> usize {
        self.threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .min(jobs)
            .max(1)
    }

    /// Runs every job and returns the outcomes in grid order: the live
    /// points of [`Sweep::run_points`] with nothing resumed, so only a
    /// point whose worker was killed ([`Fault::WorkerKill`]) is missing.
    pub fn run(&self, jobs: Vec<SweepJob>) -> Vec<SweepOutcome> {
        self.run_points(&jobs, vec![None; jobs.len()])
            .into_iter()
            .filter_map(|point| match point {
                GridPoint::Live(o) => Some(*o),
                _ => None,
            })
            .collect()
    }

    /// Runs the grid `jobs` and returns one [`GridPoint`] per job, in grid
    /// order. A failing job never takes the sweep down with it: panics are
    /// caught, budget overruns come back as timeouts.
    ///
    /// `resumed` is parallel to `jobs` (as [`Sweep::open_journal`] returns
    /// it): a journaled row is spliced as [`GridPoint::Resumed`], never run
    /// and never the first member of a memo group. The fault plan and the
    /// memo groups are indexed by grid position, so a resumed sweep faults
    /// exactly the points a fresh one would.
    ///
    /// Traces are materialized once per distinct `(suite, scale)` — in
    /// parallel, ahead of the simulations — then the jobs fan out over the
    /// worker pool. Each successful outcome's [`SimResult::metrics`]
    /// carries the job's wall time, queue delay and simulated event count.
    pub fn run_points(
        &self,
        jobs: &[SweepJob],
        resumed: Vec<Option<JournalRow>>,
    ) -> Vec<GridPoint> {
        assert_eq!(resumed.len(), jobs.len(), "one resume slot per grid point");
        let done: Vec<bool> = resumed.iter().map(Option::is_some).collect();
        let workers = self.pool_size(done.iter().filter(|&&d| !d).count());

        // Phase 1: materialize each distinct trace exactly once, fanning
        // the builds out over the same worker budget, and pre-warm each
        // job's trace post-processing (oracle DMA windows, forwarding
        // pairs) so no timed replay region pays for analysis. Both caches
        // dedupe, so repeated (suite, parameter) pairs cost one compute.
        // A journaled sweep fingerprints each suite's trace here too, so
        // `rows_of` only looks the memoized hash up.
        let build_cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = build_cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    if done[i] {
                        continue;
                    }
                    if self.journal.is_some() {
                        self.traces.fingerprint(job.suite, self.scale);
                    }
                    let workload = self.traces.get(job.suite, self.scale);
                    match job.system {
                        SystemKind::Scratch => {
                            let cap = job.config.scratchpad.capacity_bytes
                                / fusion_types::CACHE_BLOCK_BYTES;
                            workload.dma_windows(cap);
                        }
                        SystemKind::FusionDx => {
                            workload.forward_pairs(job.config.l0x.blocks());
                        }
                        SystemKind::Shared | SystemKind::Fusion => {}
                    }
                });
            }
        });

        // Phase 2: fan the simulations out. Workers claim jobs from a
        // shared cursor and write into per-job slots, so output order is
        // grid order no matter the completion order. The memo plan is
        // fixed before any job runs, so which jobs are copied does not
        // depend on the worker count (DESIGN.md §12).
        let roles = memo::plan(jobs, &self.faults, self.memo, &done);
        #[expect(
            clippy::disallowed_methods,
            reason = "queue-wait timing for diagnostics; never feeds simulated results"
        )]
        let submitted = Instant::now();
        let cursor = AtomicUsize::new(0);
        // Boxed, so the slots move into the returned points uncopied.
        let slots: Vec<Mutex<Option<Box<SweepOutcome>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();

        // One job, run once and timed from its claim.
        let run_job = |i: usize, mark: MemoMark| -> SweepOutcome {
            let job = &jobs[i];
            let queue_delay = duration_nanos_saturating(submitted.elapsed());
            let run = std::panic::catch_unwind(AssertUnwindSafe(|| self.run_once(job, i)));
            // `&*payload`: downcast the inner payload, not the Box (a Box
            // is itself `Any`).
            let mut result = run.unwrap_or_else(|payload| {
                Err(SimError::JobPanicked {
                    job: job.label(),
                    message: panic_message(&*payload),
                })
            });
            if let Ok(res) = &mut result {
                res.metrics.queue_delay_nanos = queue_delay;
            }
            SweepOutcome {
                job: job.clone(),
                result,
                memo: MemoRow { mark },
            }
        };
        // Fills a group's result slots. Poison recovery: a slot mutex
        // poisoned by a panic on another thread still holds writable
        // storage — never let one casualty forfeit the grid.
        let fill = |group: Group| {
            for (i, outcome) in group {
                *slots[i]
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(Box::new(outcome));
            }
        };
        // The journal lines of a group's successful outcomes, encoded on
        // the worker so the journal writer only writes, syncs and fills.
        let rows_of = |group: &Group| -> Vec<String> {
            group
                .iter()
                .filter_map(|(_, o)| {
                    let res = o.result.as_ref().ok()?;
                    Some(journal::encode_row(&journal::JournalRow::for_result(
                        &o.job,
                        self.scale,
                        res,
                        1,
                        0,
                        self.traces.fingerprint(o.job.suite, self.scale),
                    )))
                })
                .collect()
        };

        std::thread::scope(|scope| {
            let fill = &fill;
            // Write-ahead discipline with group commit: a journaled
            // sweep's workers hand each group to one writer thread, which
            // drains everything queued, appends it with one write and one
            // fsync, and only then fills the slots. So no result is
            // published before its row is durable, and the fsync overlaps
            // the workers' next replays. The writer ends once every worker
            // has dropped its sender and this closure has dropped its own.
            let to_writer = self.journal.as_deref().map(|sink| {
                let (tx, rx) = mpsc::channel::<(Vec<String>, Group)>();
                scope.spawn(move || {
                    while let Ok((mut lines, group)) = rx.recv() {
                        let mut groups = vec![group];
                        for (more, group) in rx.try_iter() {
                            lines.extend(more);
                            groups.push(group);
                        }
                        sink.commit(&lines);
                        groups.into_iter().for_each(fill);
                    }
                });
                tx
            });
            let (roles, cursor) = (&roles, &cursor);
            let (run_job, rows_of) = (&run_job, &rows_of);
            for _ in 0..workers {
                let to_writer = to_writer.clone();
                let publish = move |group: Group| match &to_writer {
                    // A send fails only if the writer panicked, and then
                    // the scope re-raises the panic: nothing is returned.
                    Some(tx) => {
                        let _ = tx.send((rows_of(&group), group));
                    }
                    None => fill(group),
                };
                scope.spawn(move || {
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        let (mark, copies): (MemoMark, &[usize]) = match &roles[i] {
                            // Spliced from the journal, or published by
                            // its group's first member.
                            Role::Resumed | Role::Copy(_) => continue,
                            Role::Alone => (MemoMark::Off, &[]),
                            Role::Run(copies) => (MemoMark::Miss, copies),
                        };
                        if self.faults.fault_for(i) == Some(Fault::WorkerKill) {
                            // Chaos kill: this worker dies mid-claim, the
                            // slot stays empty — the in-process stand-in
                            // for a SIGKILL. The rest of the pool keeps
                            // going; a journaled sweep resumes the point.
                            break;
                        }
                        let outcome = run_job(i, mark);
                        match &outcome.result {
                            Ok(res) => {
                                let copied: Group = copies
                                    .iter()
                                    .map(|&c| (c, copy_of(&jobs[c], res)))
                                    .collect();
                                publish(std::iter::once((i, outcome)).chain(copied).collect());
                            }
                            Err(_) => {
                                publish(vec![(i, outcome)]);
                                // A failed first member proves nothing
                                // about its group: the other members run
                                // as ordinary jobs.
                                for &c in copies {
                                    publish(vec![(c, run_job(c, MemoMark::Miss))]);
                                }
                            }
                        }
                    }
                });
            }
        });

        slots
            .into_iter()
            .zip(resumed)
            .map(|(slot, row)| {
                let outcome = slot
                    .into_inner()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                match (outcome, row) {
                    (Some(o), _) => GridPoint::Live(o),
                    (None, Some(row)) => GridPoint::Resumed(row),
                    (None, None) => GridPoint::NotRun,
                }
            })
            .collect()
    }

    /// One job: stages the planned fault (if any), then runs the
    /// simulation under the cycle budget. Runs inside the worker's
    /// `catch_unwind`.
    fn run_once(&self, job: &SweepJob, index: usize) -> Result<SimResult, SimError> {
        let fault = self.faults.fault_for(index);
        let label = job.label();
        if fault == Some(Fault::Panic) {
            panic!("injected fault: worker panic in {label}");
        }

        let mut workload = self.traces.get(job.suite, self.scale);
        // Trace faults encode the cached trace, damage the bytes and
        // decode them again: the decoder's hardening is what must catch
        // the damage (the shared cache copy is never touched).
        if let Some(bytes) = fault.and_then(|f| f.damaged_trace(&workload)) {
            workload = Arc::new(trace_io::decode_workload(&bytes)?);
        }

        let mut cfg = job.config.clone();
        let mut max_sim_cycles = self.budget;
        match fault {
            Some(Fault::Livelock) => max_sim_cycles = Some(1),
            Some(Fault::AccProtocolFlip { at_event }) => {
                cfg = cfg.with_checker(CheckerConfig::with_acc_fault(
                    at_event,
                    ProtocolFaultKind::LeaseOverrun,
                ));
            }
            Some(Fault::MesiProtocolFlip { at_event }) => {
                cfg = cfg.with_checker(CheckerConfig::with_mesi_fault(
                    at_event,
                    ProtocolFaultKind::WrongOwner,
                ));
            }
            _ => {}
        }

        let ctl = RunControl {
            label: &label,
            max_sim_cycles,
        };
        run_system_guarded(job.system, &workload, &cfg, &ctl)
    }
}

/// Outcomes published together, keyed by grid index: a group's first
/// member and the copies made from it, or one ungrouped or failed job.
type Group = Vec<(usize, SweepOutcome)>;

/// A group member's outcome, copied from its first member's result: it
/// took no wall time and no queueing (DESIGN.md §12).
fn copy_of(job: &SweepJob, res: &SimResult) -> SweepOutcome {
    let mut res = res.clone();
    res.metrics.wall_nanos = 0;
    res.metrics.queue_delay_nanos = 0;
    SweepOutcome {
        job: job.clone(),
        result: Ok(res),
        memo: MemoRow {
            mark: MemoMark::Hit,
        },
    }
}

/// Renders a caught panic payload (the `&str` / `String` cases cover
/// everything `panic!` produces; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_does_not_depend_on_call_order() {
        let (cold, warmed) = (TraceCache::new(), TraceCache::new());
        for suite in all_suites() {
            let fp = cold.fingerprint(suite, Scale::Tiny);
            cold.get(suite, Scale::Tiny);
            warmed.get(suite, Scale::Tiny);
            assert_eq!(cold.fingerprint(suite, Scale::Tiny), fp, "{suite}");
            assert_eq!(warmed.fingerprint(suite, Scale::Tiny), fp, "{suite}");
            assert_eq!(
                fp,
                trace_io::fingerprint(&build_suite(suite, Scale::Tiny)),
                "{suite}"
            );
        }
        assert_eq!((cold.builds(), warmed.builds()), (7, 7));
    }

    #[test]
    fn pool_size_honors_the_override_and_the_job_count() {
        let s = Sweep::new(Scale::Tiny).threads(5);
        assert_eq!(s.pool_size(28), 5);
        assert_eq!(s.pool_size(3), 3, "never more workers than jobs");
        assert_eq!(s.pool_size(0), 1, "at least one worker");
        assert_eq!(Sweep::new(Scale::Tiny).threads(0).pool_size(28), 1);
    }

    #[test]
    fn full_grid_covers_every_pair_in_order() {
        let jobs = full_grid(&SystemConfig::small());
        assert_eq!(jobs.len(), 28);
        assert_eq!(jobs[0].suite, SuiteId::Fft);
        assert_eq!(jobs[0].system, SystemKind::Scratch);
        assert_eq!(jobs[3].system, SystemKind::FusionDx);
        assert_eq!(jobs[4].suite, SuiteId::Disparity);
        assert_eq!(jobs[27].suite, SuiteId::Histogram);
    }

    #[test]
    fn trace_cache_materializes_once() {
        let cache = TraceCache::new();
        let a = cache.get(SuiteId::Adpcm, Scale::Tiny);
        let b = cache.get(SuiteId::Adpcm, Scale::Tiny);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.builds(), 1);
        cache.get(SuiteId::Fft, Scale::Tiny);
        assert_eq!(cache.builds(), 2);
    }

    #[test]
    fn trace_cache_builds_once_under_contention() {
        // Hammer one key from every hardware thread: the per-key build
        // slot must serialize callers onto a single build, never one per
        // caller and never one inside the cache-wide mutex.
        let cache = TraceCache::new();
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .max(4);
        let shared: Vec<Arc<Workload>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|_| scope.spawn(|| cache.get(SuiteId::Adpcm, Scale::Tiny)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.builds(), 1, "duplicate build under contention");
        for t in &shared[1..] {
            assert!(Arc::ptr_eq(&shared[0], t));
        }
    }

    #[test]
    fn trace_cache_holds_the_recorded_workload() {
        let cache = TraceCache::new();
        let t = cache.get(SuiteId::Filter, Scale::Tiny);
        assert_eq!(*t, build_suite(SuiteId::Filter, Scale::Tiny));
    }

    #[test]
    fn sweep_preserves_grid_order_and_fills_metrics() {
        let jobs = vec![
            SweepJob::new(SystemKind::Fusion, SuiteId::Adpcm, SystemConfig::small()),
            SweepJob::new(SystemKind::Scratch, SuiteId::Adpcm, SystemConfig::small()),
            SweepJob::new(SystemKind::Shared, SuiteId::Filter, SystemConfig::small()),
        ];
        let outcomes = Sweep::new(Scale::Tiny).run(jobs);
        assert_eq!(outcomes.len(), 3);
        let results: Vec<&SimResult> = outcomes.iter().map(|o| o.expect_result()).collect();
        assert_eq!(results[0].system, "FUSION");
        assert_eq!(results[1].system, "SCRATCH");
        assert_eq!(results[2].system, "SHARED");
        for r in &results {
            assert!(r.metrics.wall_nanos > 0, "wall time missing");
            assert!(r.metrics.sim_events > 0, "event count missing");
        }
    }

    #[test]
    fn single_thread_sweep_matches_parallel() {
        let grid = || {
            vec![
                SweepJob::new(SystemKind::Fusion, SuiteId::Fft, SystemConfig::small()),
                SweepJob::new(SystemKind::FusionDx, SuiteId::Fft, SystemConfig::small()),
            ]
        };
        let seq = Sweep::new(Scale::Tiny).threads(1).run(grid());
        let par = Sweep::new(Scale::Tiny).threads(4).run(grid());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        assert!(Sweep::new(Scale::Tiny).run(Vec::new()).is_empty());
    }

    #[test]
    fn injected_panic_is_isolated_and_typed() {
        let jobs = vec![
            SweepJob::new(SystemKind::Scratch, SuiteId::Adpcm, SystemConfig::small()),
            SweepJob::new(SystemKind::Shared, SuiteId::Adpcm, SystemConfig::small()),
            SweepJob::new(SystemKind::Fusion, SuiteId::Adpcm, SystemConfig::small()),
        ];
        let plan = FaultPlan::new().inject(1, Fault::Panic);
        let outcomes = Sweep::new(Scale::Tiny).with_faults(plan).run(jobs);
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].result.is_ok());
        assert!(outcomes[2].result.is_ok());
        match &outcomes[1].result {
            Err(SimError::JobPanicked { job, message }) => {
                assert_eq!(job, "ADPCM/SH");
                assert!(message.contains("injected fault"), "{message}");
            }
            other => panic!("expected JobPanicked, got {other:?}"),
        }
    }

    #[test]
    fn livelock_budget_fires_and_is_not_retried_forever() {
        let jobs = vec![SweepJob::new(
            SystemKind::Shared,
            SuiteId::Fft,
            SystemConfig::small(),
        )];
        let plan = FaultPlan::new().inject(0, Fault::Livelock);
        let outcomes = Sweep::new(Scale::Tiny).with_faults(plan).run(jobs);
        match &outcomes[0].result {
            Err(SimError::Timeout { limit, .. }) => assert_eq!(*limit, 1),
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn failed_first_member_runs_the_rest_of_its_group() {
        // SCRATCH cannot see the L0X, so the two jobs form one group. A
        // one-cycle budget times the first out; the second must then run
        // (and time out) on its own rather than vanish.
        let first = SweepJob::new(SystemKind::Scratch, SuiteId::Adpcm, SystemConfig::small());
        let mut second = first.clone();
        second.config.l0x.capacity_bytes *= 2;
        let outcomes = Sweep::new(Scale::Tiny)
            .threads(1)
            .budget(1)
            .run(vec![first, second]);
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert!(
                matches!(o.result, Err(SimError::Timeout { .. })),
                "{:?}",
                o.result
            );
            assert_eq!(o.memo.mark, MemoMark::Miss);
        }
    }

    #[test]
    fn trace_faults_map_to_decode_errors() {
        let jobs = vec![
            SweepJob::new(SystemKind::Scratch, SuiteId::Filter, SystemConfig::small()),
            SweepJob::new(SystemKind::Shared, SuiteId::Filter, SystemConfig::small()),
        ];
        let plan = FaultPlan::new()
            .inject(0, Fault::CorruptTrace)
            .inject(1, Fault::TruncateTrace);
        let outcomes = Sweep::new(Scale::Tiny).with_faults(plan).run(jobs);
        for o in &outcomes {
            assert!(
                matches!(o.result, Err(SimError::DecodeError { .. })),
                "{:?}",
                o.result
            );
        }
    }

    #[test]
    fn protocol_flips_map_to_invariant_violations() {
        let jobs = vec![
            SweepJob::new(SystemKind::Fusion, SuiteId::Fft, SystemConfig::small()),
            SweepJob::new(SystemKind::Shared, SuiteId::Fft, SystemConfig::small()),
        ];
        let plan = FaultPlan::new()
            .inject(0, Fault::AccProtocolFlip { at_event: 4 })
            .inject(1, Fault::MesiProtocolFlip { at_event: 4 });
        let outcomes = Sweep::new(Scale::Tiny).with_faults(plan).run(jobs);
        match &outcomes[0].result {
            Err(SimError::InvariantViolation(v)) => assert_eq!(v.protocol, "ACC"),
            other => panic!("expected ACC violation, got {other:?}"),
        }
        match &outcomes[1].result {
            Err(SimError::InvariantViolation(v)) => assert_eq!(v.protocol, "MESI"),
            other => panic!("expected MESI violation, got {other:?}"),
        }
    }

    #[test]
    fn faulty_jobs_do_not_disturb_healthy_neighbors() {
        let jobs = full_grid(&SystemConfig::small());
        let clean = Sweep::new(Scale::Tiny).run(jobs.clone());
        let plan = FaultPlan::new()
            .inject(2, Fault::Panic)
            .inject(9, Fault::Livelock);
        let faulty = Sweep::new(Scale::Tiny).with_faults(plan).run(jobs);
        assert_eq!(clean.len(), faulty.len());
        for (i, (c, f)) in clean.iter().zip(&faulty).enumerate() {
            if i == 2 || i == 9 {
                assert!(f.result.is_err(), "job {i} should have failed");
            } else {
                assert_eq!(
                    c.result.as_ref().unwrap(),
                    f.result.as_ref().unwrap(),
                    "job {i} diverged from the fault-free run"
                );
            }
        }
    }
}
