//! Deterministic fault injection for the sweep engine (DESIGN.md §10).
//!
//! A [`FaultPlan`] maps grid indices to [`Fault`]s; the sweep consults it
//! as each job starts and stages the corruption — a worker panic, a
//! damaged encoded trace, a planted protocol-state flip, or a livelock
//! stand-in that exhausts the simulated-cycle budget. Every fault is a
//! pure function of the plan, so two sweeps over the same grid with the
//! same plan fail in exactly the same places with exactly the same typed
//! [`SimError`](fusion_types::error::SimError)s — the property
//! `tests/fault_injection.rs` pins down.
//!
//! Plans come from two places: tests build them explicitly with
//! [`FaultPlan::inject`], and the CLI's `--inject seed:count` flag derives
//! one from a seed with [`FaultPlan::seeded`], driven by [`SplitMix64`]
//! (no wall-clock randomness anywhere).

use fusion_accel::{io as trace_io, Workload};
use fusion_types::hash::FxHashMap;
use fusion_types::SplitMix64;

/// One staged failure, attached to a single sweep job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The worker thread panics while running the job (caught by the
    /// sweep's `catch_unwind` isolation and reported as `JobPanicked`).
    Panic,
    /// The job re-encodes its trace, flips a payload byte and decodes the
    /// damaged bytes: the decoder must answer with `DecodeError`.
    CorruptTrace,
    /// Like [`Fault::CorruptTrace`], but the encoded trace loses its tail.
    TruncateTrace,
    /// Stands in for a protocol livelock: the job's simulated-cycle
    /// budget is collapsed so the forward-progress guard must fire
    /// (a [`SimError::Timeout`](fusion_types::error::SimError)).
    Livelock,
    /// Plants an ACC lease-containment flip at the given checked event
    /// (only observable on systems with an ACC tile: FU / FU-Dx).
    AccProtocolFlip {
        /// Checked event at which the lease state is corrupted.
        at_event: u64,
    },
    /// Plants a MESI directory ownership flip at the given checked event
    /// (observable on every system — they all share the host directory).
    MesiProtocolFlip {
        /// Checked event at which the directory state is corrupted.
        at_event: u64,
    },
    /// Chaos-harness kill: the worker that claims this grid index dies on
    /// the spot (its claim loop exits before running the job), leaving
    /// the job's result slot empty — the in-process stand-in for a
    /// SIGKILL'd worker. The sweep returns the other outcomes; a
    /// journaled sweep resumes the missing point.
    WorkerKill,
}

impl Fault {
    /// The damaged encoding of `workload` a trace fault replays, or `None`
    /// for the other kinds. [`Fault::CorruptTrace`] flips the middle byte;
    /// [`Fault::TruncateTrace`] keeps the first two thirds.
    pub(crate) fn damaged_trace(self, workload: &Workload) -> Option<Vec<u8>> {
        let mut bytes = match self {
            Fault::CorruptTrace | Fault::TruncateTrace => trace_io::encode_workload(workload),
            _ => return None,
        };
        if self == Fault::CorruptTrace {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
        } else {
            bytes.truncate(bytes.len().saturating_sub(bytes.len() / 3).max(6));
        }
        Some(bytes)
    }
}

/// The kinds [`FaultPlan::seeded`] draws from.
const SEEDED_KINDS: [Fault; 4] = [
    Fault::Panic,
    Fault::CorruptTrace,
    Fault::TruncateTrace,
    Fault::Livelock,
];

/// The kinds [`FaultPlan::seeded_chaos`] draws from: the seeded kinds
/// plus worker kills.
const CHAOS_KINDS: [Fault; 5] = [
    Fault::Panic,
    Fault::CorruptTrace,
    Fault::TruncateTrace,
    Fault::Livelock,
    Fault::WorkerKill,
];

/// A deterministic assignment of faults to sweep-grid indices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: FxHashMap<usize, Fault>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Returns the plan with `fault` staged at grid index `job`
    /// (replacing any fault already there).
    pub fn inject(mut self, job: usize, fault: Fault) -> FaultPlan {
        self.faults.insert(job, fault);
        self
    }

    /// Derives a plan with `count` faults spread over `jobs` grid slots
    /// from `seed` alone. The kinds drawn are the system-agnostic ones —
    /// panics, trace damage and livelocks — so every planted fault
    /// produces a typed error no matter which system the slot holds.
    pub fn seeded(seed: u64, jobs: usize, count: usize) -> FaultPlan {
        FaultPlan::draw(seed, jobs, count, &SEEDED_KINDS)
    }

    /// Derives a chaos plan: like [`FaultPlan::seeded`] but also drawing
    /// worker kills. Kept separate so `--inject`'s exit-code contract
    /// (every seeded fault yields a typed per-job error) is unchanged: a
    /// killed worker yields a missing row, not an error row.
    pub fn seeded_chaos(seed: u64, jobs: usize, count: usize) -> FaultPlan {
        FaultPlan::draw(seed, jobs, count, &CHAOS_KINDS)
    }

    /// Claims `count` distinct grid slots (at most `jobs`) from the
    /// splitmix64 stream of `seed`, each with a kind drawn from `kinds`.
    fn draw(seed: u64, jobs: usize, count: usize, kinds: &[Fault]) -> FaultPlan {
        let mut plan = FaultPlan::new();
        let mut rng = SplitMix64(seed);
        let count = count.min(jobs);
        while plan.faults.len() < count {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the remainder is below jobs, a usize"
            )]
            let job = (rng.next_u64() % jobs as u64) as usize;
            if plan.faults.contains_key(&job) {
                continue;
            }
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the remainder is below kinds.len(), a usize"
            )]
            let kind = (rng.next_u64() % kinds.len() as u64) as usize;
            plan.faults.insert(job, kinds[kind]);
        }
        plan
    }

    /// The fault staged at grid index `job`, if any.
    pub fn fault_for(&self, job: usize) -> Option<Fault> {
        self.faults.get(&job).copied()
    }

    /// Number of staged faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan stages nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The staged `(job, fault)` pairs in grid order.
    pub fn entries(&self) -> Vec<(usize, Fault)> {
        fusion_types::sorted_entries(&self.faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_workloads::{build_suite, Scale, SuiteId};

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(7, 28, 3);
        let b = FaultPlan::seeded(7, 28, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(a.entries().iter().all(|&(j, _)| j < 28));
        assert_ne!(a, FaultPlan::seeded(8, 28, 3));
    }

    #[test]
    fn seeded_plan_clamps_to_grid() {
        assert!(FaultPlan::seeded(1, 0, 4).is_empty());
        assert_eq!(FaultPlan::seeded(1, 2, 100).len(), 2);
    }

    #[test]
    fn seeded_never_draws_chaos_kinds() {
        // `--inject`'s contract: every planted fault produces a typed
        // per-job error. Kills live in seeded_chaos only.
        for seed in 0..32 {
            let plan = FaultPlan::seeded(seed, 28, 10);
            assert!(plan.entries().iter().all(|&(_, f)| f != Fault::WorkerKill));
        }
    }

    #[test]
    fn seeded_chaos_is_reproducible_and_reaches_new_kinds() {
        assert_eq!(
            FaultPlan::seeded_chaos(11, 28, 8),
            FaultPlan::seeded_chaos(11, 28, 8)
        );
        assert!(FaultPlan::seeded_chaos(1, 0, 4).is_empty());
        let drawn: Vec<Fault> = (0..64)
            .flat_map(|seed| FaultPlan::seeded_chaos(seed, 28, 8).entries())
            .map(|(_, f)| f)
            .collect();
        assert!(drawn.contains(&Fault::WorkerKill));
    }

    #[test]
    fn trace_faults_damage_the_full_encoding() {
        let wl = build_suite(SuiteId::Filter, Scale::Tiny);
        let full = trace_io::encode_workload(&wl);
        let corrupt = Fault::CorruptTrace.damaged_trace(&wl).unwrap();
        assert_eq!(corrupt.len(), full.len());
        let flipped: Vec<usize> = (0..full.len()).filter(|&i| corrupt[i] != full[i]).collect();
        assert_eq!(flipped, vec![full.len() / 2]);
        let truncated = Fault::TruncateTrace.damaged_trace(&wl).unwrap();
        assert_eq!(truncated.len(), full.len() - full.len() / 3);
        assert_eq!(truncated[..], full[..truncated.len()]);
        for bytes in [corrupt, truncated] {
            assert!(trace_io::decode_workload(&bytes).is_err());
        }
        assert_eq!(Fault::Panic.damaged_trace(&wl), None);
    }

    #[test]
    fn inject_overrides_and_reads_back() {
        let plan = FaultPlan::new()
            .inject(3, Fault::Panic)
            .inject(3, Fault::Livelock)
            .inject(0, Fault::CorruptTrace);
        assert_eq!(plan.fault_for(3), Some(Fault::Livelock));
        assert_eq!(plan.fault_for(0), Some(Fault::CorruptTrace));
        assert_eq!(plan.fault_for(1), None);
        assert_eq!(
            plan.entries(),
            vec![(0, Fault::CorruptTrace), (3, Fault::Livelock)]
        );
    }
}
