//! FUSION core: the four architectures of the paper's evaluation and the
//! experiment runner.
//!
//! This crate assembles the substrates — caches ([`fusion_mem`]),
//! coherence protocols ([`fusion_coherence`]), virtual memory
//! ([`fusion_vm`]), the DMA engine ([`fusion_dma`]), the accelerator
//! engine ([`fusion_accel`]) and the energy model ([`fusion_energy`]) —
//! into the four systems of [`runner::SystemKind`]:
//!
//! * SCRATCH — per-AXC scratchpads + oracle DMA (Section 2.1, the
//!   ARM/IBM-style baseline),
//! * SHARED — one shared L1X as a plain MESI agent (Section 2.1, the
//!   at-the-core baseline),
//! * FUSION — private L0Xs + shared L1X under the ACC lease protocol
//!   (Section 3), and FUSION-Dx, which adds write forwarding
//!   (Section 3.2).
//!
//! The offloaded program is phase-sequential, so one phase driver replays
//! every system; each system contributes only per-phase hooks for what
//! happens inside an accelerator phase (DESIGN.md §5).
//!
//! [`runner::run_system`] executes a workload on a system and returns a
//! [`result::SimResult`] with the cycle counts, the Figure 6a energy
//! breakdown, the Figure 6c traffic counts and the Table 6 translation
//! statistics — or a typed [`fusion_types::error::SimError`] when the
//! configuration is unusable, a watchdog fires or the opt-in protocol
//! checker flags an invariant. [`sweep::Sweep`] fans a whole grid of
//! `(system, suite, config)` jobs out over a worker pool with each suite's
//! trace materialized once, isolating every job (panic capture, watchdogs,
//! deterministic retry — see DESIGN.md §10 and [`faults`]) — the substrate
//! behind `sim sweep`, `sim compare` and the `tables` binary.
//!
//! # Examples
//!
//! ```
//! use fusion_core::runner::{run_system, SystemKind};
//! use fusion_workloads::{build_suite, Scale, SuiteId};
//!
//! let wl = build_suite(SuiteId::Adpcm, Scale::Tiny);
//! let sc = run_system(SystemKind::Scratch, &wl, &Default::default()).unwrap();
//! let fu = run_system(SystemKind::Fusion, &wl, &Default::default()).unwrap();
//! assert!(sc.total_cycles > 0 && fu.total_cycles > 0);
//! ```

pub mod faults;
pub mod host;
pub mod journal;
pub mod memo;
pub mod result;
pub mod runner;
pub mod sweep;
mod systems;

pub use faults::{Fault, FaultPlan, SplitMix64};
pub use journal::{
    code_version, config_fingerprint, job_key, plan_resume, read_journal, salvage_json, JobKey,
    JournalHeader, JournalRow, JournalSink, JournalWriter, Recovery, ResumePlan,
};
pub use memo::{observed_config, MemoMark, MemoRow};
pub use result::{PhaseResult, RunMetrics, SimResult, Traffic};
pub use runner::{
    run_system, run_system_decoded, run_system_guarded, validate_config, RunControl, SystemKind,
};
pub use sweep::{
    backoff_cycles, design_grid, full_grid, SharedTrace, Sweep, SweepJob, SweepOutcome,
    SweepSummary, TraceCache, Watchdog,
};
