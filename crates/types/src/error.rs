//! Typed simulation errors: the fault taxonomy every layer of the stack
//! reports through.
//!
//! A production-scale sweep cannot afford to die on the first bad job, so
//! every failure a simulation can hit — a corrupt trace, a protocol
//! invariant broken at runtime, a panicked worker, a watchdog expiry or a
//! nonsensical configuration — maps to one [`SimError`] variant. The sweep
//! layer collects these per job (`fusion_core::sweep`); the `sim` CLI
//! renders them in its failure report and exits nonzero without discarding
//! the healthy rows.
//!
//! The taxonomy is `std`-only, `Clone` and `PartialEq` so errors can live
//! inside per-job outcome slots, cross thread boundaries and be compared
//! for determinism (two runs of the same faulty grid must produce the same
//! errors).

use std::error::Error;
use std::fmt;

/// A runtime protocol invariant caught by the opt-in checker
/// ([`crate::fault::CheckerConfig`]): which protocol, which rule, and what
/// state broke it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The protocol whose invariant broke (`"ACC"` or `"MESI"`).
    pub protocol: &'static str,
    /// The invariant that failed, named after DESIGN.md §10's list.
    pub rule: &'static str,
    /// Human-readable description of the offending state.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} invariant '{}' violated: {}",
            self.protocol, self.rule, self.detail
        )
    }
}

impl Error for InvariantViolation {}

/// Which watchdog fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutKind {
    /// The simulated-cycle forward-progress budget was exhausted — the
    /// replay consumed more simulated time than any healthy run of its
    /// size plausibly could (the protocol-livelock guard).
    SimCycleBudget,
    /// The wall-clock deadline passed and the monitor thread cancelled the
    /// job at its next phase boundary.
    WallClock,
}

impl fmt::Display for TimeoutKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeoutKind::SimCycleBudget => write!(f, "simulated-cycle budget"),
            TimeoutKind::WallClock => write!(f, "wall-clock deadline"),
        }
    }
}

/// Everything that can go wrong while running one simulation job.
///
/// # Examples
///
/// ```
/// use fusion_types::error::SimError;
///
/// let e = SimError::ConfigError {
///     detail: "l1x needs at least one bank".into(),
/// };
/// assert!(e.to_string().contains("configuration"));
/// assert!(!e.is_transient());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Workload trace bytes could not be decoded (truncated, corrupt,
    /// wrong version, or structurally impossible lengths).
    DecodeError {
        /// What the decoder tripped over.
        detail: String,
    },
    /// The runtime [`ProtocolChecker`](crate::fault::CheckerConfig) caught
    /// a coherence-protocol invariant violation.
    InvariantViolation(InvariantViolation),
    /// A sweep worker panicked while simulating this job; the panic was
    /// contained by the job-isolation boundary and converted.
    JobPanicked {
        /// Grid label of the job (`"FFT/FU"`-style).
        job: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A watchdog cut the job short.
    Timeout {
        /// Grid label of the job.
        job: String,
        /// Which watchdog fired.
        kind: TimeoutKind,
        /// The budget that was exhausted (simulated cycles or
        /// milliseconds, per `kind`).
        limit: u64,
    },
    /// The configuration cannot describe a simulatable machine.
    ConfigError {
        /// Which knob is broken and why.
        detail: String,
    },
}

impl SimError {
    /// Whether a bounded retry can plausibly succeed: panics and timeouts
    /// may be environmental (a poisoned slot, an overloaded host), while
    /// decode, invariant and configuration failures are deterministic
    /// properties of the inputs and will fail identically every attempt.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SimError::JobPanicked { .. } | SimError::Timeout { .. }
        )
    }

    /// Short taxonomy label (stable, used by failure reports and tests).
    pub fn kind_label(&self) -> &'static str {
        match self {
            SimError::DecodeError { .. } => "decode",
            SimError::InvariantViolation(_) => "invariant",
            SimError::JobPanicked { .. } => "panic",
            SimError::Timeout { .. } => "timeout",
            SimError::ConfigError { .. } => "config",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DecodeError { detail } => write!(f, "trace decode failed: {detail}"),
            SimError::InvariantViolation(v) => write!(f, "{v}"),
            SimError::JobPanicked { job, message } => {
                write!(f, "job {job} panicked: {message}")
            }
            SimError::Timeout { job, kind, limit } => {
                write!(f, "job {job} exceeded its {kind} ({limit})")
            }
            SimError::ConfigError { detail } => write!(f, "invalid configuration: {detail}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::InvariantViolation(v) => Some(v),
            _ => None,
        }
    }
}

impl From<InvariantViolation> for SimError {
    fn from(v: InvariantViolation) -> Self {
        SimError::InvariantViolation(v)
    }
}

/// Everything that can go wrong around the sweep's write-ahead result
/// journal (`fusion_core::journal`, DESIGN.md §14).
///
/// The journal is a durability layer, so its errors are deliberately
/// separated from [`SimError`]: a journal failure never invalidates a
/// simulation result, it only degrades crash recovery. Two variants are
/// *usage* errors ([`JournalError::is_usage`]) — resuming against a
/// journal written by different code or at a different scale is operator
/// error, reported before any job runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The underlying file operation failed (open, write, fsync).
    Io {
        /// What failed, including the path.
        detail: String,
    },
    /// A journal line could not be interpreted even though its seal
    /// verified (missing fields, wrong kinds, inconsistent payload).
    Malformed {
        /// 1-based journal line.
        line: usize,
        /// What the reader tripped over.
        detail: String,
    },
    /// `--resume` against a journal written by a different code version:
    /// journaled results cannot be trusted to match what the current
    /// binary would compute.
    CodeVersionMismatch {
        /// Version recorded in the journal header.
        found: String,
        /// Version of the running binary.
        expected: String,
    },
    /// `--resume` against a journal written at a different workload scale.
    ScaleMismatch {
        /// Scale recorded in the journal header.
        found: String,
        /// Scale of the resuming sweep.
        expected: String,
    },
    /// The journal device is out of space (or the injected disk-full
    /// quota of the chaos harness was exhausted).
    DiskFull {
        /// Where and at what size the write was refused.
        detail: String,
    },
}

impl JournalError {
    /// Whether this error is an operator mistake (exit code 2 in the CLI)
    /// rather than a runtime failure (exit code 1).
    pub fn is_usage(&self) -> bool {
        matches!(
            self,
            JournalError::CodeVersionMismatch { .. } | JournalError::ScaleMismatch { .. }
        )
    }

    /// Short taxonomy label (stable, used by warnings and tests).
    pub fn kind_label(&self) -> &'static str {
        match self {
            JournalError::Io { .. } => "io",
            JournalError::Malformed { .. } => "malformed",
            JournalError::CodeVersionMismatch { .. } => "code-version",
            JournalError::ScaleMismatch { .. } => "scale",
            JournalError::DiskFull { .. } => "disk-full",
        }
    }
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { detail } => write!(f, "journal I/O failed: {detail}"),
            JournalError::Malformed { line, detail } => {
                write!(f, "journal line {line} malformed: {detail}")
            }
            JournalError::CodeVersionMismatch { found, expected } => write!(
                f,
                "journal was written by code version '{found}' but this binary is '{expected}'; \
                 re-run without --resume"
            ),
            JournalError::ScaleMismatch { found, expected } => write!(
                f,
                "journal was written at scale '{found}' but this sweep runs at '{expected}'; \
                 re-run without --resume"
            ),
            JournalError::DiskFull { detail } => write!(f, "journal device full: {detail}"),
        }
    }
}

impl Error for JournalError {}

/// How far the sweep's graceful-degradation ladder has descended
/// (DESIGN.md §14). Each rung sheds capability, never correctness:
/// degraded sweeps produce byte-identical simulated results, they just
/// produce them with less parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum DegradeLevel {
    /// Nothing shed: full tile-thread reservation, full worker pool.
    #[default]
    Full,
    /// Per-job tile-thread reservations shed to 1 (memory pressure from
    /// parallel tile replicas is the first thing to give back).
    ShedTileThreads,
    /// Fail-soft single-job mode: one worker, one job at a time, minimum
    /// footprint — the last rung before giving up.
    SingleJob,
}

impl DegradeLevel {
    /// Stable lowercase label (salvage reports, logs).
    pub fn label(self) -> &'static str {
        match self {
            DegradeLevel::Full => "full",
            DegradeLevel::ShedTileThreads => "shed-tile-threads",
            DegradeLevel::SingleJob => "single-job",
        }
    }

    /// Ladder rung as an index (0 = full service).
    pub fn index(self) -> usize {
        match self {
            DegradeLevel::Full => 0,
            DegradeLevel::ShedTileThreads => 1,
            DegradeLevel::SingleJob => 2,
        }
    }

    /// The rung for an index (clamped to the deepest rung).
    pub fn from_index(i: usize) -> DegradeLevel {
        match i {
            0 => DegradeLevel::Full,
            1 => DegradeLevel::ShedTileThreads,
            _ => DegradeLevel::SingleJob,
        }
    }
}

impl fmt::Display for DegradeLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Degradation metadata a sweep reports alongside its outcomes: how far
/// the ladder descended, what drove it there, and whether the journal was
/// lost along the way. Carried in the salvage report on fatal exit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Degraded {
    /// Deepest ladder rung reached during the sweep.
    pub level: DegradeLevel,
    /// Transient failures (panics, timeouts, cancellations) observed —
    /// the ladder's driving signal.
    pub transient_failures: u64,
    /// Whether the write-ahead journal died mid-sweep (disk full, I/O
    /// error) and later completions are unprotected.
    pub journal_lost: bool,
}

impl Degraded {
    /// Whether anything was shed.
    pub fn is_degraded(&self) -> bool {
        self.level != DegradeLevel::Full || self.journal_lost
    }

    /// Machine-readable rendering for the salvage report.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"level\":\"{}\",\"transient_failures\":{},\"journal_lost\":{}}}",
            self.level.label(),
            self.transient_failures,
            self.journal_lost
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_chain() {
        let v = InvariantViolation {
            protocol: "ACC",
            rule: "lease-containment",
            detail: "lease_end 900 > gtime 100".into(),
        };
        let e: SimError = v.clone().into();
        assert!(e.to_string().contains("lease-containment"));
        assert!(e.source().is_some());
        assert_eq!(e.source().unwrap().to_string(), v.to_string());
        let t = SimError::Timeout {
            job: "FFT/FU".into(),
            kind: TimeoutKind::SimCycleBudget,
            limit: 1000,
        };
        assert!(t.to_string().contains("simulated-cycle budget"));
        assert!(t.source().is_none());
    }

    #[test]
    fn transience_partitions_the_taxonomy() {
        assert!(SimError::JobPanicked {
            job: "j".into(),
            message: "m".into()
        }
        .is_transient());
        assert!(SimError::Timeout {
            job: "j".into(),
            kind: TimeoutKind::WallClock,
            limit: 1,
        }
        .is_transient());
        for e in [
            SimError::DecodeError { detail: "x".into() },
            SimError::ConfigError { detail: "x".into() },
            SimError::InvariantViolation(InvariantViolation {
                protocol: "MESI",
                rule: "owner",
                detail: String::new(),
            }),
        ] {
            assert!(!e.is_transient(), "{e}");
        }
    }

    #[test]
    fn kind_labels_are_distinct() {
        let labels = [
            SimError::DecodeError { detail: "".into() }.kind_label(),
            SimError::JobPanicked {
                job: "".into(),
                message: "".into(),
            }
            .kind_label(),
            SimError::ConfigError { detail: "".into() }.kind_label(),
        ];
        assert_eq!(labels, ["decode", "panic", "config"]);
    }

    #[test]
    fn errors_compare_for_determinism() {
        let a = SimError::DecodeError {
            detail: "bad magic".into(),
        };
        let b = SimError::DecodeError {
            detail: "bad magic".into(),
        };
        assert_eq!(a, b);
    }
}
