//! What the benchmark runs and what it reports: the workloads, the
//! end-to-end metrics with their regression bounds, and the per-layer
//! metrics with the end-to-end metric each should move. `BENCHMARK.json`
//! at the repository root lists the same names, units and bounds; a test
//! keeps the two equal.

use std::path::Path;

use fusion_core::journal::scale_label;
use fusion_core::{design_grid, SweepJob, SystemKind};
use fusion_types::{SystemConfig, WritePolicy};
use fusion_workloads::{all_suites, Scale};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, work counts).
    Lower,
    /// Larger is better (throughput, hit ratios).
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What a workload's child process is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `sim sweep --json` over the design grid.
    Sweep {
        /// Phase memo on (the default) or `--no-memo`.
        memo: bool,
        /// `--journal <file>`: one fsync'd row per grid point.
        journal: bool,
    },
    /// `tables all <scale> 1`: every table and figure of the paper.
    Tables,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name, as `--workload` takes it.
    pub name: &'static str,
    /// Why the benchmark runs it.
    pub why: &'static str,
    /// Input scale of the seven kernels.
    pub scale: Scale,
    /// The child process.
    pub kind: Kind,
    /// FNV-1a of the child's output (see [`crate::output`]); a run whose
    /// output digests otherwise is wrong.
    pub expected_digest: u64,
}

/// The four workloads. Inputs are the paper's seven fixed kernels; the
/// benchmark seed never changes them, only the order of repetitions.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "grid_paper",
        why: "the 196-point durable design grid users run: memo splicing, a journal fsync per point and the prewarm of 4 scratchpad x 4 L0X capacities, all at once",
        scale: Scale::Paper,
        kind: Kind::Sweep { memo: true, journal: true },
        expected_digest: 0xc371_3264_dfa2_b55a,
    },
    Spec {
        name: "grid_small",
        why: "the same grid at small scale: working sets are small against the modelled caches, so per-job fixed costs (journal, memo, orchestration) dominate",
        scale: Scale::Small,
        kind: Kind::Sweep { memo: true, journal: true },
        expected_digest: 0xb5e5_5a5a_658a_4a38,
    },
    Spec {
        name: "replay_paper",
        why: "every grid point replayed, memo off and no journal: per-job replay is most of the wall time, so hot-loop changes show at full strength",
        scale: Scale::Paper,
        kind: Kind::Sweep { memo: false, journal: false },
        expected_digest: 0xc371_3264_dfa2_b55a,
    },
    Spec {
        name: "tables_paper",
        why: "the paper-reproduction path: 42 jobs incl. write-through FUSION (stores reach the L1X) and the LARGE configuration; no memo hits, no journal",
        scale: Scale::Paper,
        kind: Kind::Tables,
        expected_digest: 0x40cc_5663_320c_0eac,
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// The grid points the child simulates, in its order.
    pub fn jobs(&self) -> Vec<SweepJob> {
        match self.kind {
            Kind::Sweep { .. } => design_grid(&SystemConfig::small()),
            Kind::Tables => tables_jobs(),
        }
    }

    /// Program and arguments of the child; `journal` is where a
    /// journaled sweep writes its journal.
    pub fn command(&self, journal: &Path) -> (&'static str, Vec<String>) {
        let scale = scale_label(self.scale).to_string();
        match self.kind {
            Kind::Sweep {
                memo,
                journal: journaled,
            } => {
                let mut args: Vec<String> =
                    ["sweep", "--scale", &scale, "--threads", "1", "--json"]
                        .iter()
                        .map(|s| s.to_string())
                        .collect();
                if !memo {
                    args.push("--no-memo".into());
                }
                if journaled {
                    args.push("--journal".into());
                    args.push(journal.display().to_string());
                }
                ("sim", args)
            }
            Kind::Tables => ("tables", vec!["all".into(), scale, "1".into()]),
        }
    }
}

/// The jobs `tables all` simulates: per suite, SCRATCH, SHARED, FUSION
/// and FUSION-Dx at the SMALL configuration, FUSION with a write-through
/// L0X, and FUSION at the LARGE configuration (the order of
/// `fusion_bench::SuiteRun::simulate_suites`).
pub fn tables_jobs() -> Vec<SweepJob> {
    let small = SystemConfig::small();
    let variants = [
        (SystemKind::Scratch, small.clone()),
        (SystemKind::Shared, small.clone()),
        (SystemKind::Fusion, small.clone()),
        (SystemKind::FusionDx, small.clone()),
        (
            SystemKind::Fusion,
            small.with_write_policy(WritePolicy::WriteThrough),
        ),
        (SystemKind::Fusion, SystemConfig::large()),
    ];
    all_suites()
        .into_iter()
        .flat_map(|suite| {
            variants
                .iter()
                .map(move |(system, cfg)| SweepJob::new(*system, suite, cfg.clone()))
        })
        .collect()
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// Share of the parent's median by which it may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// End-to-end metrics, measured with tracing off on every workload.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "replay_mrefs_per_s",
        unit: "Mrefs/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// A per-layer metric from the traced run.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// The layer (module) it measures.
    pub layer: &'static str,
    /// The end-to-end metric and workload a change to this layer should
    /// move most; `None` for a sanity count that no change to simulator
    /// speed may move.
    pub moves: Option<(&'static str, &'static str)>,
    /// The workload where the change should show least.
    pub least: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: Option<(&'static str, &'static str)>,
    least: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        layer,
        moves,
        least,
    }
}

use Better::{Higher, Lower};

const REPLAY: Option<(&str, &str)> = Some(("replay_mrefs_per_s", "replay_paper"));

/// Per-layer metrics, in report order.
#[rustfmt::skip]
pub const LAYERS: [LayerMetric; 47] = [
    layer("workloads.build_ms", "ms", Lower, "workloads", Some(("setup_s", "grid_small")), "replay_paper"),
    layer("workloads.refs", "count", Lower, "workloads", Some(("setup_s", "grid_paper")), "grid_small"),
    layer("accel.decode_ms", "ms", Lower, "accel.trace", Some(("setup_s", "grid_paper")), "grid_small"),
    layer("accel.prewarm_ms", "ms", Lower, "accel.analysis", Some(("setup_s", "grid_paper")), "tables_paper"),
    layer("accel.dma_windows", "count", Lower, "accel.analysis", Some(("wall_s", "grid_paper")), "tables_paper"),
    layer("accel.forward_pairs", "count", Lower, "accel.analysis", Some(("wall_s", "grid_paper")), "tables_paper"),
    layer("accel.issue_ns_per_ref", "ns", Lower, "accel.engine", REPLAY, "grid_small"),
    layer("accel.mlp_stall_cycles", "cycles", Lower, "accel.engine", REPLAY, "grid_small"),
    layer("mem.l0x_ns_per_probe", "ns", Lower, "mem", REPLAY, "tables_paper"),
    layer("mem.l1x_ns_per_probe", "ns", Lower, "mem", REPLAY, "tables_paper"),
    layer("mem.l2_ns_per_probe", "ns", Lower, "mem", REPLAY, "tables_paper"),
    layer("mem.l0x_miss_ratio", "ratio", Lower, "mem", REPLAY, "tables_paper"),
    layer("mem.l1x_miss_ratio", "ratio", Lower, "mem", REPLAY, "tables_paper"),
    layer("mem.l2_miss_ratio", "ratio", Lower, "mem", REPLAY, "tables_paper"),
    layer("acc.ns_per_access", "ns", Lower, "coherence.acc", REPLAY, "grid_small"),
    layer("acc.l0_hit_ratio", "ratio", Higher, "coherence.acc", REPLAY, "grid_small"),
    layer("acc.l1_fills", "count", Lower, "coherence.acc", REPLAY, "grid_small"),
    layer("acc.lease_expiries", "count", Lower, "coherence.acc", REPLAY, "grid_small"),
    layer("acc.stall_cycles", "cycles", Lower, "coherence.acc", REPLAY, "grid_small"),
    layer("acc.downgrade_sets_scanned", "count", Lower, "coherence.acc", REPLAY, "grid_small"),
    layer("acc.mshr_merges", "count", Lower, "coherence.acc", REPLAY, "grid_small"),
    layer("acc.wt_stores", "count", Lower, "coherence.acc", Some(("wall_s", "tables_paper")), "grid_small"),
    layer("mesi.ns_per_request", "ns", Lower, "coherence.mesi", REPLAY, "grid_small"),
    layer("mesi.l2_misses", "count", Lower, "coherence.mesi", REPLAY, "grid_small"),
    layer("mesi.invalidations", "count", Lower, "coherence.mesi", REPLAY, "grid_small"),
    layer("vm.tlb_ns_per_lookup", "ns", Lower, "vm", REPLAY, "grid_small"),
    layer("vm.tlb_miss_ratio", "ratio", Lower, "vm", REPLAY, "grid_small"),
    layer("vm.rmap_ns_per_op", "ns", Lower, "vm", REPLAY, "grid_small"),
    layer("vm.rmap_synonyms", "count", Lower, "vm", REPLAY, "grid_small"),
    layer("host.ns_per_request", "ns", Lower, "core.host", REPLAY, "tables_paper"),
    layer("host.l2_accesses", "count", Lower, "core.host", REPLAY, "tables_paper"),
    layer("host.ax_tlb_lookups", "count", Lower, "core.host", REPLAY, "tables_paper"),
    layer("dma.ns_per_block", "ns", Lower, "dma", Some(("wall_s", "replay_paper")), "tables_paper"),
    layer("dma.blocks", "count", Lower, "dma", Some(("wall_s", "replay_paper")), "tables_paper"),
    layer("dma.transfers", "count", Lower, "dma", Some(("wall_s", "replay_paper")), "tables_paper"),
    layer("energy.events", "count", Lower, "energy", None, "grid_small"),
    layer("core.replay_ms", "ms", Lower, "core.runner", REPLAY, "grid_small"),
    layer("core.replay_ns_per_ref.sc", "ns", Lower, "core.runner", REPLAY, "grid_small"),
    layer("core.replay_ns_per_ref.sh", "ns", Lower, "core.runner", REPLAY, "grid_small"),
    layer("core.replay_ns_per_ref.fu", "ns", Lower, "core.runner", REPLAY, "grid_small"),
    layer("core.replay_ns_per_ref.fu-dx", "ns", Lower, "core.runner", REPLAY, "grid_small"),
    layer("core.jobs_spliced", "count", Higher, "core.memo", Some(("wall_s", "grid_paper")), "replay_paper"),
    layer("core.jobs_replayed", "count", Lower, "core.memo", Some(("wall_s", "grid_paper")), "replay_paper"),
    layer("journal.us_per_row", "us", Lower, "core.journal", Some(("wall_s", "grid_small")), "replay_paper"),
    layer("journal.bytes", "bytes", Lower, "core.journal", Some(("wall_s", "grid_small")), "replay_paper"),
    layer("core.sweep_overhead_ms", "ms", Lower, "core.sweep", Some(("wall_s", "grid_small")), "replay_paper"),
    layer("trace.overhead_pct", "%", Lower, "trace", None, "grid_small"),
];

/// The unit of the end-to-end or per-layer metric `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| LAYERS.iter().find(|m| m.name == name).map(|m| m.unit))
}
