//! Simulation results: everything the paper's tables and figures report.

#![expect(
    clippy::unwrap_used,
    reason = "write!-into-String JSON rendering is infallible"
)]

use fusion_coherence::TileStats;
use fusion_energy::{Component, EnergyLedger};
use fusion_sim::Histogram;
use fusion_types::{Flits, PicoJoules, FLIT_BYTES};

/// Per-phase outcome (drives Table 1's %Time and Table 3's KCyc/%En).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseResult {
    /// Function name.
    pub name: String,
    /// `true` when the phase ran on the host core.
    pub is_host: bool,
    /// Cycles this phase took (excluding other phases).
    pub cycles: u64,
    /// Cycles of that time spent in DMA transfers (SCRATCH only).
    pub dma_cycles: u64,
    /// Memory-system energy charged during the phase.
    pub memory_energy: PicoJoules,
    /// Datapath (compute) energy charged during the phase.
    pub compute_energy: PicoJoules,
}

/// Link traffic summary (Figure 6c and Table 4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Request/control messages AXC→L1X.
    pub msgs_axc_l1x: u64,
    /// Data transfers on the AXC–L1X link (responses + writebacks).
    pub data_axc_l1x: u64,
    /// Control messages on the L1X–L2 link.
    pub msgs_l1x_l2: u64,
    /// Data transfers on the L1X–L2 link (fills, writebacks, DMA).
    pub data_l1x_l2: u64,
    /// Direct L0X→L0X forwards (FUSION-Dx).
    pub fwds_l0x_l0x: u64,
    /// Flits moved on the AXC–L1X link.
    pub flits_axc_l1x: Flits,
}

/// Measurement metadata attached to a [`SimResult`] by the runner and the
/// sweep layer: how long the simulation took on the host machine and how
/// much simulated activity it processed.
///
/// These values describe the *measurement*, not the simulated machine, so
/// they are excluded from [`SimResult`]'s equality: two runs of the same
/// job compare equal even though their wall times differ.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunMetrics {
    /// Wall-clock nanoseconds the simulation itself took.
    pub wall_nanos: u64,
    /// Nanoseconds the job waited between sweep submission and worker
    /// pickup (zero for direct `run_system` calls).
    pub queue_delay_nanos: u64,
    /// Total simulation events processed (energy-ledger activity counts
    /// across every component).
    pub sim_events: u64,
    /// Dynamic memory references replayed (the decoded trace's length).
    pub refs_simulated: u64,
}

/// Whole milliseconds of `d`, saturating at `u64::MAX`.
///
/// `Duration::as_millis` returns `u128`; the measurement fields here are
/// `u64`, and a plain `as u64` cast would silently wrap a (pathological)
/// half-billion-year interval into a small number. Saturation keeps every
/// comparison against the value monotone.
pub fn duration_millis_saturating(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// Whole nanoseconds of `d`, saturating at `u64::MAX` (~584 years).
/// See [`duration_millis_saturating`] for why truncating casts are banned.
pub fn duration_nanos_saturating(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl RunMetrics {
    /// Wall time as a [`std::time::Duration`].
    pub fn wall_time(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.wall_nanos)
    }

    /// Queue delay as a [`std::time::Duration`].
    pub fn queue_delay(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.queue_delay_nanos)
    }

    /// Simulated events per wall-clock second (the sweep's throughput
    /// figure of merit); zero when no time was measured.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.sim_events as f64 * 1e9 / self.wall_nanos as f64
        }
    }

    /// Dynamic references replayed per wall-clock second — the hot-path
    /// throughput number `BENCH_sweep.json` baselines; zero when no time
    /// was measured.
    pub fn refs_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.refs_simulated as f64 * 1e9 / self.wall_nanos as f64
        }
    }
}

/// Complete result of one (system, workload) simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// System simulated.
    pub system: &'static str,
    /// Workload name.
    pub workload: String,
    /// End-to-end cycles.
    pub total_cycles: u64,
    /// Cycles spent in DMA transfers (SCRATCH; zero elsewhere).
    pub dma_cycles: u64,
    /// Full energy breakdown (Figure 6a stacks).
    pub energy: EnergyLedger,
    /// Per-phase results in program order.
    pub phases: Vec<PhaseResult>,
    /// Final accelerator-tile protocol counters (FUSION/FUSION-Dx).
    pub tile: Option<TileStats>,
    /// AX-TLB lookups (Table 6).
    pub ax_tlb_lookups: u64,
    /// AX-RMAP lookups (Table 6).
    pub ax_rmap_lookups: u64,
    /// Host MESI requests forwarded into the accelerator tile.
    pub host_forwards: u64,
    /// DMA blocks moved (Figure 6d "DMA (kB)" = blocks * 64 / 1024).
    pub dma_blocks: u64,
    /// DMA window transfers performed (Figure 6d transfer counts).
    pub dma_transfers: u64,
    /// L2 data-array accesses.
    pub l2_accesses: u64,
    /// Distribution of accelerator load-to-use latencies (cycles from
    /// issue to completion, power-of-two buckets).
    pub latency: Histogram,
    /// Host-side measurement metadata (wall time, queue delay, event
    /// count), filled by [`crate::runner::run_system`] and the sweep
    /// worker pool. Excluded from equality.
    pub metrics: RunMetrics,
}

/// Equality covers the *simulated* outcome only: [`SimResult::metrics`]
/// records host-side wall times that legitimately differ between otherwise
/// identical runs, so it is ignored here. This is what lets the sweep's
/// determinism guarantee be phrased as `parallel == sequential`.
impl PartialEq for SimResult {
    fn eq(&self, other: &Self) -> bool {
        self.system == other.system
            && self.workload == other.workload
            && self.total_cycles == other.total_cycles
            && self.dma_cycles == other.dma_cycles
            && self.energy == other.energy
            && self.phases == other.phases
            && self.tile == other.tile
            && self.ax_tlb_lookups == other.ax_tlb_lookups
            && self.ax_rmap_lookups == other.ax_rmap_lookups
            && self.host_forwards == other.host_forwards
            && self.dma_blocks == other.dma_blocks
            && self.dma_transfers == other.dma_transfers
            && self.l2_accesses == other.l2_accesses
            && self.latency == other.latency
    }
}

impl SimResult {
    /// Total simulated activity: the sum of every energy-ledger event
    /// count. This is the `sim_events` figure the sweep layer reports.
    pub fn total_sim_events(&self) -> u64 {
        self.energy.iter().map(|(_, _, n)| n).sum()
    }

    /// Memory-system energy (cache hierarchy + DRAM).
    pub fn memory_energy(&self) -> PicoJoules {
        self.energy.memory_system_total()
    }

    /// Cache-hierarchy dynamic energy — the Figure 6a normalized quantity
    /// (DRAM excluded: it is the same for every system).
    pub fn cache_energy(&self) -> PicoJoules {
        self.energy.cache_hierarchy_total()
    }

    /// Traffic summary derived from the ledger's event and byte counts.
    pub fn traffic(&self) -> Traffic {
        let e = &self.energy;
        let axc_l1x_bytes = e.bytes(Component::LinkAxcL1xMsg) + e.bytes(Component::LinkAxcL1xData);
        let flits = axc_l1x_bytes.div_ceil(FLIT_BYTES);
        Traffic {
            msgs_axc_l1x: e.count(Component::LinkAxcL1xMsg),
            data_axc_l1x: e.count(Component::LinkAxcL1xData),
            msgs_l1x_l2: e.count(Component::LinkL1xL2Msg),
            data_l1x_l2: e.count(Component::LinkL1xL2Data),
            fwds_l0x_l0x: e.count(Component::LinkL0xFwd),
            flits_axc_l1x: Flits(flits),
        }
    }

    /// Sum of the accelerator phases' cycles (excludes host phases).
    pub fn accelerator_cycles(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| !p.is_host)
            .map(|p| p.cycles)
            .sum()
    }

    /// Fraction of total time spent in DMA transfers.
    pub fn dma_time_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.dma_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Serializes every simulated stat as one JSON object — exactly what
    /// `sim run --json` prints (minimal writer, no external JSON
    /// dependency).
    ///
    /// [`SimResult::metrics`] is *excluded*: it records host-side
    /// measurements, not simulated outcomes, so this string is byte-stable
    /// across runs of the same job. The golden-stats test diffs it against
    /// committed snapshots exactly.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let t = self.traffic();
        write!(
            s,
            "{{\"system\":\"{}\",\"workload\":\"{}\",\"total_cycles\":{},\"dma_cycles\":{},\
             \"cache_energy_pj\":{:.3},\"memory_energy_pj\":{:.3},\
             \"ax_tlb_lookups\":{},\"ax_rmap_lookups\":{},\"host_forwards\":{},\
             \"dma_blocks\":{},\"dma_transfers\":{},\"l2_accesses\":{},",
            self.system,
            self.workload,
            self.total_cycles,
            self.dma_cycles,
            self.cache_energy().value(),
            self.memory_energy().value(),
            self.ax_tlb_lookups,
            self.ax_rmap_lookups,
            self.host_forwards,
            self.dma_blocks,
            self.dma_transfers,
            self.l2_accesses,
        )
        .unwrap();
        write!(
            s,
            "\"traffic\":{{\"msgs_axc_l1x\":{},\"data_axc_l1x\":{},\"msgs_l1x_l2\":{},\
             \"data_l1x_l2\":{},\"fwds_l0x_l0x\":{},\"flits_axc_l1x\":{}}},",
            t.msgs_axc_l1x,
            t.data_axc_l1x,
            t.msgs_l1x_l2,
            t.data_l1x_l2,
            t.fwds_l0x_l0x,
            t.flits_axc_l1x.value(),
        )
        .unwrap();
        s.push_str("\"energy\":{");
        let mut first = true;
        for (c, e, n) in self.energy.iter() {
            if !first {
                s.push(',');
            }
            first = false;
            write!(
                s,
                "\"{}\":{{\"pj\":{:.3},\"events\":{}}}",
                c.label(),
                e.value(),
                n
            )
            .unwrap();
        }
        s.push_str("},\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            write!(
                s,
                "{{\"name\":\"{}\",\"is_host\":{},\"cycles\":{},\"dma_cycles\":{},\
                 \"memory_pj\":{:.3},\"compute_pj\":{:.3}}}",
                p.name,
                p.is_host,
                p.cycles,
                p.dma_cycles,
                p.memory_energy.value(),
                p.compute_energy.value(),
            )
            .unwrap();
        }
        s.push_str("]}");
        s
    }

    /// Per-function aggregate: `(cycles, memory pJ, compute pJ)` summed
    /// over all invocations of `name`.
    pub fn function_totals(&self, name: &str) -> (u64, PicoJoules, PicoJoules) {
        let mut cycles = 0;
        let mut mem = PicoJoules::ZERO;
        let mut comp = PicoJoules::ZERO;
        for p in self.phases.iter().filter(|p| p.name == name) {
            cycles += p.cycles;
            mem += p.memory_energy;
            comp += p.compute_energy;
        }
        (cycles, mem, comp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_types::PicoJoules;

    fn result_with(phases: Vec<PhaseResult>) -> SimResult {
        SimResult {
            system: "TEST",
            workload: "wl".into(),
            total_cycles: 100,
            dma_cycles: 25,
            energy: EnergyLedger::new(),
            phases,
            tile: None,
            latency: Histogram::new(),
            ax_tlb_lookups: 0,
            ax_rmap_lookups: 0,
            host_forwards: 0,
            dma_blocks: 0,
            dma_transfers: 0,
            l2_accesses: 0,
            metrics: RunMetrics::default(),
        }
    }

    fn phase(name: &str, is_host: bool, cycles: u64) -> PhaseResult {
        PhaseResult {
            name: name.into(),
            is_host,
            cycles,
            dma_cycles: 0,
            memory_energy: PicoJoules::new(10.0),
            compute_energy: PicoJoules::new(5.0),
        }
    }

    #[test]
    fn accelerator_cycles_exclude_host() {
        let r = result_with(vec![phase("a", false, 30), phase("h", true, 70)]);
        assert_eq!(r.accelerator_cycles(), 30);
    }

    #[test]
    fn dma_fraction() {
        let r = result_with(vec![]);
        assert!((r.dma_time_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn function_totals_merge_invocations() {
        let r = result_with(vec![phase("f", false, 10), phase("f", false, 15)]);
        let (cyc, mem, comp) = r.function_totals("f");
        assert_eq!(cyc, 25);
        assert_eq!(mem.value(), 20.0);
        assert_eq!(comp.value(), 10.0);
    }

    #[test]
    fn duration_helpers_saturate_instead_of_wrapping() {
        use std::time::Duration;
        assert_eq!(duration_millis_saturating(Duration::ZERO), 0);
        assert_eq!(
            duration_millis_saturating(Duration::from_millis(1500)),
            1500
        );
        // Sub-unit intervals floor to zero, matching as_millis/as_nanos.
        assert_eq!(duration_millis_saturating(Duration::from_micros(999)), 0);
        assert_eq!(duration_nanos_saturating(Duration::from_nanos(42)), 42);
        // u64::MAX seconds overflows both u64 nanos and u64 millis as a
        // raw cast; the helpers pin to the ceiling instead of wrapping.
        let huge = Duration::new(u64::MAX, 999_999_999);
        assert_eq!(duration_nanos_saturating(huge), u64::MAX);
        assert_eq!(duration_millis_saturating(huge), u64::MAX);
        // Largest exactly-representable nanos value survives untouched.
        let edge = Duration::from_nanos(u64::MAX);
        assert_eq!(duration_nanos_saturating(edge), u64::MAX);
    }

    #[test]
    fn refs_per_sec_derivation() {
        let m = RunMetrics {
            wall_nanos: 2_000_000_000,
            queue_delay_nanos: 0,
            sim_events: 10,
            refs_simulated: 500,
        };
        assert!((m.refs_per_sec() - 250.0).abs() < 1e-9);
        assert_eq!(RunMetrics::default().refs_per_sec(), 0.0);
    }

    #[test]
    fn to_json_is_stable_and_ignores_metrics() {
        let mut a = result_with(vec![phase("f", false, 30)]);
        let json = a.to_json();
        assert!(json.starts_with("{\"system\":\"TEST\""));
        assert!(json.contains("\"total_cycles\":100"));
        assert!(json.contains("\"phases\":[{\"name\":\"f\""));
        assert!(json.ends_with("]}"));
        // Metrics are measurement metadata: changing them must not change
        // the serialized stats.
        a.metrics.wall_nanos = 123;
        a.metrics.refs_simulated = 456;
        assert_eq!(a.to_json(), json);
    }

    #[test]
    fn traffic_flit_derivation() {
        let mut r = result_with(vec![]);
        r.energy.charge_bytes(Component::LinkAxcL1xData, 0.4, 64);
        r.energy.charge_bytes(Component::LinkAxcL1xMsg, 0.4, 8);
        let t = r.traffic();
        assert_eq!(t.flits_axc_l1x.value(), 9); // 8 data + 1 msg flit
        assert_eq!(t.data_axc_l1x, 1);
        assert_eq!(t.msgs_axc_l1x, 1);
    }
}
