//! Shared harness for regenerating every table and figure of the FUSION
//! (ISCA 2015) evaluation.
//!
//! The `tables` binary prints the rows. Each table/figure has one
//! `render_*` function returning the formatted text, so the binary and
//! the golden tests share the exact same computation.

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "write!-into-String is infallible (fmt::Error cannot occur); the two expects assert sweep output arity"
)]

use std::fmt::Write as _;
use std::sync::Arc;

use fusion_accel::Workload;
use fusion_core::{SimResult, Sweep, SweepJob, SystemKind, TraceCache};
use fusion_energy::Component;
use fusion_types::{SystemConfig, WritePolicy, CACHE_BLOCK_BYTES, FLIT_BYTES};
use fusion_workloads::{Scale, SuiteId};

/// All simulations needed for one suite's rows.
#[derive(Debug)]
pub struct SuiteRun {
    /// Suite identity.
    pub id: SuiteId,
    /// The recorded workload (phase metadata over its lanes, with its
    /// memoized analyses), shared with the sweep pool that produced the
    /// results: the renderers read its statistics
    /// ([`Workload::trace_stats`], [`Workload::working_set`]).
    pub workload: Arc<Workload>,
    /// SCRATCH result (small config).
    pub scratch: SimResult,
    /// SHARED result (small config).
    pub shared: SimResult,
    /// FUSION result (small config).
    pub fusion: SimResult,
    /// FUSION-Dx result (small config).
    pub fusion_dx: SimResult,
    /// FUSION with a write-through L0X (Table 4).
    pub fusion_wt: SimResult,
    /// FUSION at the LARGE configuration (Figure 7).
    pub fusion_large: SimResult,
}

/// The six `(system, config)` variants the evaluation needs per suite, in
/// the fixed order [`SuiteRun::simulate_suites`] reassembles them in.
fn suite_variants() -> [(SystemKind, SystemConfig); 6] {
    let small = SystemConfig::small();
    [
        (SystemKind::Scratch, small.clone()),
        (SystemKind::Shared, small.clone()),
        (SystemKind::Fusion, small.clone()),
        (SystemKind::FusionDx, small.clone()),
        (
            SystemKind::Fusion,
            small.with_write_policy(WritePolicy::WriteThrough),
        ),
        (SystemKind::Fusion, SystemConfig::large()),
    ]
}

impl SuiteRun {
    /// Runs every configuration the evaluation needs for `id`.
    pub fn simulate(id: SuiteId, scale: Scale) -> SuiteRun {
        Self::simulate_suites(&[id], scale, None)
            .pop()
            .expect("one suite in, one run out")
    }

    /// Runs the given suites as one sweep grid: each suite's trace is
    /// materialized once and every `(suite, variant)` job fans out over
    /// the worker pool ([`fusion_core::sweep`]). `threads` overrides the
    /// pool size (`None` = `available_parallelism`).
    pub fn simulate_suites(
        suites: &[SuiteId],
        scale: Scale,
        threads: Option<usize>,
    ) -> Vec<SuiteRun> {
        let jobs: Vec<SweepJob> = suites
            .iter()
            .flat_map(|&id| {
                suite_variants()
                    .into_iter()
                    .map(move |(system, config)| SweepJob::new(system, id, config))
            })
            .collect();
        let traces = Arc::new(TraceCache::new());
        let mut sweep = Sweep::new(scale).with_trace_cache(Arc::clone(&traces));
        if let Some(t) = threads {
            sweep = sweep.threads(t);
        }
        let mut outcomes = sweep.run(jobs).into_iter();
        suites
            .iter()
            .map(|&id| {
                let mut next = || {
                    let o = outcomes
                        .next()
                        .expect("sweep returns one outcome per job, in grid order");
                    o.result
                        .unwrap_or_else(|e| panic!("table job {} failed: {e}", o.job.label()))
                };
                SuiteRun {
                    id,
                    scratch: next(),
                    shared: next(),
                    fusion: next(),
                    fusion_dx: next(),
                    fusion_wt: next(),
                    fusion_large: next(),
                    workload: traces.get(id, scale),
                }
            })
            .collect()
    }
}

/// Table 1: accelerator characteristics.
pub fn render_table1(runs: &[SuiteRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table 1: Accelerator Characteristics\n{:<12} {:>7} {:>6} {:>6} {:>6} {:>6} {:>4} {:>6}",
        "Function", "%Time", "%INT", "%FP", "%LD", "%ST", "MLP", "%SHR"
    )
    .unwrap();
    for run in runs {
        writeln!(out, "--- {} ---", run.id.label()).unwrap();
        let total_axc_cycles: u64 = run.fusion.accelerator_cycles().max(1);
        for stats in &run.workload.trace_stats().functions {
            let f = stats.name.as_str();
            let (cycles, _, _) = run.fusion.function_totals(f);
            let mix = stats.op_mix();
            let shr = stats.sharing_degree();
            let mlp = run
                .workload
                .phases
                .iter()
                .find(|p| p.name == f)
                .map(|p| p.mlp)
                .unwrap_or(1);
            writeln!(
                out,
                "{:<12} {:>7.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>4} {:>6.1}",
                f,
                100.0 * cycles as f64 / total_axc_cycles as f64,
                mix.int_pct,
                mix.fp_pct,
                mix.ld_pct,
                mix.st_pct,
                mlp,
                shr
            )
            .unwrap();
        }
    }
    out
}

/// Table 2: system parameters (configuration echo) plus the derived
/// per-access energy table (the CACTI-substitute of Section 4).
pub fn render_table2() -> String {
    let cfg = SystemConfig::small();
    let em = fusion_energy::EnergyModel::new(&cfg);
    let energies = format!(
        "Derived per-access energies (45 nm analytic model):\n\
         L0X {} (incl. +15% timestamp tag)  scratchpad {}  L1X {}\n\
         host L1 {}  L2+dir {}  DRAM {}  AX-TLB {}  AX-RMAP {}\n\
         int op {}  fp op {}\n",
        em.l0x_access,
        em.scratchpad_access,
        em.l1x_access,
        em.host_l1_access,
        em.l2_access,
        em.memory_access,
        em.tlb_lookup,
        em.rmap_lookup,
        em.int_op,
        em.fp_op,
    );
    energies
        + &format!(
            "Table 2: System parameters\n\
         L0X/scratchpad: {} KB, {} ways, {} cycle\n\
         Shared L1X: {} KB, {} banks, {} ways, {} cycles\n\
         Host L1: {} KB {}-way, {} cycles; L2: {} MB {}-way, {} cycles avg\n\
         Memory: 4ch open-page, {} cycles\n\
         Links: AXC-L1X {} pJ/B, L1X-L2 {} pJ/B, L0X-L0X {} pJ/B\n",
            cfg.l0x.capacity_bytes / 1024,
            cfg.l0x.ways,
            cfg.l0x.latency,
            cfg.l1x.capacity_bytes / 1024,
            cfg.l1x.banks,
            cfg.l1x.ways,
            cfg.l1x.latency,
            cfg.host_l1.capacity_bytes / 1024,
            cfg.host_l1.ways,
            cfg.host_l1.latency,
            cfg.l2.capacity_bytes / (1024 * 1024),
            cfg.l2.ways,
            cfg.l2.latency,
            cfg.memory_latency,
            cfg.link_axc_l1x.pj_per_byte,
            cfg.link_l1x_l2.pj_per_byte,
            cfg.link_l0x_l0x_pj_per_byte,
        )
}

/// Table 3: per-function execution metrics under FUSION.
pub fn render_table3(runs: &[SuiteRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table 3: Accelerator Execution Metrics (FUSION)\n{:<12} {:>9} {:>6} {:>6}",
        "Function", "KCyc", "LT", "%En"
    )
    .unwrap();
    for run in runs {
        let total_mem: f64 = run
            .workload
            .functions()
            .iter()
            .map(|f| run.fusion.function_totals(f).1.value())
            .sum::<f64>()
            .max(1.0);
        let cache_compute = {
            let mem: f64 = run.fusion.memory_energy().value();
            let compute = run
                .fusion
                .energy
                .energy(Component::Compute)
                .value()
                .max(1.0);
            mem / compute
        };
        writeln!(
            out,
            "--- {} (cache/compute energy = {:.1}) ---",
            run.id.label(),
            cache_compute
        )
        .unwrap();
        for f in run.workload.functions() {
            let (cycles, mem_e, _) = run.fusion.function_totals(f);
            let lease = run
                .workload
                .phases
                .iter()
                .find(|p| p.name == f)
                .map(|p| p.lease)
                .unwrap_or(0);
            writeln!(
                out,
                "{:<12} {:>9.1} {:>6} {:>6.1}",
                f,
                cycles as f64 / 1000.0,
                lease,
                100.0 * mem_e.value() / total_mem
            )
            .unwrap();
        }
    }
    out
}

const FIG6A_COMPONENTS: [Component; 7] = [
    Component::AxcCache,
    Component::L1x,
    Component::L2,
    Component::LinkAxcL1xMsg,
    Component::LinkAxcL1xData,
    Component::LinkL1xL2Msg,
    Component::LinkL1xL2Data,
];

/// Figure 6a: dynamic energy breakdown normalized to SCRATCH.
pub fn render_fig6a(runs: &[SuiteRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 6a: Cache-hierarchy dynamic energy, normalized to SCRATCH"
    )
    .unwrap();
    writeln!(
        out,
        "{:<8} {:>3} {:>6}  {}",
        "bench",
        "sys",
        "norm",
        FIG6A_COMPONENTS
            .iter()
            .map(|c| format!("{:>8}", c.label().replace("L0X", "l0").replace(" ", "")))
            .collect::<Vec<_>>()
            .join(" ")
    )
    .unwrap();
    for run in runs {
        let base = run.scratch.cache_energy().value().max(1e-9);
        for (label, res) in [
            ("SC", &run.scratch),
            ("SH", &run.shared),
            ("FU", &run.fusion),
        ] {
            let norm = res.cache_energy().value() / base;
            let stacks: Vec<String> = FIG6A_COMPONENTS
                .iter()
                .map(|&c| format!("{:>8.3}", res.energy.energy(c).value() / base))
                .collect();
            writeln!(
                out,
                "{:<8} {:>3} {:>6.3}  {}",
                run.id.label(),
                label,
                norm,
                stacks.join(" ")
            )
            .unwrap();
        }
    }
    out
}

/// Figure 6b: cycle time normalized to SCRATCH.
pub fn render_fig6b(runs: &[SuiteRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 6b: Cycles normalized to SCRATCH\n{:<8} {:>10} {:>8} {:>8} {:>8} {:>10}",
        "bench", "SC cyc", "SC dma%", "SH", "FU", "FU-Dx"
    )
    .unwrap();
    for run in runs {
        let base = run.scratch.total_cycles.max(1) as f64;
        writeln!(
            out,
            "{:<8} {:>10} {:>8.2} {:>8.3} {:>8.3} {:>10.3}",
            run.id.label(),
            run.scratch.total_cycles,
            run.scratch.dma_time_fraction(),
            run.shared.total_cycles as f64 / base,
            run.fusion.total_cycles as f64 / base,
            run.fusion_dx.total_cycles as f64 / base,
        )
        .unwrap();
    }
    out
}

/// Figure 6c: link message/data breakdown.
pub fn render_fig6c(runs: &[SuiteRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 6c: Link traffic (message/data counts)\n{:<8} {:>3} {:>10} {:>10} {:>10} {:>10}",
        "bench", "sys", "axc>l1msg", "axc<>l1dat", "l1>l2msg", "l1<>l2dat"
    )
    .unwrap();
    for run in runs {
        for (label, res) in [
            ("SC", &run.scratch),
            ("SH", &run.shared),
            ("FU", &run.fusion),
        ] {
            let t = res.traffic();
            writeln!(
                out,
                "{:<8} {:>3} {:>10} {:>10} {:>10} {:>10}",
                run.id.label(),
                label,
                t.msgs_axc_l1x,
                t.data_axc_l1x,
                t.msgs_l1x_l2,
                t.data_l1x_l2
            )
            .unwrap();
        }
    }
    out
}

/// Figure 6d (table): working sets and DMA volumes.
pub fn render_fig6d(runs: &[SuiteRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 6d: Working set vs DMA volume\n{:<8} {:>9} {:>9} {:>8} {:>10}",
        "bench", "WSet(kB)", "DMA(kB)", "DMA/WS", "#transfers"
    )
    .unwrap();
    for run in runs {
        let ws = run.workload.working_set().kib();
        let dma_kb = (run.scratch.dma_blocks * CACHE_BLOCK_BYTES as u64) as f64 / 1024.0;
        writeln!(
            out,
            "{:<8} {:>9.0} {:>9.0} {:>8.1} {:>10}",
            run.id.label(),
            ws,
            dma_kb,
            dma_kb / ws.max(1e-9),
            run.scratch.dma_transfers
        )
        .unwrap();
    }
    out
}

/// Table 4: write-through vs write-back L0X bandwidth.
pub fn render_table4(runs: &[SuiteRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table 4: AXC-L1X bandwidth in flits ({} bytes/flit)\n{:<8} {:>14} {:>12} {:>14}",
        FLIT_BYTES, "bench", "WriteThrough", "Writeback", "%DirtyBlocks"
    )
    .unwrap();
    for run in runs {
        writeln!(
            out,
            "{:<8} {:>14} {:>12} {:>14.1}",
            run.id.label(),
            run.fusion_wt.traffic().flits_axc_l1x.value(),
            run.fusion.traffic().flits_axc_l1x.value(),
            run.workload.trace_stats().dirty_block_pct()
        )
        .unwrap();
    }
    out
}

/// Table 5: FUSION-Dx forwarding savings.
pub fn render_table5(runs: &[SuiteRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table 5: Inter-AXC forwarded blocks and energy savings (FUSION-Dx vs FUSION)\n\
         {:<8} {:>10} {:>10} {:>10}",
        "bench", "#FWD", "AXC$ -%", "AXC link -%"
    )
    .unwrap();
    for run in runs {
        let fwd = run.fusion_dx.tile.map(|t| t.fwd_l0_to_l0).unwrap_or(0);
        let cache = |r: &SimResult| {
            r.energy.energy(Component::AxcCache).value() + r.energy.energy(Component::L1x).value()
        };
        let link = |r: &SimResult| {
            r.energy.energy(Component::LinkAxcL1xMsg).value()
                + r.energy.energy(Component::LinkAxcL1xData).value()
                + r.energy.energy(Component::LinkL0xFwd).value()
        };
        let dc = 100.0 * (1.0 - cache(&run.fusion_dx) / cache(&run.fusion).max(1e-9));
        let dl = 100.0 * (1.0 - link(&run.fusion_dx) / link(&run.fusion).max(1e-9));
        writeln!(
            out,
            "{:<8} {:>10} {:>10.1} {:>10.1}",
            run.id.label(),
            fwd,
            dc,
            dl
        )
        .unwrap();
    }
    out
}

/// Figure 7: LARGE vs SMALL accelerator caches.
pub fn render_fig7(runs: &[SuiteRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 7: LARGE (8KB L0X / 256KB L1X) vs SMALL, FUSION\n\
         {:<8} {:>12} {:>12}",
        "bench", "energy L/S", "cycles L/S"
    )
    .unwrap();
    for run in runs {
        writeln!(
            out,
            "{:<8} {:>12.3} {:>12.3}",
            run.id.label(),
            run.fusion_large.memory_energy().value() / run.fusion.memory_energy().value().max(1e-9),
            run.fusion_large.total_cycles as f64 / run.fusion.total_cycles.max(1) as f64,
        )
        .unwrap();
    }
    out
}

/// Table 6: virtual-memory lookup counts.
pub fn render_table6(runs: &[SuiteRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table 6: Virtual memory table look up count (FUSION)\n{:<8} {:>10} {:>10} {:>10}",
        "bench", "AX-TLB", "AX-RMAP", "fwd reqs"
    )
    .unwrap();
    for run in runs {
        writeln!(
            out,
            "{:<8} {:>10} {:>10} {:>10}",
            run.id.label(),
            run.fusion.ax_tlb_lookups,
            run.fusion.ax_rmap_lookups,
            run.fusion.host_forwards
        )
        .unwrap();
    }
    out
}

/// Machine-readable export of the Figure 6 data (one row per
/// suite x system), for plotting.
pub fn render_csv(runs: &[SuiteRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "bench,system,cycles,dma_fraction,cache_energy_pj,axc_pj,l1x_pj,l2_pj,link_axc_l1x_pj,link_l1x_l2_pj,dma_blocks,l0_hit_rate,wset_kb"
    )
    .unwrap();
    for run in runs {
        for (label, res) in [
            ("SCRATCH", &run.scratch),
            ("SHARED", &run.shared),
            ("FUSION", &run.fusion),
            ("FUSION-Dx", &run.fusion_dx),
        ] {
            let e = &res.energy;
            let l0_hit = res
                .tile
                .map(|t| t.l0_hits as f64 / t.l0_accesses.max(1) as f64)
                .unwrap_or(0.0);
            writeln!(
                out,
                "{},{},{},{:.4},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{},{:.4},{:.1}",
                run.id.label(),
                label,
                res.total_cycles,
                res.dma_time_fraction(),
                res.cache_energy().value(),
                e.energy(Component::AxcCache).value(),
                e.energy(Component::L1x).value(),
                e.energy(Component::L2).value(),
                (e.energy(Component::LinkAxcL1xMsg) + e.energy(Component::LinkAxcL1xData)).value(),
                (e.energy(Component::LinkL1xL2Msg) + e.energy(Component::LinkL1xL2Data)).value(),
                res.dma_blocks,
                l0_hit,
                run.workload.working_set().kib(),
            )
            .unwrap();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_workloads::build_suite;

    fn tiny_run() -> SuiteRun {
        SuiteRun::simulate(SuiteId::Adpcm, Scale::Tiny)
    }

    #[test]
    fn all_renderers_produce_rows() {
        let runs = vec![tiny_run()];
        for text in [
            render_table1(&runs),
            render_table2(),
            render_table3(&runs),
            render_fig6a(&runs),
            render_fig6b(&runs),
            render_fig6c(&runs),
            render_fig6d(&runs),
            render_table4(&runs),
            render_table5(&runs),
            render_fig7(&runs),
            render_table6(&runs),
        ] {
            assert!(
                text.lines().count() >= 2,
                "renderer produced no rows: {text}"
            );
        }
    }

    #[test]
    fn csv_is_rectangular() {
        let runs = vec![tiny_run()];
        let csv = render_csv(&runs);
        let mut lines = csv.lines();
        let cols = lines.next().unwrap().split(',').count();
        assert_eq!(cols, 13);
        let mut rows = 0;
        for line in lines {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
            rows += 1;
        }
        assert_eq!(rows, 4, "one row per system");
    }

    #[test]
    fn fig6a_normalizes_scratch_to_one() {
        let runs = vec![tiny_run()];
        let text = render_fig6a(&runs);
        let sc_line = text.lines().find(|l| l.contains(" SC ")).unwrap();
        let norm: f64 = sc_line.split_whitespace().nth(2).unwrap().parse().unwrap();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dirty_fraction_bounds() {
        let wl = build_suite(SuiteId::Filter, Scale::Tiny);
        let f = wl.trace_stats().dirty_block_pct();
        assert!((0.0..=100.0).contains(&f));
        assert!(f > 10.0, "filter writes whole planes: {f:.0}%");
    }
}
